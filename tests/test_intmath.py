import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import intmath
from lacunary.errors import ExponentBudgetExceeded
from lacunary.intmath import (
    _LEAF_BITS,
    MATERIALIZE_BITS,
    STR_CUTOVER_BITS,
    check_power,
    decimal_str,
    floor_log10,
    int_label,
    introot,
    primitive_power,
    root_sci_string,
)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=12))
def test_introot_floor_property(n, k):
    r, exact = introot(n, k)
    assert r**k <= n < (r + 1) ** k
    assert exact == (r**k == n)


@given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=2, max_value=20))
def test_introot_recovers_constructed_powers(b, k):
    r, exact = introot(b**k, k)
    assert exact and r == b


def test_check_power_refuses_only_over_the_cap():
    check_power("x", MATERIALIZE_BITS, 1)
    check_power(7, 1 << 23, 4)
    with pytest.raises(ExponentBudgetExceeded, match=r"^x\*\*33554433 would need about "
                       r"33554433 bits, over the 33554432-bit materialization cap$"):
        check_power("x", MATERIALIZE_BITS + 1, 1)
    # a number over 64 bits is named by its bit length
    with pytest.raises(ExponentBudgetExceeded, match=r"^3\*\*18446744073709551615 would "
                       r"need about <65-bit integer> bits, over"):
        check_power(3, 2**64 - 1, 2)
    # e = 2**1000 stands in for the 2**(2**25) of a 33554432-bit budget
    with pytest.raises(ExponentBudgetExceeded, match=r"^q_4\*\*<1001-bit integer> would need "
                       r"about <1003-bit integer> bits, over the 33554432-bit "
                       r"materialization cap$"):
        check_power("q_4", 2**1000, 7)
    assert int_label(2**64 - 1) == "18446744073709551615"
    assert int_label(-(2**64)) == "<65-bit integer>"


def _decimal_str_cases():
    """0, +-1, powers of 2 and 10 and their neighbours at and around the
    cut-over and the split widths, and seeded random widths up to 400k bits."""
    cases = [0, 1]
    for w in (_LEAF_BITS, 2 * _LEAF_BITS, STR_CUTOVER_BITS, 2 * STR_CUTOVER_BITS,
              4 * STR_CUTOVER_BITS):
        j = w * 30103 // 100000  # 10**j has about w bits
        for x in (2**(w - 1), 2**w, 2**(w + 1), 10**j, 10**(j + 1)):
            cases += [x - 1, x, x + 1]
    rng = random.Random(20261018)
    for width in [rng.randint(1, 400_000) for _ in range(3)] + [
            int(400_000 ** rng.random()) + 1 for _ in range(60)]:
        cases.append(rng.getrandbits(width) | 1 << (width - 1))
    return cases


def test_decimal_str_matches_str():
    # failures are reported by bit length: a diff of the strings is too big
    wrong = []
    for n in _decimal_str_cases():
        want = str(n)
        if decimal_str(n) != want or n and decimal_str(-n) != "-" + want:
            wrong.append(n.bit_length())
    assert wrong == []


def test_introot_edge_cases():
    assert introot(0, 3) == (0, True)
    assert introot(1, 7) == (1, True)
    assert introot(8, 3) == (2, True)
    assert introot(9, 3) == (2, False)
    assert introot(2**64, 2) == (2**32, True)
    # k >= bits(n): the root is 1, found without building 2**(k-1)
    assert introot(2, 10**12) == (1, False)
    assert introot(2**64 - 1, 64) == (1, False)
    assert introot(2**64, 64) == (2, True)
    with pytest.raises(ValueError):
        introot(-1, 2)
    with pytest.raises(ValueError):
        introot(4, 0)


@given(st.integers(min_value=2, max_value=10**12))
def test_primitive_power_reconstructs_and_base_is_primitive(b):
    m, t = primitive_power(b)
    assert m**t == b
    # the returned base must not itself be a perfect power
    for p in range(2, m.bit_length() + 1):
        r, exact = introot(m, p)
        assert not (exact and r >= 2)


def test_primitive_power_known_values():
    assert primitive_power(2) == (2, 1)
    assert primitive_power(7) == (7, 1)
    assert primitive_power(36) == (6, 2)
    assert primitive_power(64) == (2, 6)
    assert primitive_power(1296) == (6, 4)
    assert primitive_power(2**61) == (2, 61)
    assert primitive_power(10**6) == (10, 6)


def _wide_fraction(b1: int, b2: int, seed: int) -> Fraction:
    rnd = random.Random(seed)
    return Fraction(rnd.getrandbits(b1) | 1 << (b1 - 1), rnd.getrandbits(b2) | 1 << (b2 - 1))


_WIDE_BITS = st.integers(min_value=1, max_value=110_000)


@settings(deadline=None)
@given(st.one_of(
    st.fractions(
        min_value=Fraction(1, 10**30),
        max_value=Fraction(10**30),
        max_denominator=10**30,
    ),
    # numerator and denominator of up to 110,000 bits each
    st.builds(_wide_fraction, _WIDE_BITS, _WIDE_BITS, st.integers(min_value=0, max_value=2**32)),
    # 10**e and 10**e +- 1/q with 0 < 1/q < 10**e, up to 116,000 bits
    st.builds(lambda e, m, s: Fraction(10) ** e + s * Fraction(1, m * 10 ** max(0, -e) + 1),
              st.integers(min_value=-35_000, max_value=35_000),
              st.integers(min_value=1, max_value=10**40), st.sampled_from((-1, 0, 1))),
))
def test_floor_log10_brackets(x):
    with mock.patch.object(intmath, "_le_pow10", wraps=intmath._le_pow10) as compared:
        e = floor_log10(x)
    assert compared.call_count <= 1
    assert Fraction(10) ** e <= x < Fraction(10) ** (e + 1)


def test_sci_string_examples():
    # the plain scientific form is root_sci_string with v = 1
    assert root_sci_string(Fraction(1, 3), 1, 6) == "3.33333e-1"
    assert root_sci_string(Fraction(2), 1, 4) == "2.000e+0"
    assert root_sci_string(Fraction(1, 1000), 1, 3) == "1.00e-3"
    assert root_sci_string(Fraction(0), 1, 5) == "0"
    # truncation toward zero, never rounding up
    assert root_sci_string(Fraction(999999999, 10**9), 1, 6) == "9.99999e-1"
    with pytest.raises(ValueError):
        root_sci_string(Fraction(-1, 8), 1, 3)


def test_root_sci_string_examples():
    assert root_sci_string(Fraction(2), 2, 6) == "1.41421e+0"
    assert root_sci_string(Fraction(1, 4), 2, 5) == "5.0000e-1"
    assert root_sci_string(Fraction(8), 3, 4) == "2.000e+0"


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=5),
)
def test_root_sci_string_matches_float_oracle(p, q, v):
    x = Fraction(p, q)
    s = root_sci_string(x, v, 10)
    true = math.pow(p / q, 1.0 / v)
    assert abs(float(s) - true) <= 1e-8 * true
