import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary.errors import InvalidConfigError
from lacunary.intmath import pow_bracket, primitive_power
from lacunary.powercmp import (
    Ordering,
    PurePower,
    compare,
    compare_trace,
    power_vs_threshold,
)


def test_purepower_validation():
    with pytest.raises(InvalidConfigError):
        PurePower(1, 5)
    with pytest.raises(InvalidConfigError):
        PurePower(2, -1)
    with pytest.raises(InvalidConfigError):
        PurePower(True, 3)
    p = PurePower(6, 100)
    assert p.materialize() == 6**100


def test_known_orderings():
    assert compare(PurePower(3, 256), PurePower(6, 48)) is Ordering.GREATER
    assert compare(PurePower(4, 15), PurePower(2, 30)) is Ordering.EQUAL
    assert compare(PurePower(8, 5), PurePower(2, 15)) is Ordering.EQUAL
    assert compare(PurePower(2, 10), PurePower(1024, 1)) is Ordering.EQUAL
    assert compare(PurePower(2, 30), PurePower(4, 15)) is Ordering.EQUAL


def test_huge_ordering_with_independent_log_oracle():
    # sign of 65536*ln 2 - 41000*ln 3 confirmed to 40 digits
    with mpmath.workdps(40):
        diff = 65536 * mpmath.ln(2) - 41000 * mpmath.ln(3)
        assert diff > 0
    d = compare_trace(PurePower(2, 65536), PurePower(3, 41000))
    assert d.ordering is Ordering.GREATER
    assert d.method == "log-enclosure"
    assert d.precisions and d.precisions[0] == 64


def test_diagnostics_methods():
    assert compare_trace(PurePower(5, 0), PurePower(7, 0)).method == "exponent-zero"
    assert compare_trace(PurePower(5, 0), PurePower(7, 1)).ordering is Ordering.LESS
    assert compare_trace(PurePower(5, 2), PurePower(7, 0)).ordering is Ordering.GREATER
    d = compare_trace(PurePower(4, 15), PurePower(2, 30))
    assert d.method == "common-base" and d.precisions == ()


def test_precision_doubling_on_hard_pair():
    # continued-fraction convergent of log2(3): the two values agree to
    # ~43 fractional bits of log, so the first 64-bit round cannot split
    # them and the schedule must double at least once
    d = compare_trace(PurePower(2, 1193652440098), PurePower(3, 753110839881))
    assert d.ordering is Ordering.LESS
    assert d.method == "log-enclosure"
    assert len(d.precisions) >= 2
    assert all(b == 2 * a for a, b in zip(d.precisions, d.precisions[1:]))


def test_constructed_equalities_across_primitive_bases():
    for m in (2, 3, 5, 6, 7, 10, 12):
        for s, t in [(1, 2), (2, 3), (3, 4), (2, 5)]:
            for k in (1, 7, 40):
                d = compare_trace(PurePower(m**s, k * t), PurePower(m**t, k * s))
                assert d.ordering is Ordering.EQUAL
                assert d.method == "common-base"


def test_randomized_against_materialized(seed=987654321):
    rng = random.Random(seed)
    for _ in range(300):
        b1, b2 = rng.randrange(2, 65), rng.randrange(2, 65)
        e1, e2 = rng.randrange(0, 2049), rng.randrange(0, 2049)
        got = compare(PurePower(b1, e1), PurePower(b2, e2))
        v1, v2 = b1**e1, b2**e2
        want = Ordering.LESS if v1 < v2 else Ordering.GREATER if v1 > v2 else Ordering.EQUAL
        assert got is want


def test_antisymmetry_on_samples(seed=13):
    rng = random.Random(seed)
    flip = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS,
            Ordering.EQUAL: Ordering.EQUAL}
    for _ in range(60):
        x = PurePower(rng.randrange(2, 40), rng.randrange(0, 500))
        y = PurePower(rng.randrange(2, 40), rng.randrange(0, 500))
        assert compare(y, x) is flip[compare(x, y)]


def test_threshold_small_paths():
    assert power_vs_threshold(PurePower(6, 1), 54) is Ordering.LESS
    assert power_vs_threshold(PurePower(6, 2), 36) is Ordering.EQUAL
    assert power_vs_threshold(PurePower(6, 8), 54) is Ordering.GREATER
    assert power_vs_threshold(PurePower(2, 10), 1025) is Ordering.LESS
    assert power_vs_threshold(PurePower(5, 0), 1) is Ordering.EQUAL
    assert power_vs_threshold(PurePower(5, 0), 2) is Ordering.LESS
    with pytest.raises(InvalidConfigError):
        power_vs_threshold(PurePower(2, 3), 0)
    with pytest.raises(InvalidConfigError):
        power_vs_threshold(PurePower(2, 3), Fraction(-1, 7))


def test_threshold_multi_megabit_values():
    # ~3 Mbit values: thresholds within a bit of the power take the exact
    # comparison, v/3 is decided by bit lengths
    x = PurePower(2, 3 * 2**20)
    v = 8 ** (2**20)
    assert power_vs_threshold(x, v) is Ordering.EQUAL
    assert power_vs_threshold(x, v + 2) is Ordering.LESS
    assert power_vs_threshold(x, v - 2) is Ordering.GREATER
    assert power_vs_threshold(x, v // 3) is Ordering.GREATER


def test_threshold_symbolic_paths():
    # both routes at a few thousand bits
    x = PurePower(2, 6000)
    v = 2**6000
    # thresholds of the power's bit length: one exact comparison
    assert power_vs_threshold(x, v) is Ordering.EQUAL
    assert power_vs_threshold(x, v + 2) is Ordering.LESS
    assert power_vs_threshold(x, v - 2) is Ordering.GREATER
    # far-away thresholds are decided by bit lengths alone
    assert power_vs_threshold(x, 5**100) is Ordering.GREATER
    assert power_vs_threshold(x, 7) is Ordering.GREATER


def test_threshold_near_miss_beyond_precision_cap():
    # a threshold agreeing with the power to ~20000 bits: no log
    # refinement could split them, the exact comparison does
    x = PurePower(2, 20000)
    v = 2**20000
    assert power_vs_threshold(x, v + 2) is Ordering.LESS
    assert power_vs_threshold(x, v - 2) is Ordering.GREATER
    assert power_vs_threshold(x, v + 1) is Ordering.LESS
    assert power_vs_threshold(x, v - 1) is Ordering.GREATER


def _materialized_order(b, e, t):
    v = b**e
    return Ordering.LESS if v < t else Ordering.GREATER if v > t else Ordering.EQUAL


def test_threshold_random_against_materialized(seed=271828):
    # thresholds at b**e +- 1..3, and the smallest and largest integer of
    # each bit length at the edges of the bit-length rule: LESS when
    # e*bits(b) < bits(t) - 1, GREATER when e*(bits(b) - 1) >= bits(t)
    rng = random.Random(seed)
    checked = 0
    for _ in range(300):
        b = rng.randrange(2, 201)
        e = rng.choice((0, rng.randrange(1, 300)))
        v = b**e
        ts = [v + k for k in range(-3, 4) if v + k > 0]
        bl = b.bit_length()
        for tb in (e * bl, e * bl + 1, e * bl + 2, e * (bl - 1), e * (bl - 1) + 1):
            if tb >= 1:
                ts += [1 << (tb - 1), (1 << tb) - 1]
        for t in ts:
            assert power_vs_threshold(PurePower(b, e), t) is _materialized_order(b, e, t)
            checked += 1
    assert checked > 4000


def test_threshold_refuses_non_integers():
    for t in (Fraction(1, 2), 0, -7, True):
        with pytest.raises(InvalidConfigError):
            power_vs_threshold(PurePower(2, 3), t)


def test_threshold_far_from_power_builds_nothing(monkeypatch):
    def refuse(self):
        raise AssertionError(f"built {self.base}**{self.exp}")

    monkeypatch.setattr(PurePower, "materialize", refuse)
    assert power_vs_threshold(PurePower(6, 65536), 54**2) is Ordering.GREATER
    assert power_vs_threshold(PurePower(3, 2**24), 7) is Ordering.GREATER
    assert power_vs_threshold(PurePower(3, 2**24), 1) is Ordering.GREATER
    assert power_vs_threshold(PurePower(3, 5), 10**100) is Ordering.LESS
    # both edges of the rule: 3**5 < 2**10 and 3**5 >= 2**5
    assert power_vs_threshold(PurePower(3, 5), 1 << 11) is Ordering.LESS
    assert power_vs_threshold(PurePower(3, 5), (1 << 5) - 1) is Ordering.GREATER


def _reference_order(x, y):
    """Materialized ordering, with equality cross-checked through the
    primitive-power decomposition b = m**t."""
    v1, v2 = x.materialize(), y.materialize()
    want = Ordering.LESS if v1 < v2 else Ordering.GREATER if v1 > v2 else Ordering.EQUAL
    (m1, t1), (m2, t2) = primitive_power(x.base), primitive_power(y.base)
    assert (want is Ordering.EQUAL) == (m1 == m2 and t1 * x.exp == t2 * y.exp)
    return want


def test_compare_against_primitive_power_reference(seed=20261018):
    rng = random.Random(seed)
    pairs = [(PurePower(8, 2), PurePower(4, 3)), (PurePower(4, 3), PurePower(8, 2))]
    # (m**s)**(k*t) vs (m**t)**(k*s): equal, whatever the gcd of the exponents
    for m in range(2, 15):
        for s, t in [(1, 2), (2, 3), (3, 2), (1, 7), (3, 4)]:
            if m ** max(s, t) <= 200:
                k = rng.randrange(1, 30)
                pairs.append((PurePower(m**s, k * t), PurePower(m**t, k * s)))
    # s2 = e2/gcd(e1, e2) >= bits(b1): b1 cannot be a perfect s2-th power
    for _ in range(100):
        b1 = rng.randrange(2, 201)
        e2 = rng.randrange(b1.bit_length(), 200) | 1
        pairs.append((PurePower(b1, 2 * e2), PurePower(rng.randrange(2, 201), e2)))
    # shared primitive bases with unequal exponents, and random pairs
    for _ in range(300):
        m = rng.randrange(2, 15)
        pairs.append((PurePower(m ** rng.randrange(1, 3), rng.randrange(1, 120)),
                      PurePower(m ** rng.randrange(1, 3), rng.randrange(1, 120))))
        pairs.append((PurePower(rng.randrange(2, 201), rng.randrange(1, 300)),
                      PurePower(rng.randrange(2, 201), rng.randrange(1, 300))))
    equal = 0
    for x, y in pairs:
        d = compare_trace(x, y)
        assert d.ordering is _reference_order(x, y), (x, y)
        assert d.method == ("common-base" if d.ordering is Ordering.EQUAL else "log-enclosure")
        equal += d.ordering is Ordering.EQUAL
    assert equal >= 20


def _root_64(bits: int) -> int:
    """floor(2**(bits/64)): its 64th power is just under 2**bits."""
    r = 1 << bits
    for _ in range(6):
        r = math.isqrt(r)
    return r


# b**64 just under a power of two, where its 128-bit bracket straddles it
# and b**64 itself is built
_STRADDLING = [_root_64(64001), _root_64(8193), (1 << 5000) - 1, (1 << 200) - 1]


@pytest.mark.parametrize("b", _STRADDLING)
def test_bits_builds_the_power_when_the_bracket_straddles(b):
    lo, hi, _ = pow_bracket(b, 64, 128)
    assert lo.bit_length() != hi.bit_length()
    assert PurePower(b, 64).bits() == (b ** 64).bit_length()


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=4096).flatmap(
           lambda bits: st.integers(min_value=2, max_value=2**bits - 1)),
       st.integers(min_value=0, max_value=64))
def test_bits_matches_the_exact_power(b, e):
    assert PurePower(b, e).bits() == (b ** e).bit_length()


@pytest.mark.parametrize("length", [1, 2, 3, 63, 64, 65, 127, 128, 129, 1000, 4096])
def test_bits_near_powers_of_two(length):
    roots = [_root_64(64 * length + j) for j in (-1, 0, 1)]
    bases = [1 << length, (1 << length) - 1, (1 << length) + 1, *roots, *(r + 1 for r in roots)]
    for b in (b for b in bases if b > 1):  # PurePower refuses base 1
        for e in (1, 2, 63, 64, 65):
            assert PurePower(b, e).bits() == (b ** e).bit_length()
