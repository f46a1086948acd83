import decimal
import math
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacunary import certjson, cli, intmath
from lacunary.errors import ExponentBudgetExceeded, InternalError
from lacunary.intmath import (
    _DIV_LIMIT,
    _LEAF_BITS,
    MATERIALIZE_BITS,
    STR_CUTOVER_BITS,
    check_power,
    decimal_str,
    exact_decimal,
    floor_log10,
    int_divmod,
    int_label,
    introot,
    lowest_dyadic,
    primitive_power,
    root_sci_string,
)


# Degrees past introot's bracket start (_BRACKET_START_K) and roots past 64
# bits, where Newton would stop short from a start below the root
_DEGREES = st.integers(min_value=2, max_value=300)
_ROOTS = st.integers(min_value=2, max_value=2**100)
_WIDE_ROOT, _HIGH_DEGREE = 2**80 + 12345, 200


@given(st.one_of(
    st.tuples(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=12)),
    st.tuples(st.integers(min_value=0, max_value=2**4000),
              st.integers(min_value=1, max_value=10**5)),
    st.builds(lambda r, k, d: (r**k + d, k), _ROOTS, _DEGREES, st.sampled_from((-1, 0, 1)))))
@example((_WIDE_ROOT**_HIGH_DEGREE - 1, _HIGH_DEGREE))
@example((_WIDE_ROOT**_HIGH_DEGREE + 1, _HIGH_DEGREE))
def test_introot_floor_property(nk):
    n, k = nk
    r, exact = introot(n, k)
    assert r**k <= n < (r + 1) ** k
    assert exact == (r**k == n)


@given(st.one_of(st.tuples(st.integers(min_value=2, max_value=10**9),
                           st.integers(min_value=2, max_value=20)),
                 st.tuples(_ROOTS, _DEGREES)))
@example((_WIDE_ROOT, _HIGH_DEGREE))
def test_introot_recovers_constructed_powers(bk):
    b, k = bk
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


@pytest.fixture
def cold_powers():
    """The one table of Decimal powers, emptied before and after."""
    intmath._POWERS.clear()
    yield intmath._POWERS
    intmath._POWERS.clear()


def _power_path(table, b, e):
    """How table.power(b, e) is to get b**e, read from the table as it
    stands: ("hit", 0), ("leaf", 0), ("held", e - h) for h the largest
    exponent of b held with e // 2 <= h < e, or ("halve", None) if none is."""
    if (b, e) in table.values:
        return "hit", 0
    if e <= 1 or e * (b - 1).bit_length() <= _LEAF_BITS:
        return "leaf", 0
    held = [k for c, k in table.values if c == b and e // 2 <= k < e]
    return ("held", e - max(held)) if held else ("halve", None)


def _record_paths(monkeypatch):
    """Make every _PowerTable.power call append (path, d, the paths of the
    power calls it made itself, b) to the returned list, callees first."""
    real = intmath._PowerTable.power
    seen, callers = [], [[]]

    def spy(table, b, e):
        path = _power_path(table, b, e)
        callers[-1].append(path)
        callers.append([])
        r = real(table, b, e)
        seen.append((*path, tuple(callers.pop()), b))
        return r

    monkeypatch.setattr(intmath._PowerTable, "power", spy)
    return seen


def _table_bits(table):
    """The width bound the table keeps in `bits`, summed over `values`."""
    return sum(e * (b - 1).bit_length() for b, e in table.values)


def test_decimal_str_reuses_and_derives_powers_of_two(cold_powers, monkeypatch):
    # far-apart pairs 2**w, 2**(w+d) for d = 1, 1024 and 1025, odd
    # multiples of a leaf power and of table powers, each twice, in a
    # seeded shuffled order; the table is cleared once on the way
    rng = random.Random(20261019)
    odd = rng.getrandbits(40_000) | 1 << 39_999 | 1
    ns = []
    for i, base in enumerate(range(50_000, 170_000, 10_000)):
        ns += [1 << base, 1 << base + (1, 1024, 1025)[i % 3]]
    ns += [odd << z for z in (0, 3, _LEAF_BITS, 70_000, 70_512)]
    ns += [rng.getrandbits(40) << z | 1 << z for z in (60_001, 90_700)]
    ns = ns * 2 + ["clear"]
    rng.shuffle(ns)
    seen = _record_paths(monkeypatch)
    wrong = []
    for n in ns:
        if n == "clear":
            cold_powers.clear()
        elif decimal_str(n) != str(n):
            wrong.append(n.bit_length())
    assert wrong == []
    assert 0 < ns.index("clear") < len(ns) - 1
    assert {b for *_, b in seen} == {2}
    paths = {(path, d) for path, d, _, _ in seen}
    assert {("hit", 0), ("leaf", 0), ("held", 1), ("held", 1024), ("held", 1025),
            ("halve", None)} <= paths
    # a hit and a leaf make no further power call; a held b**h is read as a
    # hit, and exactly one further call gets b**d, d = e - h, which at d <=
    # _LEAF_BITS is itself a hit or a leaf; a cold halve builds b**(e // 2)
    assert {made for path, _, made, _ in seen if path in ("hit", "leaf")} == {()}
    held = [(d, made) for path, d, made, _ in seen if path == "held"]
    assert all(len(made) == 2 and made[0] == ("hit", 0) for _, made in held)
    assert {made[1] for d, made in held if d <= _LEAF_BITS} == {("hit", 0), ("leaf", 0)}
    assert all(len(made) == 2 and made[0][0] != "hit"
               for path, _, made, _ in seen if path == "halve")


def test_decimal_powers_of_other_bases_follow_the_same_rule(cold_powers, monkeypatch):
    # bases 5, 3, a wide odd base and 2 side by side: exact values, and a
    # held exponent is one of the same base only, at any distance d
    wide = (1 << 5000) + 1
    asks = [(5, 20_000), (5, 20_341), (5, 20_342 + 341), (5, 41_000), (3, 20_000),
            (3, 20_512), (3, 20_513 + 512), (wide, 1), (wide, 2), (wide, 3), (2, 20_001),
            (7, 0)]
    seen = _record_paths(monkeypatch)
    for b, e in asks:
        assert intmath.decimal_power(b, e) == b ** e
    assert cold_powers.bits == _table_bits(cold_powers)
    paths = {(b, path, d) for path, d, _, b in seen}
    assert {(5, "held", 341), (5, "held", 342), (3, "halve", None), (3, "held", 512),
            (3, "held", 513), (wide, "leaf", 0), (wide, "held", 1), (2, "halve", None)} <= paths
    # a held entry is read by decimal_power itself
    made = len(seen)
    assert intmath.decimal_power(5, 20_000) == 5 ** 20_000
    assert len(seen) == made


def test_power_table_stays_under_its_bound(cold_powers, monkeypatch):
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", 1 << 17)
    cap = 2 * intmath.MATERIALIZE_BITS
    decimal_str(2**STR_CUTOVER_BITS - 1)
    decimal_str(-(3 << STR_CUTOVER_BITS - 2))
    assert cold_powers.values == {}
    widths = [40_000, 61_000, 83_000, 99_000, 120_000, 41_000, 130_000, cap + 1]
    assert sum(widths) > cap
    cleared, bases = False, set()
    for w in widths:
        before = set(cold_powers.values)
        assert decimal_str(1 << w) == str(1 << w)
        assert decimal_str(5 << w) == str(5 << w)
        # mixed bases: 5**e and 10**e count 3 and 4 bits a step
        assert intmath.decimal_power(5, w // 4) == 5 ** (w // 4)
        assert intmath.decimal_power(10, w // 8) == 10 ** (w // 8)
        cleared = cleared or not before <= set(cold_powers.values)
        bases |= {b for b, _ in cold_powers.values}
        assert cold_powers.bits == _table_bits(cold_powers) <= cap
    assert cleared and (2, cap + 1) not in cold_powers.values
    assert bases == {2, 5, 10}


def test_power_table_is_shared_by_threads(cold_powers):
    ws = [65_533 + 37 * i for i in range(30)] + [104_512, 70_000]
    es = [9_001 + 11 * i for i in range(12)] + [12_000, 20_000]
    results, failures = {}, []

    def work(seed):  # threads 0, 1 and threads 2, 3 share an order
        order = [(2, w) for w in ws] + [(5, e) for e in es]
        random.Random(seed // 2).shuffle(order)
        try:
            for b, e in order:
                results[seed, b, e] = (decimal_str(1 << e) if b == 2
                                       else intmath.decimal_power(b, e))
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(results) == 4 * (len(ws) + len(es))
    assert all(got == str(1 << e) for (_, b, e), got in results.items() if b == 2)
    assert all(got == 5 ** e for (_, b, e), got in results.items() if b == 5)
    assert cold_powers.bits == _table_bits(cold_powers)


def _clearing_mid_run(monkeypatch):
    """Make every third _PowerTable.power call empty the table first."""
    real = intmath._PowerTable.power
    calls = []

    def clearing(table, b, e):
        calls.append((b, e))
        if len(calls) % 3 == 0:
            table.clear()
        return real(table, b, e)

    monkeypatch.setattr(intmath._PowerTable, "power", clearing)
    return calls


@pytest.mark.parametrize("argv", [
    ("witness",),
    ("digits", "--digits", "3000", "--op", "sum"),
    ("digits", "--digits", "3000", "--op", "quotient", "--g1", "10", "--g2", "6"),
    ("digits", "--digits", "800", "--op", "product", "--g1", "20", "--g2", "15"),
    ("measure", "--d", "400"),
], ids=" ".join)
def test_output_bytes_do_not_depend_on_the_table(cold_powers, capsys, monkeypatch, argv):
    # cold, warm, and with the table emptied again and again mid-run
    assert cli.main(list(argv)) == 0
    cold = capsys.readouterr()
    assert cold_powers.values
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr() == cold
    cold_powers.clear()
    calls = _clearing_mid_run(monkeypatch)
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr() == cold
    assert len(calls) >= 3


def test_exact_decimal_is_unbounded_and_traps_rounding():
    with exact_decimal():
        ctx = decimal.getcontext()
        assert ctx.prec == decimal.MAX_PREC
        assert ctx.traps[decimal.Inexact]
        assert str(decimal.Decimal(3) ** 100) == str(3 ** 100)


def test_exact_decimal_restores_the_callers_context():
    with decimal.localcontext(decimal.Context(prec=7)) as mine:
        with exact_decimal():
            pass
        assert decimal.getcontext() is mine
        with pytest.raises(InternalError, match="^decimal arithmetic signalled Inexact; "
                                                "only exact results may print$"):
            with exact_decimal():
                decimal.Decimal("0.5").to_integral_exact()
        assert decimal.getcontext() is mine
        with exact_decimal():
            outer = decimal.getcontext()
            with exact_decimal():
                assert decimal.getcontext() is not outer
            assert decimal.getcontext() is outer
        assert decimal.getcontext() is mine
        assert mine.prec == 7


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


@given(st.integers(min_value=0, max_value=1 << 200), st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=300))
@example(0, 0, 5)
@example(1, 7, 0)
@example(3, 4, 9)  # more trailing zero bits than k
def test_lowest_dyadic_is_the_reduced_fraction(odd, z, k):
    n = odd << z
    f = Fraction(n, 2**k)
    m, j = lowest_dyadic(n, k)
    assert (m, j) == (f.numerator, f.denominator.bit_length() - 1)
    assert certjson.dyadic(n, k) == certjson.rat(f)


# The margin as it was computed from a Fraction, kept as the reference
# that the dyadic floor_log10 and root_sci_string must reproduce.
def _reference_floor_log10(x: Fraction) -> int:
    p, q = x.numerator, x.denominator
    d = p.bit_length() - q.bit_length()
    lo, hi = intmath._LOG10_2
    e = (d - 1) * (lo if d >= 1 else hi) // intmath._LOG10_2_DEN
    top = -(-(d + 1) * (hi if d >= -1 else lo) // intmath._LOG10_2_DEN) - 1
    while e < top and (q * 10 ** (e + 1) <= p if e + 1 >= 0 else q <= p * 10 ** -(e + 1)):
        e += 1
    return e


def _reference_root_sci_string(x: Fraction, v: int, sig: int) -> str:
    if x == 0:
        return "0"
    e = _reference_floor_log10(x) // v
    p, q = x.numerator, x.denominator
    shift = sig - 1 - e
    if shift >= 0:
        scaled = p * 10 ** (v * shift) // q
    else:
        scaled = p // (q * 10 ** (v * (-shift)))
    s = str(introot(scaled, v)[0])
    return f"{s[0] + ('.' + s[1:] if sig > 1 else '')}e{e:+d}"


def _wide_dyadic(b: int, k: int, seed: int) -> tuple[int, int]:
    return random.Random(seed).getrandbits(b) | 1 << (b - 1), k


_WIDE_BITS = st.integers(min_value=1, max_value=110_000)


@settings(deadline=None)
@given(st.one_of(
    st.tuples(st.integers(min_value=1, max_value=10**30), st.integers(min_value=0, max_value=200)),
    # n of up to 110,000 bits on a grid of up to 2**-110,000
    st.builds(_wide_dyadic, _WIDE_BITS, st.integers(min_value=0, max_value=110_000),
              st.integers(min_value=0, max_value=2**32)),
    # 10**e = 5**e << (k + e) and its neighbours, up to 116,000 bits
    st.builds(lambda e, k, s: ((5 ** e << k + e) + s, k),
              st.integers(min_value=0, max_value=35_000),
              st.integers(min_value=1, max_value=1_000), st.sampled_from((-1, 0, 1))),
    # floor(10**-m * 2**k) and the next integer
    st.builds(lambda m, k, s: ((1 << k) // 10 ** m + s, k),
              st.integers(min_value=1, max_value=300),
              st.integers(min_value=1_000, max_value=2_000), st.sampled_from((0, 1))),
))
def test_floor_log10_brackets(nk):
    n, k = nk
    with mock.patch.object(intmath, "_floor_times_pow10",
                           wraps=intmath._floor_times_pow10) as compared:
        e = floor_log10(n, k)
    assert compared.call_count <= 1
    assert Fraction(10) ** e <= Fraction(n, 1 << k) < Fraction(10) ** (e + 1)


def test_floor_log10_rejects_non_positive_and_negative_shift():
    for n, k in ((0, 0), (-1, 3), (1, -1)):
        with pytest.raises(ValueError):
            floor_log10(n, k)


def test_floor_times_pow10_gates_its_exact_power(monkeypatch):
    # 4**e <= 5**e <= 8**e: a valid bracket too loose to decide any floor,
    # so that 5**m is built, behind its gate
    monkeypatch.setattr(intmath, "pow_bracket", lambda b, e, w: (1, 1 << e, 2 * e))
    with mock.patch.object(intmath, "gated_pow", wraps=intmath.gated_pow) as built:
        for n, k, s in ((3, 0, 1), (12345, 40, 25), (7 << 90, 90, 300), (1, 3000, 1000),
                        ((1 << 200) + 1, 100, -30), (10**50 + 1, 7, -40)):
            want = math.floor(Fraction(n, 1 << k) * Fraction(10) ** s)
            assert intmath._floor_times_pow10(n, k, s) == want, (n, k, s)
            assert built.call_args.args == (5, abs(s))
        # just over the cap, refused before it is built
        m = MATERIALIZE_BITS // 3 + 1
        with pytest.raises(ExponentBudgetExceeded, match=r"5\*\*"):
            intmath._floor_times_pow10(1, 3 * m, m)


def test_sci_string_examples():
    # the plain scientific form is root_sci_string with v = 1
    assert root_sci_string(2, 0, 1, 4) == "2.000e+0"
    assert root_sci_string(0, 0, 1, 5) == "0"
    # truncation toward zero, never rounding up: 1 - 2**-40
    assert root_sci_string((1 << 40) - 1, 40, 1, 6) == "9.99999e-1"
    with pytest.raises(ValueError):
        root_sci_string(-1, 3, 1, 3)


def test_root_sci_string_examples():
    assert root_sci_string(2, 0, 2, 6) == "1.41421e+0"
    assert root_sci_string(1, 2, 2, 5) == "5.0000e-1"
    assert root_sci_string(8, 0, 3, 4) == "2.000e+0"


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=5),
)
def test_root_sci_string_matches_float_oracle(n, k, v):
    s = root_sci_string(n, k, v, 10)
    true = math.pow(n / 2**k, 1.0 / v)
    assert abs(float(s) - true) <= 1e-8 * true


def test_fraction_reference_examples():
    # the non-dyadic examples pin the reference itself
    assert _reference_root_sci_string(Fraction(1, 3), 1, 6) == "3.33333e-1"
    assert _reference_root_sci_string(Fraction(1, 1000), 1, 3) == "1.00e-3"
    assert _reference_root_sci_string(Fraction(999999999, 10**9), 1, 6) == "9.99999e-1"
    # ... and grid points just below them print alike
    for x, v, sig in ((Fraction(1, 3), 1, 6), (Fraction(999999999, 10**9), 1, 6)):
        n = (x.numerator << 200) // x.denominator
        assert root_sci_string(n, 200, v, sig) == _reference_root_sci_string(x, v, sig)
    assert root_sci_string((1 << 200) // 1000 + 1, 200, 1, 3) == "1.00e-3"


def _margin_grid():
    """Exact decades 5**e << (k+e) and their neighbours, the tie 1 << k,
    and dyadic values whose scale exponent s = v*(sig-1-e) falls below,
    at and above k and below 0, for v in 1..4 and sig in 1..9."""
    cases = []
    for k in (0, 1, 7, 40, 100):
        for e in (0, 1, 5, 30):
            cases += [((5 ** e << k + e) + d, k) for d in (-1, 0, 1)]
        cases += [(1 << k, k), ((1 << k) - 1, k), ((1 << k) + 1, k)]
        cases += [(1, k), (3, k), ((1 << 3 * k) // 7, k), ((1 << k) // 1000 + 1, k)]
    return [(n, k, v, sig) for n, k in cases if n > 0 for v in range(1, 5) for sig in range(1, 10)]


def test_margin_grid_matches_the_fraction_reference():
    seen = set()
    for n, k, v, sig in _margin_grid():
        x = Fraction(n, 1 << k)
        assert floor_log10(n, k) == _reference_floor_log10(x)
        assert root_sci_string(n, k, v, sig) == _reference_root_sci_string(x, v, sig)
        s = v * (sig - 1 - _reference_floor_log10(x) // v)
        seen.add("negative" if s < 0 else "below" if s < k else "at" if s == k else "above")
    assert seen == {"negative", "below", "at", "above"}


@settings(deadline=None, max_examples=200)
@given(st.builds(_wide_dyadic, st.integers(min_value=1, max_value=100_000),
                 st.integers(min_value=0, max_value=100_000),
                 st.integers(min_value=0, max_value=2**32)),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=9))
def test_margin_matches_the_fraction_reference(nk, v, sig):
    n, k = nk
    x = Fraction(n, 1 << k)
    assert floor_log10(n, k) == _reference_floor_log10(x)
    assert root_sci_string(n, k, v, sig) == _reference_root_sci_string(x, v, sig)


@given(st.one_of(st.integers(min_value=2, max_value=12),
                 st.integers(min_value=0, max_value=2**63 - 1).map(lambda x: 2 * x + 1)),
       st.integers(min_value=0, max_value=50_000), st.integers(min_value=8, max_value=200))
def test_pow_bracket_holds_and_is_narrow(b, m, w):
    # keep b**m under about 150,000 bits, near 5**50000, so that building
    # the exact power stays well inside the example deadline
    m = m * 3 // b.bit_length()
    w += m.bit_length()
    lo, hi, t = intmath.pow_bracket(b, m, w)
    assert lo << t <= b ** m <= hi << t
    assert hi <= 1 << w or t == 0  # rounding hi up can carry into bit w
    assert (hi - lo) * 2 ** w <= 9 * m * lo


def _exact_floor_times_pow10(n, k, s):
    return math.floor(Fraction(n, 1 << k) * Fraction(10) ** s)


# n * 2**-k * 10**s within 2**-900 of an integer, above or below it, where
# the bracket of 5**|s| cannot decide and 5**|s| is built
_NEAR_INTEGERS = [((1 << 2000) // 10 ** 300 + 1, 2000, 300),
                  ((1 << 2000) // 10 ** 300, 2000, 300),
                  ((5 ** 300 << 2300) - 1, 2000, -300),
                  ((5 ** 300 << 2300) + 1, 2000, -300)]


@pytest.mark.parametrize("n, k, s", _NEAR_INTEGERS)
def test_floor_times_pow10_builds_the_power_near_an_integer(n, k, s):
    w = max(0, n.bit_length() - k + s * 3322 // 1000) + 2 * abs(s).bit_length() + 64
    lo, hi, t = intmath.pow_bracket(5, abs(s), w)
    # the floors with lo * 2**t and hi * 2**t in place of 5**|s| differ
    x = Fraction(n, 1 << k) * Fraction(2) ** s
    ends = {math.floor(x * (p << t) if s >= 0 else x / (p << t)) for p in (lo, hi)}
    assert len(ends) == 2
    assert intmath._floor_times_pow10(n, k, s) == _exact_floor_times_pow10(n, k, s)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=0, max_value=1 << 3000), st.integers(min_value=0, max_value=3000),
       st.integers(min_value=-1000, max_value=1000))
def test_floor_times_pow10_matches_the_exact_product(n, k, s):
    assert intmath._floor_times_pow10(n, k, s) == _exact_floor_times_pow10(n, k, s)


def _sparse_dyadic_divisor(j: int, exps: list, c: int) -> int:
    """sum of 2**(j - a) over a in exps, plus c: a base-2 enclosure end."""
    return sum(1 << j - a for a in exps) + c


_B = (1 << _DIV_LIMIT + 2) + 3 ** 1_500  # n = _DIV_LIMIT + 3 bits, odd
_DIVMOD_CASES = [
    # quotient and divisor at _DIV_LIMIT +- 1 bits
    *(((1 << qw + dw) - 1, (1 << dw - 1) + 1) for qw in (_DIV_LIMIT - 1, _DIV_LIMIT,
                                                        _DIV_LIMIT + 1, _DIV_LIMIT + 2)
      for dw in (_DIV_LIMIT - 1, _DIV_LIMIT, _DIV_LIMIT + 1, _DIV_LIMIT + 2)),
    # far above the limit, with odd divisor widths (the pad path)
    (7 ** 60_000, 3 ** 19_999), (1 << 91_420 | 12345, 3 ** 28_843 | 1),
    ((1 << 200_001) - 1, (1 << 40_001) - 3),
    # a = b * 2**n - 1 reaches the a12 >> n == b1 branch
    ((3 ** 20_001 << 31_701) - 1, 3 ** 20_001),
    ((((1 << 12_345) - 1) << 12_345) - 1, (1 << 12_345) - 1),
    # a < b, a = 0 and exact multiples
    (3 ** 9_000, 3 ** 9_001), (0, 3 ** 9_001), (3 ** 9_001 * 5 ** 9_000, 3 ** 9_001),
    (3 ** 9_001 << 50_000, 3 ** 9_001),
    # a split dividend: a = b * 2**(k*n) + (-1, 0, 1) for an odd and an even
    # n over the limit; at an even n, _div2n1n gets b * 2**n wrong
    *(((b << k * b.bit_length()) + i, b) for b in (_B, _B << 1 | 1) for k in (1, 2, 3)
      for i in (-1, 0, 1)),
    # sparse divisors shaped like base-2 enclosure ends
    (1 << 2 * 131_072, _sparse_dyadic_divisor(131_072, [2, 4, 16, 256, 65_536], 6)),
    (1 << 91_420, _sparse_dyadic_divisor(65_600, [2, 4, 16, 256, 65_536], 1)),
]


@pytest.mark.parametrize("a, b", _DIVMOD_CASES, ids=[
    f"{a.bit_length()}-by-{b.bit_length()}-bit" for a, b in _DIVMOD_CASES])
def test_int_divmod_examples(a, b):
    for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        assert int_divmod(sa * a, sb * b) == divmod(sa * a, sb * b)


def _operand(width: int, seed: int, sparse: bool) -> int:
    rng = random.Random(seed)
    if sparse:
        return _sparse_dyadic_divisor(width, rng.sample(range(1, width + 1), min(5, width)),
                                      rng.randint(1, 1 << 8))
    return rng.getrandbits(width) | 1 << (width - 1)


_WIDTHS = st.one_of(st.integers(1, 3 * _DIV_LIMIT),
                    st.integers(_DIV_LIMIT - 2, _DIV_LIMIT + 2),
                    st.integers(3 * _DIV_LIMIT, 40 * _DIV_LIMIT))


@settings(deadline=None, max_examples=200)
@given(st.builds(_operand, _WIDTHS, st.integers(0, 2**32), st.booleans()),
       st.builds(_operand, _WIDTHS, st.integers(0, 2**32), st.booleans()),
       st.integers(0, 40 * _DIV_LIMIT), st.sampled_from((1, -1)), st.sampled_from((1, -1)))
def test_int_divmod_matches_divmod(a, b, shift, sa, sb):
    a = sa * (a << shift)
    b = sb * b
    assert int_divmod(a, b) == divmod(a, b)


def test_int_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        int_divmod(1 << 20_000, 0)
