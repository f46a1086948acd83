from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacunary import cli, intmath, series
from lacunary.errors import (
    ExponentBudgetExceeded,
    InvalidConfigError,
    NonIntegralExponent,
    PrecisionUnattainable,
)
from lacunary.interval import RationalInterval
from lacunary.intmath import _POWERS, exact_decimal, floor_log10, gated_pow
from lacunary.schedule import PowerSchedule
from lacunary.series import (
    BINARY,
    DECIMAL,
    Convergent,
    Enclosure,
    LacunarySeries,
    certified_digits,
    deepen,
    deepest_feasible,
    digits_from_interval,
    exponent_after,
    format_fixed,
)


def make_series(base, a1=2, beta=Fraction(1), budget_bits=20):
    return LacunarySeries(base, PowerSchedule(a1, beta, budget_bits=budget_bits))


def _decimal_log_bounds_reference(g):
    return floor_log10(g ** 64, 0), 64, floor_log10(g, 0) + 1


def test_decimal_log_bounds_at_powers_of_ten():
    # the decades' edges, where an adjusted exponent off by one would show
    for t in range(1, 301):
        for g in (10 ** t - 1, 10 ** t, 10 ** t + 1):
            assert DECIMAL.log_bounds(g) == _decimal_log_bounds_reference(g)


@given(st.integers(min_value=2, max_value=1 << 4096))
@example(2)
@example(99)
def test_decimal_log_bounds_match_floor_log10(g):
    assert DECIMAL.log_bounds(g) == _decimal_log_bounds_reference(g)


SPLIT_BASES = (2, 4, 5, 8, 10, 20, 25, 40, 50, 6, 12, 15, 30)


@settings(deadline=None, max_examples=300)
@given(g=st.one_of(st.sampled_from(SPLIT_BASES), st.integers(2, 10 ** 6)),
       a=st.integers(1, 300), shift=st.integers(-400, 400))
@example(g=2, a=64, shift=-1)
@example(g=40, a=3, shift=0)  # j = c*a = 9 exactly
@example(g=50, a=5, shift=-1)
def test_decimal_terms_split_off_twos_and_fives(g, a, shift):
    # j on both sides of (z + w)*a and of max(z, w)*a, where the cut of
    # 5**(d*a) or 2**(d*a) turns from a shift left to a cut right; the
    # int oracle floor(10**j / g**a), with the table cold and then warm
    p, d, c, o = DECIMAL.split(g)
    assert g * p ** d == 10 ** c * o and o % 2 and o % 5 and p in (2, 5)
    z, w = (g & -g).bit_length() - 1, 0
    while g % 5 ** (w + 1) == 0:
        w += 1
    for j in {max(0, (z + w) * a + shift), max(0, c * a + shift)}:
        want = 10 ** j // g ** a
        _POWERS.clear()
        with exact_decimal():
            cold = DECIMAL.inverse_power(g, a, j)
            warm = DECIMAL.inverse_power(g, a, j)
        assert cold == want and warm == want


def test_decimal_term_split_is_gated_like_the_division(monkeypatch):
    # with a 1,024-bit cap, the split and the division 10**j // g**a give
    # the same term or the same refusal; where only the split's own
    # 5**(d*a) or 2**(d*a) is over the cap the division is taken; and no
    # power over the cap is built on either route
    cap = 1 << 10
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", cap)
    real = intmath._PowerTable.power
    built = []

    def spy(table, b, e):
        built.append((b, e))
        return real(table, b, e)

    monkeypatch.setattr(intmath._PowerTable, "power", spy)
    _POWERS.clear()

    def division(g, a, j):
        return Decimal(1).scaleb(j) // DECIMAL.power(g, a)

    def outcome(route, g, a, j):
        try:
            with exact_decimal():
                return route(g, a, j)
        except ExponentBudgetExceeded as exc:
            return type(exc), str(exc)

    routes = {"split": 0, "division": 0, "refused": 0}
    for g in SPLIT_BASES + (3, 7, 999, 1 << 40, 5 ** 30, 2 ** 9 * 5 ** 4 * 7):
        p, d, c, o = DECIMAL.split(g)
        for a in (1, 2, 100, 200, 255, 256, 300, 341, 342, 400, 511, 512, 513, 1024, 1025):
            for j in (0, 1, a // 2, a, 3 * a, 4 * a):
                got = outcome(DECIMAL.inverse_power, g, a, j)
                assert got == outcome(division, g, a, j), (g, a, j)
                if a * g.bit_length() > cap:
                    routes["refused"] += 1
                else:
                    routes["division" if d * a * p.bit_length() > cap else "split"] += 1
    _POWERS.clear()
    assert min(routes.values()) > 0
    assert built and max(e * b.bit_length() for b, e in built) <= cap


@settings(deadline=None, max_examples=300)
@given(g=st.one_of(st.integers(1, 10 ** 6).map(lambda o: 2 * o + 1),
                   st.integers(1, 20).map(lambda z: 1 << z),
                   st.tuples(st.integers(1, 10 ** 4), st.integers(1, 12))
                   .map(lambda oz: (2 * oz[0] + 1) << oz[1])),
       a=st.integers(1, 300), shift=st.integers(-4, 4))
@example(g=3, a=3, shift=0)  # 2**4 < 27 < 2**5 = 2**j: the floor is 1
@example(g=12, a=5, shift=0)
def test_binary_terms_match_the_integer_floor(g, a, shift):
    # 2**j a few bits either side of g**a, for odd g, powers of two and
    # even composites: a term that floors to 0 is 0 without o**a
    z = (g & -g).bit_length() - 1
    j = max(z * a, (g ** a).bit_length() + shift)
    assert BINARY.inverse_power(g, a, j) == (1 << j) // g ** a


def test_binary_term_that_floors_to_0_is_still_gated(monkeypatch):
    # over the cap, a term is refused as before, whatever its floor
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", 1 << 10)
    for g, a, want in [(3, 1000, "3**1000 would need about 2000 bits"),
                       (12, 300, "12**300 would need about 1200 bits")]:
        with pytest.raises(ExponentBudgetExceeded) as got:
            BINARY.inverse_power(g, a, 64)
        assert str(got.value) == f"{want}, over the 1024-bit materialization cap"


def test_witness_divides_for_no_term_that_floors_to_0(monkeypatch, capsys):
    real = series.int_divmod
    zeros = []

    def spy(x, y):
        q, r = real(x, y)
        if q == 0:
            zeros.append((x.bit_length(), y.bit_length()))
        return q, r

    monkeypatch.setattr(series, "int_divmod", spy)
    assert cli.main(["witness", "--g1", "3", "--g2", "2", "--op", "product"]) == 0
    capsys.readouterr()
    assert zeros == []


def test_convergent_validation():
    c = Convergent(2, 10, 81)
    assert c.fraction == Fraction(10, 81)
    with pytest.raises(InvalidConfigError):
        Convergent(0, 1, 2)
    with pytest.raises(InvalidConfigError):
        Convergent(1, 2, 4)
    with pytest.raises(InvalidConfigError):
        Convergent(1, 1, 0)


def test_series_validation():
    s = make_series(2)
    with pytest.raises(InvalidConfigError):
        LacunarySeries(1, s.schedule)
    with pytest.raises(InvalidConfigError):
        s.partial_sum(0)
    with pytest.raises(InvalidConfigError):
        s.partial_sum("x")


def test_partial_sum_known_values():
    assert make_series(2).partial_sum(3) == Convergent(3, 20481, 65536)
    assert make_series(3).partial_sum(2) == Convergent(2, 10, 81)
    assert make_series(3).partial_sum(1) == Convergent(1, 1, 9)


def test_partial_sum_matches_direct_summation():
    for g in (2, 3, 5, 7):
        s = make_series(g)
        exps = [s.schedule.exponent(k) for k in range(1, 5)]
        for n in range(1, 5):
            conv = s.partial_sum(n)
            direct = sum(Fraction(1, g**a) for a in exps[:n])
            assert conv.fraction == direct
            # reduced denominator law: q = g**a_n exactly, p = 1 mod g
            assert conv.q == g ** exps[n - 1]
            assert conv.p % g == 1


def test_tail_sandwich_and_rigorous_bound():
    s2 = make_series(2)
    assert s2.tail_sandwich(1) == (Fraction(1, 16), Fraction(1, 8))
    s3 = make_series(3)
    lo, hi = s3.tail_sandwich(1)
    assert lo == Fraction(1, 81) and hi == Fraction(2, 81)


def test_sandwich_brackets_true_tail():
    for g in (2, 3, 5):
        s = make_series(g)
        for n in (1, 2):
            sn = s.partial_sum(n).fraction
            lower, upper = s.tail_sandwich(n)
            iv = s.enclose(n + 2)
            # theta >= iv.lo > sn + lower and theta <= iv.hi < sn + upper
            assert iv.lo - sn > lower
            assert iv.hi - sn < upper
            # the certified bound g/(g-1) * g**(-a_{n+1})
            rig = Fraction(g, (g - 1) * g ** s.schedule.exponent(n + 1))
            assert iv.hi - sn <= rig
            if g == 2:
                assert rig == upper  # factor g/(g-1) degenerates to 2
            else:
                assert rig < upper


def test_enclosures_nest_and_contain_deeper_sums():
    s = make_series(3)
    ivs = [s.enclose(n) for n in range(1, 5)]
    for shallow, deep in zip(ivs, ivs[1:]):
        assert shallow.lo <= deep.lo and deep.hi <= shallow.hi
        assert deep.width < shallow.width
    for n in range(1, 4):
        for m in range(n + 1, 5):
            assert s.partial_sum(m).fraction in ivs[n - 1]


def test_decimal_digits_known_values():
    assert make_series(2).decimal_digits(10) == "0.3125152587"
    assert make_series(3).decimal_digits(6) == "0.123456"
    assert make_series(3).decimal_digits(7) == "0.1234568"


def test_decimal_digits_prefix_property():
    s = make_series(2)
    strings = [s.decimal_digits(d) for d in range(1, 13)]
    for a, b in zip(strings, strings[1:]):
        assert b.startswith(a)


def test_decimal_digits_against_mpmath():
    # 30 places of the base-2 value, summed independently in binary
    # floating point with exact dyadic terms
    with mpmath.workprec(600):
        v = sum(mpmath.mpf(2) ** -a for a in (2, 4, 16, 256))
        expected = int(mpmath.floor(v * 10**30))
    got = make_series(2).decimal_digits(30)
    assert got == format_fixed(expected, 30)


def test_decimal_digits_errors():
    with pytest.raises(InvalidConfigError):
        make_series(2).decimal_digits(0)
    tight = make_series(2, budget_bits=4)
    with pytest.raises(PrecisionUnattainable):
        tight.decimal_digits(30)
    assert tight.decimal_digits(6) == "0.312515"


def test_digits_from_interval():
    iv = RationalInterval(Fraction(19, 100), Fraction(199, 1000))
    assert digits_from_interval(iv, 2) == "0.19"
    assert digits_from_interval(iv, 3) is None  # 0.190 vs 0.199 disagree
    neg = RationalInterval(Fraction(-18906, 10**5), Fraction(-18904, 10**5))
    assert digits_from_interval(neg, 2) == "-0.18"
    assert digits_from_interval(RationalInterval.point(Fraction(1, 4)), 3) == "0.250"
    with pytest.raises(InvalidConfigError):
        digits_from_interval(iv, 0)


def _narrowest(lo_den, k, shift):
    # hi - lo = 1/(lo.den*hi.den), the least width these denominators allow
    hi_den = k * lo_den + 1
    b = pow(lo_den, -1, hi_den)
    return RationalInterval(shift + Fraction((b * lo_den - 1) // hi_den, lo_den),
                            shift + Fraction(b, hi_den))


@given(st.one_of(
           st.builds(_narrowest, st.integers(2, 2**40), st.integers(1, 2**20),
                     st.integers(-2, 2)),
           st.builds(lambda lo, width: RationalInterval(lo, lo + width),
                     st.fractions(-2, 2, max_denominator=10**6),
                     st.fractions(0, Fraction(1, 100), max_denominator=10**6))),
       st.integers(min_value=1, max_value=30))
def test_digits_from_interval_matches_direct_truncation(iv, digits):
    # the bit-length refusal may only fire where the endpoints disagree
    t_lo, t_hi = int(iv.lo * 10**digits), int(iv.hi * 10**digits)
    expected = format_fixed(t_lo, digits) if t_lo == t_hi else None
    assert digits_from_interval(iv, digits) == expected


def test_format_fixed():
    assert format_fixed(-5, 3) == "-0.005"
    assert format_fixed(12345, 2) == "123.45"
    assert format_fixed(0, 4) == "0.0000"


def test_materialization_cap_blocks_wide_powers():
    s = make_series(2, budget_bits=33)
    with pytest.raises(ExponentBudgetExceeded):
        s.partial_sum(6)  # a_6 = 2**32 is beyond the bit cap


def test_power_refusal_text_is_pinned():
    # certificates and stderr quote this text; it must not drift
    with pytest.raises(ExponentBudgetExceeded) as info:
        gated_pow(3, (1 << 24) + 1)
    assert str(info.value) == ("3**16777217 would need about 33554434 bits, over the "
                               "33554432-bit materialization cap")


def test_rigorous_tail_upper_falls_back_to_doubled_exponent():
    # The 2*a_n fallback lives in the dyadic enclosure and builds no power.
    # At 20 bits a_6 is over the exponent budget: the tail past a_5 = 65536
    # is bounded from 2*a_5 = 131072, the enclosure stops narrowing there
    # (j = 131072*bits(2) + 64) and reports the index the schedule refused.
    s = make_series(2, budget_bits=20)
    lo, hi, j, terms, end = s.on_grid(1 << 20)
    assert end == 6 and terms == 5
    with pytest.raises(ExponentBudgetExceeded):
        s.schedule.exponent(end)
    assert j == 2 * 131072 + 64 and hi - lo == 5 + (1 << (j - 131071))
    # At 33 bits a_6 = 2**32 is in the budget: its bit length bounds the
    # tail at any precision, and 2**(2**32) is never built.
    lo, hi, j, terms, end = make_series(2, budget_bits=33).on_grid(1 << 20)
    assert end is None and (j, terms, hi - lo) == (1 << 20, 5, 6)


def test_deepen_doubles_to_the_cap_and_stops_at_the_schedule_end():
    def enclose_ending_at(end):
        return lambda k: Enclosure(0, 1, k, 1, end)

    sched = PowerSchedule(16, Fraction(1, 2))  # a_4 is refused: not an integer
    ks = [got[2] for got in deepen(enclose_ending_at(None), 1 << 20, sched)]
    assert ks == [1 << 20, 1 << 21, 1 << 22, 1 << 23, 1 << 24, 1 << 25]
    over_budget = PowerSchedule(2, Fraction(1), budget_bits=20)  # a_6 is refused
    assert len(list(deepen(enclose_ending_at(6), 64, over_budget))) == 1
    with pytest.raises(NonIntegralExponent, match=r"^a_4 = a_3\*\*\(3/2\) is not an integer"):
        list(deepen(enclose_ending_at(4), 64, sched))


def test_enclosures_are_built_once_per_depth():
    # enclose(3) is the dyadic enclosure at the precision of the exact
    # depth-3 tail, 3**-256: a_4*(bits(3)-1) - 3 = 253 bits, memoized by k
    s = make_series(3)
    assert s.depth_bits(3) == 253
    assert s.enclose(3) == s.enclose(3)
    assert list(s._on_grid) == [(2, 253)] and s.on_grid(253) is s.on_grid(253)


def test_partial_sums_are_built_once_per_index():
    s = make_series(3)
    assert s.partial_sum(3) is s.partial_sum(3)
    assert list(s._partial) == [3]
    with pytest.raises(InvalidConfigError):
        s.partial_sum(0)


# Schedules for the dyadic property tests: a1 in {2, 3} with beta 1 and 2,
# and beta = 1/2 from square a1 (a_3 is not an integer after a1 = 4, a_4
# not after a1 = 16), so enclosures end at the schedule as well.
DYADIC_SCHEDULES = [(a1, Fraction(beta)) for a1 in (2, 3) for beta in (1, 2)] + [
    (4, Fraction(1, 2)), (16, Fraction(1, 2))]
DYADIC_PRECISIONS = (8, 9, 10, 31, 64, 65, 66, 200, 254, 255, 1023, 4096, 20000, 65533,
                     65534, 70000)


@pytest.mark.parametrize("base", range(2, 13))
def test_dyadic_enclosure_contains_the_exact_interval(base):
    # [lo, hi] * 2**-j contains [S_M, S_M + g/(g-1) * g**-e] for the M terms
    # it sums and e = a_{M+1} (2*a_M past the budget), checked on cleared
    # integers.  With the tail under a quarter unit its width is exactly
    # (M + 1) * 2**-k: each floored term loses under one unit, plus one
    # for the tail (the constant c = 1 of the docstring).
    b = base.bit_length() - 1
    for a1, beta in DYADIC_SCHEDULES:
        s = make_series(base, a1, beta)
        for k in DYADIC_PRECISIONS:
            lo, hi, j, terms, end = s.on_grid(k)
            exps = [s.schedule.exponent(m) for m in range(1, terms + 1)]
            try:
                e = s.schedule.exponent(terms + 1)
            except ExponentBudgetExceeded:
                e = 2 * exps[-1]
            conv = s.partial_sum(terms)
            step = (base - 1) * base ** e
            assert lo * conv.q <= conv.p << j
            assert hi * conv.q * step >= (conv.p * step + base * conv.q) << j
            assert all(a * b <= k + 2 for a in exps[1:])
            if end is None:
                assert j == k and e * b > k + 2 and hi - lo == terms + 1
            else:
                assert j <= k and e * b <= k + 2
                assert hi - lo == terms - (-(base << j) // step)


@pytest.mark.parametrize("base", range(2, 13))
def test_dyadic_ends_are_the_full_width_quotients(base):
    # each term divides out base = odd * 2**z as a shift and a division by
    # odd**a; the ends are the integers that dividing by base**a itself
    # gives, also at a rounded-up tail where z*e passes j (a power-of-two
    # base at the rule's edge, e*b = k+1 or k+2)
    b = base.bit_length() - 1
    z = (base & -base).bit_length() - 1
    shift_past_j = False
    for budget, e_end in ((10, 512), (20, 131072)):  # e_end = 2*a_M past the budget
        s = make_series(base, budget_bits=budget)
        for k in DYADIC_PRECISIONS + (e_end * b - 2, e_end * b - 1):
            lo, hi, j, terms, end = s.on_grid(k)
            exps = [s.schedule.exponent(m) for m in range(1, terms + 1)]
            assert lo == sum((1 << j) // base ** a for a in exps if a * b <= j)
            tail = 1
            if end is not None:
                e = exponent_after(s.schedule, terms)
                tail = -(-(base << j) // ((base - 1) * base ** e))
                shift_past_j |= z * e > j
            assert hi - lo == terms + tail
    assert shift_past_j == (base & (base - 1) == 0)


def test_dyadic_size_gate_judges_the_whole_base():
    # 3**(2**24) is under the cap but 6**(2**24) is not: the term is refused
    # as 6**a before its odd part 3**a is built
    s = LacunarySeries(6, PowerSchedule(1 << 24, Fraction(1), budget_bits=25))
    with pytest.raises(ExponentBudgetExceeded) as info:
        s.on_grid(1 << 25)
    assert str(info.value) == ("6**16777216 would need about 50331648 bits, over the "
                               "33554432-bit materialization cap")


@pytest.mark.parametrize("base", (2, 3, 7))
def test_dyadic_enclosure_sums_every_term_inside_the_rule(base):
    # exponents right at the rule's edge a*(bits(g)-1) = k+2 are summed;
    # one past it they are left to the tail
    b = base.bit_length() - 1
    s = make_series(base)
    for a in (16, 256):
        assert s.on_grid(a * b - 2)[3] == s.on_grid(a * b - 3)[3] + 1


@settings(deadline=None, max_examples=200)
@given(lo=st.integers(-(10 ** 1200), 10 ** 1200), width=st.integers(1, 1 << 8),
       j=st.integers(1, 1200), digits=st.integers(1, 1300))
@example(lo=-3, width=5, j=4, digits=3)  # ends across 0, both truncating to 0
@example(lo=-10 ** 6, width=1, j=3, digits=1)  # an end on a multiple of 10**-digits
def test_certified_digits_truncate_like_fractions(lo, width, j, digits):
    # one fixed enclosure [lo, lo + width] * 10**-j on the decimal grid,
    # either sign: its digits are those of both ends' exact toward-zero
    # truncation, or it is refused
    ends = [int(Fraction(x, 10 ** j) * 10 ** digits) for x in (lo, lo + width)]
    got = lambda k: Enclosure(Decimal(lo), Decimal(lo + width), j, 1, None)  # noqa: E731
    if ends[0] == ends[1]:
        assert certified_digits(got, digits, None) == format_fixed(ends[0], digits)
    else:
        with pytest.raises(PrecisionUnattainable):
            certified_digits(got, digits, None)


def test_deepest_feasible():
    assert deepest_feasible(make_series(2)) == 5
    assert deepest_feasible(make_series(2, budget_bits=10)) == 4
    assert deepest_feasible(make_series(2, budget_bits=33)) == 5
    bad = LacunarySeries(2, PowerSchedule(4, Fraction(1, 2)))
    with pytest.raises(NonIntegralExponent):
        deepest_feasible(bad)
