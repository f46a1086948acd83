import operator
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lacunary.errors import (
    ExponentBudgetExceeded,
    InsufficientDepth,
    InternalError,
    InvalidConfigError,
    NotFound,
)
from lacunary.interval import RationalInterval
from lacunary.logenc import _GUARD, ln_fraction_interval, ln_int_interval
from lacunary.powercmp import Ordering, PurePower
from lacunary.schedule import PowerSchedule
from lacunary import certjson, intmath, series, witness
from lacunary.intmath import exact_decimal
from lacunary.series import BINARY, DECIMAL, Convergent, Enclosure, LacunarySeries, format_fixed
from lacunary.witness import (
    CompositeNumber,
    GapBound,
    Op,
    certify,
    composite_convergent,
    composite_digits,
    empirical_exponent,
    find_n0,
    gap_bound,
    _APPLY,
    _gap_dyadic,
    _value_on_grid,
    true_gap_enclosure,
    value_enclosure,
    verify_roth_instance,
)

from conftest import build_example


def mp_value(op: Op):
    """Independent high-precision value of the example composite."""
    with mpmath.workprec(4000):
        t1 = sum(mpmath.mpf(3) ** -a for a in (2, 4, 16, 256, 65536))
        t2 = sum(mpmath.mpf(2) ** -a for a in (2, 4, 16, 256, 65536))
        if op is Op.SUM:
            return t1 + t2
        if op is Op.DIFFERENCE:
            return t1 - t2
        if op is Op.PRODUCT:
            return t1 * t2
        return t1 / t2


def test_composite_validation():
    sched = PowerSchedule(2, Fraction(1))
    s3 = LacunarySeries(3, sched)
    s2 = LacunarySeries(2, sched)
    with pytest.raises(InvalidConfigError):
        CompositeNumber("sum", s3, s2)
    with pytest.raises(InvalidConfigError):
        CompositeNumber(Op.SUM, s2, s3)  # base order reversed
    with pytest.raises(InvalidConfigError):
        CompositeNumber(Op.SUM, s3, LacunarySeries(2, PowerSchedule(2, Fraction(1))))
    c = CompositeNumber(Op.SUM, s3, s2)
    assert (c.g1, c.g2) == (3, 2)
    assert c.schedule is sched


def test_composite_convergents():
    assert composite_convergent(build_example(Op.SUM), 2) == Convergent(2, 565, 1296)
    assert composite_convergent(build_example(Op.DIFFERENCE), 1) == Convergent(1, -5, 36)
    assert composite_convergent(build_example(Op.DIFFERENCE), 2) == Convergent(2, -245, 1296)
    assert composite_convergent(build_example(Op.PRODUCT), 1) == Convergent(1, 1, 36)
    assert composite_convergent(build_example(Op.QUOTIENT), 2) == Convergent(2, 32, 81)


def test_convergent_denominator_with_common_base_factor():
    # bases 4 and 2 share a factor: the reduced denominator is recorded
    # as it comes out, not forced to (g1*g2)**a_n
    sched = PowerSchedule(2, Fraction(1))
    c = CompositeNumber(Op.SUM, LacunarySeries(4, sched), LacunarySeries(2, sched))
    conv = composite_convergent(c, 1)
    assert conv == Convergent(1, 5, 16)  # 1/16 + 1/4


@pytest.mark.parametrize("op", list(Op))
def test_value_enclosure_contains_reference_value(op):
    # depth 3: enclosure margins around the true value are ~2**-256,
    # far above any 4000-bit conversion noise
    iv = value_enclosure(build_example(op), 3)
    v = mp_value(op)
    with mpmath.workprec(4000):
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo <= v <= hi


@pytest.mark.parametrize("op", list(Op))
def test_dyadic_value_enclosure_agrees_with_mpmath(op):
    # ends outward-rounded on the 2**-3000 grid, against the five terms
    # up to 2**-65536 summed independently at 4000 bits
    lo, hi, j, _, end = _value_on_grid(build_example(op), 3000)
    assert end is None and j >= 3000
    v = mp_value(op)
    with mpmath.workprec(4000):
        assert mpmath.mpf(lo) / 2**j < v < mpmath.mpf(hi) / 2**j


@pytest.mark.parametrize("op", list(Op))
def test_dyadic_combination_rounds_outward(op):
    # the composite ends contain the exact interval combination of the two
    # series' dyadic ends, at every precision and for unlike bases
    for g1, g2, a1 in ((3, 2, 2), (7, 5, 2), (12, 11, 3)):
        sched = PowerSchedule(a1, Fraction(1))
        c = CompositeNumber(op, LacunarySeries(g1, sched), LacunarySeries(g2, sched))
        for k in (8, 9, 63, 64, 65, 200, 1000, 4097):
            lo, hi, j, _, _ = _value_on_grid(c, k)
            l1, h1, _, _, _ = c.s1.on_grid(j)
            l2, h2, _, _, _ = c.s2.on_grid(j)
            x = RationalInterval(Fraction(l1, 2**j), Fraction(h1, 2**j))
            y = RationalInterval(Fraction(l2, 2**j), Fraction(h2, 2**j))
            exact = {Op.SUM: operator.add, Op.DIFFERENCE: operator.sub,
                     Op.PRODUCT: operator.mul, Op.QUOTIENT: operator.truediv}[op](x, y)
            assert Fraction(lo, 2**j) <= exact.lo and exact.hi <= Fraction(hi, 2**j)


def test_true_gap_enclosure_example_window():
    c = build_example(Op.SUM)
    gap = true_gap_enclosure(c, 1, 3)
    assert Fraction(1, 16) < gap.lo and gap.hi < Fraction(4, 9)
    assert float(gap.lo) == pytest.approx(0.0748609610, rel=1e-8)
    assert gap.width < Fraction(1, 10**70)
    # depth equal to n gives the degenerate one-sided interval
    degenerate = true_gap_enclosure(c, 2, 2)
    assert degenerate.lo == 0


def test_gap_bounds_known_values():
    c = build_example(Op.SUM)
    assert gap_bound(c, 1) == Fraction(1, 4)
    assert gap_bound(c, 2) == Fraction(1, 16384)
    assert gap_bound(c, 3) == Fraction(4, 2**256)
    q = build_example(Op.QUOTIENT)
    assert gap_bound(q, 2) == Fraction(9, 8192)
    with pytest.raises(InvalidConfigError):
        gap_bound(q, 1)


def test_gap_bound_matches_closed_forms():
    # each bound against its closed form over g2**a_{n+1}, written out
    # without the tail sandwich
    checked = 0
    for g1 in range(3, 8):
        for g2 in range(2, g1):
            for a1 in (2, 3):
                sched = PowerSchedule(a1, Fraction(1))
                s1, s2 = LacunarySeries(g1, sched), LacunarySeries(g2, sched)
                for op in Op:
                    c = CompositeNumber(op, s1, s2)
                    for n in (2, 3) if op is Op.QUOTIENT else (1, 2, 3):
                        step = g2 ** sched.exponent(n + 1)
                        if op in (Op.SUM, Op.DIFFERENCE):
                            want = Fraction(4, step)
                        elif op is Op.PRODUCT:
                            h1, h2 = s1.on_grid(64)[1], s2.on_grid(64)[1]
                            want = Fraction(2 * ((1 << 64) + h1 + h2), step << 64)
                        else:
                            inv_up = g2**a1
                            want = Fraction((2 + 4 * inv_up) * inv_up, step)
                        assert gap_bound(c, n) == want, (op, g1, g2, a1, n)
                        checked += 1
    assert checked == 15 * 2 * 11


@pytest.mark.parametrize("g1, g2", [(3, 2), (4, 2), (5, 3), (7, 5), (6, 4)])
def test_quotient_forms_match_built_powers(g1, g2):
    # the forms compare against shifts where 4**dv * (2**j)**dv was built
    sched = PowerSchedule(2, Fraction(1))
    c = CompositeNumber(Op.QUOTIENT, LacunarySeries(g1, sched), LacunarySeries(g2, sched))
    h2 = c.s2.on_grid(64)[1]
    for d in (Fraction(3), Fraction(7, 2), Fraction(13, 4)):
        du, dv = d.numerator, d.denominator
        for n in (2, 3, 4):
            ps1, ps2 = c.s1.partial_sum(n), c.s2.partial_sum(n)
            gaps = [verify_roth_instance(c, n, (2 + d) / 2).gap[1:]]
            if dv == 1:  # gap.hi one unit either side of each form's threshold
                k = 3 * du * (ps1.q * ps2.q).bit_length()
                for t in ((4 << k) // (ps1.q * ps2.q) ** du,
                          (4 * ((1 << 64) + h2) << k) // ((ps1.q * ps2.p) ** du << 64)):
                    gaps += [(t + i, k) for i in (-1, 0, 1)]
            for hi, k in gaps:
                g = Fraction(hi, 1 << k)
                m, den = g.numerator, g.denominator
                q_form = m**dv * (ps1.q * ps2.q) ** du < 4**dv * den**dv
                p_form = (m**dv * (ps1.q * ps2.p) ** du << 64 * dv
                          < (4 * ((1 << 64) + h2)) ** dv * den**dv)
                got = witness._quotient_display_forms(c, n, hi, k, d)
                assert (got.q_denominator_form, got.p_denominator_form) == (q_form, p_form)


def test_gap_bound_prints_from_its_powers_as_rat_prints_it():
    # certjson's route (o**a // G_odd, times a power of two) against rat's
    # conversion of the reduced Fraction, which decimal_str prints as str
    # would (test_decimal_str_matches_str): every pair g1 > g2 in 2..12,
    # every op, and every n the default budget allows
    cases = odd_gcds = 0
    rats = {}
    # the default budget holds a_{n+1} up to 65536, 6561 and 65536 at n = last
    for a1, last in ((2, 4), (3, 3), (4, 3)):
        sched = PowerSchedule(a1, Fraction(1))
        with pytest.raises(ExponentBudgetExceeded):
            sched.exponent(last + 2)
        for g2 in range(2, 12):
            s2 = LacunarySeries(g2, sched)
            for g1 in range(g2 + 1, 13):
                s1 = LacunarySeries(g1, sched)
                for op in Op:
                    c = CompositeNumber(op, s1, s2)
                    for n in range(2 if op is Op.QUOTIENT else 1, last + 1):
                        f = gap_bound(c, n)
                        if f not in rats:  # only the product's bound depends on g1
                            rats[f] = certjson.rat(f)
                        entry = certjson._record_entry(witness.IndexRecord(n, gap_bound=f))
                        assert entry["gap_bound"] == rats[f], (op, g1, g2, a1, n)
                        G = f.form[0] // f.numerator
                        if op is Op.QUOTIENT:  # the numerator's g2**a1 divides g2**a_{n+1}
                            assert G % g2**a1 == 0
                        odd_gcds += G >> (G & -G).bit_length() - 1 > 1
                        cases += 1
    assert cases == 2035 and odd_gcds > 0


def test_gap_bound_refuses_a_form_it_cannot_divide():
    # a forged form: 25 / (3**2 * 2) is not f, and its G = 25 // 5 does not
    # divide 3**2
    f = GapBound(5, PurePower(3, 2), 1)
    f.form = (25, PurePower(3, 2), 1)
    assert f == Fraction(5, 18)
    with pytest.raises(InternalError):
        certjson.gap_bound(f)


@pytest.mark.parametrize("op", list(Op))
def test_gap_bound_dominates_true_gap(op):
    c = build_example(op)
    for n in (2, 3) if op is Op.QUOTIENT else (1, 2, 3):
        bound = gap_bound(c, n)
        gap = true_gap_enclosure(c, n, 5)
        assert gap.hi <= bound


def test_find_n0_example():
    scan = find_n0(build_example(Op.SUM, budget_bits=33), 3, 5)
    assert scan.n0 == 3
    assert [t.passed for t in scan.checks] == [False, False, True, True, True]
    low = find_n0(build_example(Op.SUM), Fraction(5, 2), 3)
    assert low.n0 <= 3


def test_find_n0_errors():
    c = build_example(Op.SUM)
    with pytest.raises(InvalidConfigError):
        find_n0(c, 2, 4)
    with pytest.raises(InvalidConfigError):
        find_n0(c, 3, 0)
    with pytest.raises(NotFound):
        find_n0(c, 50, 3)
    with pytest.raises(ExponentBudgetExceeded):
        find_n0(build_example(Op.SUM), 3, 5)  # needs a_6 = 2**32


def test_roth_instance_example_indices():
    c = build_example(Op.SUM)
    fail = verify_roth_instance(c, 2, Fraction(5, 2))
    assert not fail.passed and not fail.tie
    assert fail.margin == "9.2404528e+2"
    # depth: terms per series at the deciding working precision, which is
    # 81 bits at n=2 (a_1..a_3 summed) and 324 bits at n=3 (a_1..a_4)
    assert fail.depth == 3
    ok3 = verify_roth_instance(c, 3, Fraction(5, 2))
    assert ok3.passed and ok3.margin == "1.1544393e-46" and ok3.depth == 4
    ok4 = verify_roth_instance(c, 4, Fraction(5, 2))
    assert ok4.passed and ok4.margin == "5.1880530e-19231"


def test_roth_instance_margin_matches_float_oracle():
    c = build_example(Op.SUM)
    chk = verify_roth_instance(c, 3, Fraction(5, 2))
    # independent: gap ~ 8.6e-78, threshold q^(-5/2) ~ 7.5e-32
    with mpmath.workprec(4000):
        v = mp_value(Op.SUM)
        f = composite_convergent(c, 3)
        conv = mpmath.mpf(f.p) / f.q
        gap = abs(v - conv)
        ratio = gap / mpmath.mpf(f.q) ** mpmath.mpf("-2.5")
        assert mpmath.mpf("1.15e-46") < ratio < mpmath.mpf("1.16e-46")
    assert float(chk.margin) == pytest.approx(1.1544393e-46, rel=1e-6)


def test_roth_instance_validation_and_depth_exhaustion():
    c = build_example(Op.SUM)
    with pytest.raises(InvalidConfigError):
        verify_roth_instance(c, 2, 2)
    with pytest.raises(InvalidConfigError):
        verify_roth_instance(build_example(Op.QUOTIENT), 1, Fraction(5, 2))
    shallow = build_example(Op.SUM, budget_bits=10)  # depth caps at 4
    with pytest.raises(InsufficientDepth):
        verify_roth_instance(shallow, 4, Fraction(5, 2))


def _roth_on_gap(gap, q):
    """`_roth_check` at d_eff = 3 on a convergent 1/q whose gap is `gap` at
    every precision."""
    with mock.patch.object(witness, "_gap_dyadic", lambda c, conv, k: gap):
        return witness._roth_check(build_example(Op.SUM), Convergent(1, 1, q), Fraction(3))


def test_roth_margin_just_under_one_passes():
    # hi * q**3 = (2**18 - 1)/27 * 27 = 2**18 - 1 < 2**18: a pass by one unit
    chk = _roth_on_gap(Enclosure((2**18 - 1) // 27, (2**18 - 1) // 27, 18, 1, None), 3)
    assert chk.passed and not chk.tie and chk.margin == "9.9999618e-1"


def test_roth_exact_tie_is_a_certified_fail():
    # lo * q**3 = 2**25 * 2**15 = 2**40: the gap hits the threshold exactly
    chk = _roth_on_gap(Enclosure(2**25, 2**25, 40, 1, None), 2**5)
    assert not chk.passed and chk.tie and chk.margin == "1.0000000e+0"


def test_bound_dominates_an_exactly_equal_gap_end():
    c, d = build_example(Op.SUM), Fraction(3)
    _, hi, k = witness._index_record(c, 2, d, (2 + d) / 2).roth.gap
    with mock.patch.object(witness, "gap_bound", lambda c, n: Fraction(hi, 2**k)):
        rec = witness._index_record(c, 2, d, (2 + d) / 2)
    assert rec.gap_bound * 2**k == hi and rec.bound_dominates is True


def test_empirical_exponent_values_and_widths():
    c = build_example(Op.SUM)
    expected = [
        (1, 0.723345623),
        (2, 1.547198968),
        (3, 6.189644916),
        (4, 99.034318652),
    ]
    lows = []
    for n, approx in expected:
        iv = empirical_exponent(c, n, min(n + 2, 5))
        assert float(iv.lo) == pytest.approx(approx, abs=1e-6)
        assert iv.width > 0
        lows.append(iv.lo)
    assert lows == sorted(lows)
    # deeper enclosures narrow the interval
    widths = [empirical_exponent(c, 2, depth).width for depth in (3, 4, 5)]
    assert widths[0] > widths[1] > widths[2]


def test_empirical_exponent_needs_positive_gap():
    with pytest.raises(InsufficientDepth):
        empirical_exponent(build_example(Op.SUM), 3, 3)


def test_certify_example_sum():
    cert = certify(build_example(Op.SUM), 3, (1, 4))
    assert cert.n0 == 3 and cert.n0_error is None
    assert [r.n for r in cert.records] == [1, 2, 3, 4]
    assert all(r.error is None for r in cert.records)
    assert all(r.bound_dominates for r in cert.records)
    assert [r.roth.passed for r in cert.records] == [False, False, True, True]
    assert cert.verdict == ("2 of 4 indices pass the strict approximation test "
                            "at exponent 5/2; threshold index n0=3")
    assert cert.d_eff == Fraction(5, 2)


def test_certify_default_effective_exponent():
    cert = certify(build_example(Op.SUM), 3, (2, 2))
    assert cert.d_eff == Fraction(5, 2)  # (2 + 3) / 2


def test_certify_empty_range():
    cert = certify(build_example(Op.SUM), 3, (2, 1))
    assert cert.records == () and cert.n0 is None and cert.n0_error is None
    assert cert.verdict.startswith("0 of 0 indices")


def test_certify_quotient_notice_and_forms():
    cert = certify(build_example(Op.QUOTIENT), 3, (1, 3))
    first = cert.records[0]
    assert first.notice is not None and "n=2" in first.notice
    assert first.convergent == Convergent(1, 4, 9)  # (1/9)/(1/4)
    assert first.roth is None
    assert [r.roth.passed for r in cert.records[1:]] == [False, True]
    assert all(r.forms is not None for r in cert.records[1:])
    assert cert.records[2].forms.q_denominator_form is True


def test_certify_embeds_component_errors():
    cert = certify(build_example(Op.SUM, budget_bits=10), 3, (1, 4))
    assert cert.n0_error is not None and "ExponentBudgetExceeded" in cert.n0_error
    errs = [r for r in cert.records if r.error is not None]
    assert [r.n for r in errs] == [4]
    # the index-4 gap bound already needs a_5 = 65536, over a 2**10 budget
    assert "ExponentBudgetExceeded" in errs[0].error
    assert [r.roth.passed for r in cert.records if r.roth] == [False, False, True]


def test_index_record_refuses_the_tail_before_building_the_convergent(monkeypatch):
    # a_4 = 4096**2 is over a 12-bit budget: the record at n = 3 is refused
    # by the gate of gap_bound's tail before partial_sum(3) is built
    built = []
    partial_sum = LacunarySeries.partial_sum
    monkeypatch.setattr(LacunarySeries, "partial_sum",
                        lambda s, n: built.append(n) or partial_sum(s, n))
    for op in Op:
        built.clear()
        sched = PowerSchedule(8, Fraction(1), budget_bits=12)
        c = CompositeNumber(op, LacunarySeries(3, sched), LacunarySeries(2, sched))
        records = certify(c, 3, (1, 4)).records
        assert [r.error for r in records[2:]] == [
            "ExponentBudgetExceeded: a_4 = 4096**(2) exceeds the 2**12 exponent budget"] * 2
        assert 3 not in built and 4 not in built


def test_starting_precision_power_is_gated(monkeypatch):
    # verify_roth_instance reads its starting precision off g2**64, a
    # power whose size comes from the input: the size gate refuses it
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", 1 << 12)
    sched = PowerSchedule(2, Fraction(1), budget_bits=20)
    c = CompositeNumber(Op.SUM, LacunarySeries(2**100 + 3, sched),
                        LacunarySeries(2**100 + 1, sched))
    (rec,) = certify(c, 3, (1, 1)).records
    assert rec.error == ("ExponentBudgetExceeded: g2**64 would need about 6464 bits, "
                         "over the 4096-bit materialization cap")


def test_the_strict_test_gates_the_product_of_its_two_powers(monkeypatch):
    # gap.hi**50 * q_2**151 is refused by its own width, v*bits(hi) + u*bits(q),
    # though each power passes its gate; a product exactly at the cap is built
    c, d_eff = build_example(Op.SUM), Fraction(151, 50)
    roth = verify_roth_instance(c, 2, d_eff)
    width = 50 * roth.gap[1].bit_length() + 151 * composite_convergent(c, 2).q.bit_length()
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", width)
    assert verify_roth_instance(c, 2, d_eff) == roth
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", width - 1)
    with pytest.raises(ExponentBudgetExceeded,
                       match=fr"^gap\.hi\*\*50 \* q_2\*\*151 would need about {width} bits"):
        verify_roth_instance(c, 2, d_eff)


def test_the_quotient_display_forms_gate_their_products(monkeypatch):
    # m**dv * (q1*q2)**du, with gap.hi = m/2**j in lowest terms, is refused by
    # its own width at d = 20, n = 2, where the strict test's product is narrower
    c, d = build_example(Op.QUOTIENT), Fraction(20)
    (rec,) = certify(c, d, (2, 2)).records
    m, _ = intmath.lowest_dyadic(rec.roth.gap[1], rec.roth.gap[2])
    width = 20 * (c.s1.partial_sum(2).q * c.s2.partial_sum(2).q).bit_length() + m.bit_length()
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", width)
    assert certify(c, d, (2, 2)).records == (rec,)
    monkeypatch.setattr(intmath, "MATERIALIZE_BITS", width - 1)
    (refused,) = certify(c, d, (2, 2)).records
    assert refused.error == (f"ExponentBudgetExceeded: gap.hi**1 * (q1*q2)**20 would need "
                             f"about {width} bits, over the {width - 1}-bit materialization cap")


@st.composite
def _refused_at_q_power(draw):
    """(a1, d) for bases (5, 3): q_1 = 15**a1, and d_eff = d/2 + 1 just past
    the largest exponent u whose q_1**u passes the size gate.  From a1 =
    1024 on, the tail 3**(a1**2) is over 2**20 bits, or over the cap."""
    a1 = draw(st.integers(1024, 4700))
    edge = intmath.MATERIALIZE_BITS // (15 ** a1).bit_length()
    return a1, 2 * draw(st.integers(edge + 1, edge + 400)) - 2


@settings(deadline=None, max_examples=40)
@given(case=_refused_at_q_power(), op=st.sampled_from([Op.SUM, Op.DIFFERENCE, Op.PRODUCT]))
@example(case=(1024, 40000), op=Op.SUM)  # a tail 3**(2**20) would have 1,661,954 bits
def test_a_refused_record_builds_no_wide_power(case, op):
    a1, d = case
    built = []

    def spy(x, e, label=None):
        got = intmath.gated_pow(x, e, label)
        built.append(got.bit_length())
        return got

    sched = PowerSchedule(a1, Fraction(1), budget_bits=25)
    c = CompositeNumber(op, LacunarySeries(5, sched), LacunarySeries(3, sched))
    with mock.patch.object(series, "gated_pow", spy), mock.patch.object(witness, "gated_pow", spy):
        (rec,) = certify(c, d, (1, 1)).records
    assert rec.error.startswith("ExponentBudgetExceeded: ")
    assert max(built, default=0) <= 1 << 20



@pytest.mark.parametrize("op", [Op.SUM, Op.PRODUCT])
def test_a_record_refused_by_its_strict_test_builds_no_gap_bound(op):
    # d_eff = 4000001/2000000: q_1**u passes the size gate, gap.hi**2000000 does not
    with mock.patch.object(witness, "gap_bound", wraps=witness.gap_bound) as bound:
        (rec,) = certify(build_example(op), Fraction(2000001, 1000000), (1, 1)).records
    assert rec.error.startswith("ExponentBudgetExceeded: gap.hi**2000000")
    assert not bound.called

class _ThinSeries(LacunarySeries):
    """A stub whose partial sums are all 1/g**a1, no more than g**-a1."""

    def partial_sum(self, n):
        return Convergent(n, 1, self.base ** self.schedule.exponent(1))


def test_quotient_gap_bound_refuses_a_partial_sum_under_its_bound():
    sched = PowerSchedule(2, Fraction(1))
    c = CompositeNumber(Op.QUOTIENT, LacunarySeries(3, sched), _ThinSeries(2, sched))
    with pytest.raises(InternalError, match="at n=2 is not above 1/4"):
        gap_bound(c, 2)


def test_find_n0_refuses_a_relapse(monkeypatch):
    answers = iter([Ordering.GREATER, Ordering.LESS])
    monkeypatch.setattr(witness, "compare", lambda x, y: next(answers))
    with pytest.raises(InternalError, match="relapsed at n=2 after holding from n=1"):
        find_n0(build_example(Op.SUM), 3, 2)


@pytest.mark.parametrize("op", [Op.SUM, Op.QUOTIENT])
def test_certify_builds_one_convergent_per_index(op):
    with mock.patch.object(witness, "composite_convergent",
                           wraps=witness.composite_convergent) as built:
        cert = certify(build_example(op), 3, (1, 4))
    assert [call.args[1] for call in built.call_args_list] == [1, 2, 3, 4]
    assert [r.convergent.n for r in cert.records] == [1, 2, 3, 4]


def _exponent_interval_by_intervals(gap, q, prec):
    """-ln(gap)/ln(q) as RationalInterval arithmetic computes it."""
    lo, hi, k = gap
    (m_lo, j_lo), (m_hi, j_hi) = intmath.lowest_dyadic(lo, k), intmath.lowest_dyadic(hi, k)
    num = RationalInterval(-ln_fraction_interval(m_hi, 1 << j_hi, prec)[1],
                           -ln_fraction_interval(m_lo, 1 << j_lo, prec)[0])
    return num / RationalInterval(*ln_int_interval(q, prec))


def _gap_ends(lo_range, hi_range):
    return st.integers(*lo_range).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(max(lo, hi_range[0]), hi_range[1])))


# gaps [lo, hi] * 2**-10 below 1, straddling 1 and above 1, so that -ln(gap)
# is positive, straddles 0 and is negative
_GAP_RANGES = [((1, 1023), (1, 1023)), ((1, 1023), (1025, 4096)),
               ((1025, 1 << 60), (1025, 1 << 61))]


@settings(deadline=None, max_examples=300)
@given(st.one_of(*(_gap_ends(*r) for r in _GAP_RANGES)),
       st.integers(2, 1 << 200), st.sampled_from([0, 64, 128]))
@example((3, 5), 6 ** 16, 64)
@example((1000, 1048), 6 ** 16, 64)
@example((3000, 3100), 6 ** 16, 64)
def test_exponent_interval_divides_like_the_interval_route(ends, q, prec):
    gap = (*ends, 10)
    expo = witness._exponent_interval(gap, q, prec)
    assert expo == _exponent_interval_by_intervals(gap, q, prec)


def test_composite_digits_known_values():
    assert composite_digits(build_example(Op.SUM), 10) == "0.4359720721"
    assert composite_digits(build_example(Op.DIFFERENCE), 10) == "-0.1890584454"
    assert composite_digits(build_example(Op.PRODUCT), 10) == "0.0385821379"
    assert composite_digits(build_example(Op.QUOTIENT), 10) == "0.3950425135"
    with pytest.raises(InvalidConfigError):
        composite_digits(build_example(Op.SUM), 0)


# ends and precisions reach past intmath._DIV_LIMIT bits, so the quotient's
# divmod and the gap's floor take the Burnikel-Ziegler kernel
ENDS = st.integers(1, 1 << 20_000)
WIDTHS = st.integers(0, 1 << 8)
PRECISIONS = st.integers(0, 20_000)


@settings(deadline=None, max_examples=300)
@given(l1=ENDS, w1=WIDTHS, l2=ENDS, w2=WIDTHS, j=PRECISIONS)
@example(l1=(1 << 4000) // 3, w1=0, l2=(1 << 4000) // 5, w2=7, j=4000)
@example(l1=(1 << 4000) // 3, w1=5, l2=(1 << 4000) // 5, w2=0, j=4000)
@example(l1=(1 << 19_999) // 3, w1=3, l2=(1 << 12_001) // 5, w2=9, j=20_000)
@example(l1=(1 << 16_000) - 1, w1=1, l2=(1 << 16_000) // 7, w2=2, j=16_001)
def test_product_and_quotient_ends_match_two_full_operations(l1, w1, l2, w2, j):
    # each op derives one end from the other through the widths; the ends
    # are the integers that two full-width operations give
    h1, h2 = l1 + w1, l2 + w2
    assert _APPLY[Op.PRODUCT][1](l1, h1, l2, h2, j, BINARY) == (l1 * l2 >> j, -(-h1 * h2 >> j))
    assert _APPLY[Op.QUOTIENT][1](l1, h1, l2, h2, j, BINARY) == ((l1 << j) // h2,
                                                                 -((-h1 << j) // l2))


# Signed ends on either grid: the difference goes negative when theta1 <
# theta2, and the quotient's correction r - q*(h2 - l2) whenever q*(h2 - l2)
# > r, which is where a division that truncates toward zero (Decimal's own
# // and divmod) would round inward.
SIGNED = st.integers(-(1 << 4000), 1 << 4000)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


@settings(deadline=None, max_examples=300)
@given(grid=st.sampled_from([BINARY, DECIMAL]), l1=SIGNED, w1=WIDTHS, l2=SIGNED, w2=WIDTHS,
       j=st.integers(0, 1300))
@example(grid=DECIMAL, l1=7, w1=0, l2=3, w2=2, j=1)  # correction 1 - 23*2 < 0
@example(grid=DECIMAL, l1=-7, w1=1, l2=3, w2=0, j=1)  # negative quotient
@example(grid=DECIMAL, l1=-7, w1=0, l2=-3, w2=0, j=1)  # negative product
def test_every_op_rounds_outward_on_both_grids(grid, l1, w1, l2, w2, j):
    # each op's ends are the exact floor of its lower combination and the
    # exact ceiling of its upper one, on the grid radix**-j, at any sign
    h1, h2 = l1 + w1, l2 + w2
    unit = Fraction(grid.radix) ** j
    want = {Op.SUM: (l1 + l2, h1 + h2), Op.DIFFERENCE: (l1 - h2, h1 - l2),
            Op.PRODUCT: (_floor(l1 * l2 / unit), -_floor(-h1 * h2 / unit))}
    if l2 > 0:
        want[Op.QUOTIENT] = (_floor(l1 * unit / h2), -_floor(-h1 * unit / l2))
    ends = [grid.number(x) for x in (l1, h1, l2, h2)]
    with exact_decimal():
        for op, (lo, hi) in want.items():
            got = _APPLY[op][1](*ends, j, grid)
            assert all(type(x) is type(ends[0]) for x in got)
            assert (int(got[0]), int(got[1])) == (lo, hi), op


@settings(deadline=None, max_examples=300)
@given(lo=st.integers(-(1 << 20_000), 1 << 20_000), width=WIDTHS,
       p=st.integers(-(1 << 20_000), 1 << 20_000), q=ENDS, j=PRECISIONS)
@example(lo=0, width=0, p=6, q=3, j=10)
@example(lo=1 << 15_000, width=4, p=(1 << 14_000) // 3, q=(1 << 14_001) // 7, j=20_000)
@example(lo=-(1 << 15_000), width=4, p=-(1 << 14_000) // 3, q=(1 << 14_001) // 7, j=20_000)
def test_gap_ends_match_separate_floor_and_ceiling(lo, width, p, q, j):
    hi = lo + width
    up, down = lo - -((-p << j) // q), hi - ((p << j) // q)
    want = (-down, -up) if down < 0 else (0, max(-up, down)) if up < 0 else (up, down)
    with mock.patch.object(witness, "_value_on_grid", lambda c, k: Enclosure(lo, hi, j, 1, None)):
        got = _gap_dyadic(None, SimpleNamespace(p=p, q=q), j)
    assert got == (*want, j, 1, None)


DIFFERENCE = build_example(Op.DIFFERENCE)
# theta1 - theta2 < 0 lies within 4 * 2**-a_5 = 2**-65534 of its convergent at n = 4
NEAR_DIFFERENCE = composite_convergent(DIFFERENCE, 4).fraction


@settings(deadline=None, max_examples=60)
@given(places=st.integers(1, 3000))
def test_difference_digits_match_fraction_truncation(places):
    slack = Fraction(1, 2 ** 65534)
    ends = [int((NEAR_DIFFERENCE + x) * 10 ** places) for x in (-slack, slack)]
    assume(ends[0] == ends[1])
    assert composite_digits(DIFFERENCE, places) == format_fixed(ends[0], places)


_INTERVAL_OPS = {Op.SUM: operator.add, Op.DIFFERENCE: operator.sub,
                 Op.PRODUCT: operator.mul, Op.QUOTIENT: operator.truediv}
# the squaring schedule within the default budget: a_5 = 65536, and past it
# the tail is bounded from 2*a_5
_SQUARING = (2, 4, 16, 256, 65536)
# over g**-65536 + 2*g**-131072 for every g >= 2
_BEYOND_A4 = Fraction(1, 10 ** 19000)


def _mp_truncation(v, places):
    """The toward-zero truncation of v to `places`, or None when v is too
    near a multiple of 10**-places for the working precision to tell."""
    scaled = abs(v) * mpmath.mpf(10) ** places
    t = int(mpmath.floor(scaled))
    eps = mpmath.mpf(10) ** -30
    if not eps < scaled - t < 1 - eps:
        return None
    return format_fixed(-t if v < 0 else t, places)


@settings(deadline=None, max_examples=40)
@given(g2=st.integers(2, 11), data=st.data(), op=st.sampled_from(list(Op)),
       places=st.integers(50, 3000))
def test_digits_agree_with_mpmath_and_the_fraction_bracket(g2, data, op, places):
    # both series and the composite on the decimal grid, against mpmath at
    # about 1.2*places + 77 digits and against the exact bracket [S_4, S_4 +
    # 10**-19000] of each series, combined by exact interval arithmetic
    g1 = data.draw(st.integers(g2 + 1, 12), label="g1")
    sched = PowerSchedule(2, Fraction(1))
    c = CompositeNumber(op, LacunarySeries(g1, sched), LacunarySeries(g2, sched))
    got = [c.s1.decimal_digits(places), c.s2.decimal_digits(places), composite_digits(c, places)]
    brackets = []
    for g in (g1, g2):
        s4 = sum(Fraction(1, g ** a) for a in _SQUARING[:4])
        brackets.append(RationalInterval(s4, s4 + _BEYOND_A4))
    brackets.append(_INTERVAL_OPS[op](*brackets))
    with mpmath.workprec(4 * places + 256):
        values = [mpmath.fsum(mpmath.mpf(g) ** -a for a in _SQUARING) for g in (g1, g2)]
        values.append(_INTERVAL_OPS[op](*values))
        by_mpmath = [_mp_truncation(v, places) for v in values]
    for digits, iv, mp_digits in zip(got, brackets, by_mpmath):
        ends = [int(x * 10 ** places) for x in (iv.lo, iv.hi)]
        assert ends[0] != ends[1] or digits == format_fixed(ends[0], places)
        assert mp_digits is None or digits == mp_digits


# The certify benchmark's grid (a1 = 2, beta = 1, n 1..4, d = 3).  Its gap
# ends carry up to 576 trailing zero bits, where the reduced and the
# unreduced end give different log enclosures.
_CERTIFY_GRID = [("sum", 6, 2), ("sum", 6, 3), ("difference", 6, 2), ("difference", 5, 2),
                 ("product", 4, 2), ("product", 3, 2), ("quotient", 3, 2)]


@pytest.mark.parametrize("op, g1, g2", _CERTIFY_GRID)
def test_exponent_interval_matches_the_fraction_route(op, g1, g2):
    sched = PowerSchedule(2, Fraction(1))
    c = CompositeNumber(Op(op), LacunarySeries(g1, sched), LacunarySeries(g2, sched))
    reduced_ends = 0
    for r in certify(c, 3, (1, 4)).records:
        if r.roth is None:
            continue
        lo, hi, k = r.roth.gap
        reduced_ends += (Fraction(lo, 2**k).denominator < 2**k) + (Fraction(hi, 2**k).denominator < 2**k)
        # -ln(gap)/ln(q) as it was computed from the Fraction ends
        prec = 64 * r.roth.depth
        unit = Fraction(1, 2 ** (prec + _GUARD))
        f_lo, f_hi = Fraction(lo, 2**k), Fraction(hi, 2**k)
        ln_gap = RationalInterval(
            ln_fraction_interval(f_lo.numerator, f_lo.denominator, prec)[0] * unit,
            ln_fraction_interval(f_hi.numerator, f_hi.denominator, prec)[1] * unit)
        den = ln_int_interval(r.convergent.q, prec)
        assert r.exponent_interval == -ln_gap / RationalInterval(den[0] * unit, den[1] * unit)
    assert reduced_ends > 0
