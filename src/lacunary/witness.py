"""Verification chain for the four composites of two lacunary series.

For theta1 (base g1) and theta2 (base g2 < g1) over one shared exponent
schedule, this module certifies at concrete indices n everything a
transcendence argument consumes at that index:

  * the exact reduced convergent of theta1 op theta2 at n;
  * a certified rational upper bound on the gap |value - convergent|
    (4/g2**a_{n+1} for sum and difference, with enclosure-backed
    constants for product and quotient);
  * the threshold index n0 past which g2**a_{n+1} dominates
    (g1*g2)**(d*a_n), decided without materializing either side;
  * the strict approximation test: gap < q_n**(-d_eff), decided by exact
    cleared-power comparisons on the ends of a dyadic gap enclosure whose
    working precision doubles until it decides, with the certified margin
    reported;
  * an interval for the empirical approximation exponent
    -ln(gap)/ln(q_n).

All decisions are exact rational comparisons or directed log enclosures;
no float is ever consulted.
"""

from __future__ import annotations

import enum
import operator
from collections import namedtuple
from fractions import Fraction

from .errors import (
    ExponentBudgetExceeded,
    InsufficientDepth,
    InternalError,
    InvalidConfigError,
    NonIntegralExponent,
    NotFound,
    PrecisionUnattainable,
)
from .intmath import (check_power, exact_decimal, gated_pow, int_divmod, int_label,
                      lowest_dyadic, power_bits, root_sci_string, value_label)
from .interval import RationalInterval
from .logenc import ln_fraction_interval, ln_int_interval
from .powercmp import Ordering, PurePower, compare
from .series import (BINARY, DECIMAL, GUARD_BITS, Convergent, Enclosure, LacunarySeries,
                     certified_digits, deepen, exponent_after)

_MARGIN_DIGITS = 8


class Op(enum.Enum):
    SUM = "sum"
    DIFFERENCE = "difference"
    PRODUCT = "product"
    QUOTIENT = "quotient"


def _product(l1, h1, l2, h2, j, grid):
    # h1*h2 = l1*l2 + l1*(h2 - l2) + (h1 - l1)*h2
    p = l1 * l2
    hi = p + l1 * (h2 - l2) + (h1 - l1) * h2
    return grid.floor_unscale(p, j), -grid.floor_unscale(-hi, j)


def _quotient(l1, h1, l2, h2, j, grid):
    # with l1*R**j = q*l2 + r, floor(l1*R**j / h2) = q + floor((r - q*(h2 - l2)) / h2)
    # and ceil(h1*R**j / l2) = q + ceil((r + (h1 - l1)*R**j) / l2)
    q, r = grid.divmod(grid.scale(l1, j), l2)
    return (q + grid.divmod(r - q * (h2 - l2), h2)[0],
            q - grid.divmod(-(r + grid.scale(h1 - l1, j)), l2)[0])


# Each op on Fractions, and on [lo, hi] * R**-j ends on a grid of radix R
# (`series.BINARY` or `series.DECIMAL`) with outward rounding (both series
# are positive); the grid supplies the scaling by R**j and the floored
# division.  Each does one full-width multiply or divide: the other end
# follows from it by products and quotients of the few-unit widths h - l.
_APPLY = {
    Op.SUM: (operator.add, lambda l1, h1, l2, h2, j, grid: (l1 + l2, h1 + h2)),
    Op.DIFFERENCE: (operator.sub, lambda l1, h1, l2, h2, j, grid: (l1 - h2, h1 - l2)),
    Op.PRODUCT: (operator.mul, _product),
    Op.QUOTIENT: (operator.truediv, _quotient),
}


class CompositeNumber(namedtuple("CompositeNumber", "op s1 s2")):
    """theta1 op theta2 for two series over one schedule, g1 > g2 >= 2."""

    __slots__ = ()

    def __new__(cls, op: Op, s1: LacunarySeries, s2: LacunarySeries):
        if not isinstance(op, Op):
            raise InvalidConfigError("op", f"unknown operation {op!r}")
        if s1.base <= s2.base:
            raise InvalidConfigError(
                "g1", f"first base must exceed the second, got g1={int_label(s1.base)} "
                f"<= g2={int_label(s2.base)}")
        if s1.schedule is not s2.schedule:
            raise InvalidConfigError("schedule", "both series must share the same schedule object")
        return tuple.__new__(cls, (op, s1, s2))

    @property
    def g1(self) -> int:
        return self.s1.base

    @property
    def g2(self) -> int:
        return self.s2.base

    @property
    def schedule(self):
        return self.s1.schedule


def composite_convergent(c: CompositeNumber, n: int) -> Convergent:
    """Exact reduced combination of the two partial sums at index n.

    The quotient pairs numerators and denominators as (p1*q2)/(q1*p2)
    before reduction; reduction happens unconditionally, and for bases
    with a common factor the reduced denominator is recorded as-is
    rather than assumed to be (g1*g2)**a_n.
    """
    f = _APPLY[c.op][0](c.s1.partial_sum(n).fraction, c.s2.partial_sum(n).fraction)
    return Convergent(n, f.numerator, f.denominator)


def _value_on_grid(c: CompositeNumber, k: int, grid=BINARY) -> Enclosure:
    """The composite value as an `Enclosure`: both series at one
    precision, combined by the op table."""
    if c.op is Op.QUOTIENT:  # theta2 > g2**-a1: keep its lower end off 0
        k = max(k, grid.places(c.schedule.exponent(1) * c.g2.bit_length() + GUARD_BITS))
    j = min(c.s1.on_grid(k, grid).j, c.s2.on_grid(k, grid).j)
    e1, e2 = c.s1.on_grid(j, grid), c.s2.on_grid(j, grid)
    with exact_decimal():
        lo, hi = _APPLY[c.op][1](e1.lo, e1.hi, e2.lo, e2.hi, j, grid)
    return Enclosure(lo, hi, j, max(e1.terms, e2.terms), e1.end or e2.end)


def _gap_dyadic(c: CompositeNumber, conv: Convergent, k: int) -> Enclosure:
    """|value - p/q| as an `Enclosure` on the binary grid."""
    got = _value_on_grid(c, k)
    f, r = int_divmod(conv.p << got.j, conv.q)  # f = floor(p/q * 2**j)
    lo, hi = got.lo - f - (r > 0), got.hi - f
    if hi < 0:
        lo, hi = -hi, -lo
    elif lo < 0:
        lo, hi = 0, max(-lo, hi)
    return got._replace(lo=lo, hi=hi)


def value_enclosure(c: CompositeNumber, depth: int) -> RationalInterval:
    """Interval containing the composite value, at the precision of the
    exact per-series enclosures of `depth` terms."""
    got = _value_on_grid(c, c.s2.depth_bits(depth))  # g2 < g1: the coarser
    return RationalInterval.dyadic(got.lo, got.hi, got.j)


def true_gap_enclosure(c: CompositeNumber, n: int, depth: int) -> RationalInterval:
    """Interval enclosing |value - convergent_n| at the precision of a
    depth-`depth` value enclosure.  depth <= n is legal but yields a
    one-sided interval with lower endpoint 0, useless for certification."""
    got = _gap_dyadic(c, composite_convergent(c, n), c.s2.depth_bits(depth))
    return RationalInterval.dyadic(got.lo, got.hi, got.j)


def gap_bound(c: CompositeNumber, n: int) -> Fraction:
    """Certified rational upper bound on |value - convergent_n|, a multiple
    of tail = 2/g2**a_{n+1}, the upper end of `c.s2.tail_sandwich(n)`.

    sum/difference: 2*tail (both tails are under it since g1 > g2).
    product: tail*(1 + up1 + up2) with up_j a certified upper bound on
    theta_j.  quotient (n >= 2 only): tail*(1 + 2*g2**a1)*g2**a1, using
    the exact lower bound theta_{n,2} > g2**(-a1).
    """
    tail = c.s2.tail_sandwich(n)[1]
    if c.op in (Op.SUM, Op.DIFFERENCE):
        return 2 * tail
    if c.op is Op.PRODUCT:  # theta_j < h_j * 2**-GUARD_BITS
        h1, h2 = c.s1.on_grid(GUARD_BITS).hi, c.s2.on_grid(GUARD_BITS).hi
        return tail * Fraction((1 << GUARD_BITS) + h1 + h2, 1 << GUARD_BITS)
    # quotient
    if n < 2:
        raise InvalidConfigError("n", "quotient gap bound requires n >= 2")
    inv_up = gated_pow(c.g2, c.schedule.exponent(1))
    ps2 = c.s2.partial_sum(n)  # theta2 > g2**(-a1), so 1/theta2 < inv_up
    if not ps2.p * inv_up > ps2.q:
        raise InternalError(
            f"partial sum of the second series at n={n} is not above 1/{inv_up}")
    return tail * ((1 + 2 * inv_up) * inv_up)


class ThresholdCheck(namedtuple("ThresholdCheck", "n passed")):
    """Whether g2**a_{n+1} > (g1*g2)**(d*a_n) at index n."""

    __slots__ = ()


class ThresholdScan(namedtuple("ThresholdScan", "n0 checks")):
    """The threshold index n0 and the `ThresholdCheck` of each index scanned."""

    __slots__ = ()


def find_n0(c: CompositeNumber, d, n_max: int) -> ThresholdScan:
    """Smallest n <= n_max with g2**a_{n+1} > (g1*g2)**(d*a_n).

    Rational d = du/dv is cleared to the integer comparison
    g2**(dv*a_{n+1}) vs (g1*g2)**(du*a_n), decided symbolically.  The
    inequality must persist for every later tested index; a relapse
    would invalidate the whole scan and raises InternalError.
    """
    d = Fraction(d)
    if d <= 2:
        raise InvalidConfigError("d", f"exponent target must exceed 2, got {value_label(d)}")
    if not isinstance(n_max, int) or n_max < 1:
        raise InvalidConfigError("n_max", f"must be a positive integer, got {n_max!r}")
    du, dv = d.numerator, d.denominator
    both = c.g1 * c.g2
    checks: list[ThresholdCheck] = []
    n0 = None
    for n in range(1, n_max + 1):
        a_n = c.schedule.exponent(n)
        a_next = c.schedule.exponent(n + 1)
        passed = compare(PurePower(c.g2, dv * a_next),
                         PurePower(both, du * a_n)) is Ordering.GREATER
        checks.append(ThresholdCheck(n, passed))
        if passed and n0 is None:
            n0 = n
        elif not passed and n0 is not None:
            raise InternalError(
                f"threshold inequality relapsed at n={n} after holding from n={n0}")
    if n0 is None:
        raise NotFound(f"threshold inequality holds at no index n <= {n_max}")
    return ThresholdScan(n0=n0, checks=tuple(checks))


class RothCheck(namedtuple("RothCheck", "n d_eff passed tie margin depth gap")):
    """Outcome of the strict test gap < q**(-d_eff) at one index.

    `margin` is the certified ratio gap/threshold as a decimal string:
    the upper-endpoint ratio for a pass (< 1), the lower-endpoint ratio
    for a certified fail (>= 1).  `tie` marks an exact hit of the
    threshold by the certified endpoint.  `depth` is the number of terms
    per series summed at the working precision that decided, and `gap`
    the enclosure [lo, hi] * 2**-k that decided, as (lo, hi, k).
    """

    __slots__ = ()


def verify_roth_instance(c: CompositeNumber, n: int, d_eff) -> RothCheck:
    """Decide gap < q_n**(-d_eff) with a certified margin.

    The gap is enclosed as [lo, hi] * 2**-k from k = a_{n+1}*log2(g2) +
    GUARD_BITS, about GUARD_BITS finer than the gap.  The irrational
    threshold is cleared: for d_eff = u/v, gap < q**(-u/v) iff gap**v *
    q**u < 1, so hi**v * q**u < 2**(k*v) certifies a pass and lo**v *
    q**u >= 2**(k*v) a fail, exact integer tests on gated powers.
    `deepen` doubles k until one holds; undecided, it is InsufficientDepth.
    """
    d_eff = Fraction(d_eff)
    if d_eff <= 2:
        raise InvalidConfigError("d_eff", f"effective exponent must exceed 2, got {d_eff}")
    if c.op is Op.QUOTIENT and n < 2:
        raise InvalidConfigError("n", "quotient verification starts at n=2")
    return _roth_check(c, composite_convergent(c, n), d_eff)


def _roth_check(c: CompositeNumber, conv: Convergent, d_eff: Fraction) -> RothCheck:
    """`verify_roth_instance` on the convergent at conv.n, for d_eff > 2."""
    n = conv.n
    u, v = d_eff.numerator, d_eff.denominator
    check_power("g2", 64, c.g2.bit_length())
    k = -(-exponent_after(c.schedule, n) * power_bits(c.g2, 64) // 64) + GUARD_BITS
    check_power(f"q_{n}", u, conv.q.bit_length())  # the first refusal, as q**u
    qs = None
    for gap in deepen(lambda j: _gap_dyadic(c, conv, j), k, c.schedule):
        k = gap.j
        # hi**v passes its gate before q**u is built; lo <= hi, so lo**v passes too
        stat = gated_pow(gap.hi, v, "gap.hi")
        if qs is None:
            qs = gated_pow(conv.q, u, f"q_{n}")
        stat *= qs
        passed = stat.bit_length() <= k * v
        if not passed:
            stat = gated_pow(gap.lo, v, "gap.lo") * qs
        if passed or stat.bit_length() > k * v:
            return RothCheck(
                n=n, d_eff=d_eff, passed=passed, tie=stat == 1 << k * v,
                margin=root_sci_string(stat, k * v, v, _MARGIN_DIGITS),
                depth=gap.terms, gap=(gap.lo, gap.hi, k))
    raise InsufficientDepth(
        f"no working precision up to {k} bits separates the gap at n={n} from the threshold")


def empirical_exponent(c: CompositeNumber, n: int, depth: int) -> RationalInterval:
    """Interval for -ln(gap)/ln(q_n), the approximation quality at index n.

    Log precision is tied to depth (64*depth fractional bits) so that
    deeper enclosures give strictly narrower exponent intervals.
    """
    conv = composite_convergent(c, n)
    gap = _gap_dyadic(c, conv, c.s2.depth_bits(depth))
    return _exponent_interval((gap.lo, gap.hi, gap.j), conv.q, 64 * depth)


def _exponent_interval(gap: tuple, q: int, prec: int) -> RationalInterval:
    lo, hi, k = gap  # the gap is [lo, hi] * 2**-k
    if lo <= 0:
        raise InsufficientDepth(
            "gap enclosure does not separate from zero; deepen the enclosure")
    den = ln_int_interval(q, prec)
    if den[0] <= 0:
        raise InternalError(f"log enclosure of q={q} is not positive")
    # -ln(gap) = [-(upper ln of hi), -(lower ln of lo)], ends in lowest terms; all
    # logs are on one grid 2**-(prec + 16), so its scale cancels in the quotient.
    # Over den > 0 an end of either sign takes the den end that moves it outward.
    (m_lo, j_lo), (m_hi, j_hi) = lowest_dyadic(lo, k), lowest_dyadic(hi, k)
    num_lo = -ln_fraction_interval(m_hi, 1 << j_hi, prec)[1]
    num_hi = -ln_fraction_interval(m_lo, 1 << j_lo, prec)[0]
    return RationalInterval(Fraction(num_lo, den[1] if num_lo >= 0 else den[0]),
                            Fraction(num_hi, den[0] if num_hi >= 0 else den[1]))


class QuotientForms(namedtuple("QuotientForms", "q_denominator_form p_denominator_form")):
    """Truth values of the two display-level quotient bounds, recorded
    side by side: gap < 4/(q1*q2)**d and gap < 4*(1+theta2)/(q1*p2)**d."""

    __slots__ = ()


class IndexRecord(namedtuple("IndexRecord", "n error notice convergent gap_bound "
                             "bound_dominates roth exponent_interval forms",
                             defaults=(None,) * 8)):
    """What `certify` found at index n: an `error` (a refusal) and a
    `notice`, or the `Convergent`, the `gap_bound` (a Fraction), the
    `RothCheck`, the exponent `RationalInterval` and, for the quotient,
    the `QuotientForms`.  `bound_dominates` cross-checks roth.gap's hi <=
    gap_bound.  Every field but n defaults to None."""

    __slots__ = ()


class WitnessCertificate(namedtuple(
        "WitnessCertificate", "op g1 g2 a1 beta budget_bits d d_eff n_from n_to n0 n0_error "
        "threshold_checks records verdict")):
    """Machine-checkable record of every verified inequality.

    Everything in here was decided by exact rational arithmetic or
    directed log enclosures; records are ordered by index.  The first ten
    fields echo the configuration; `n0` (or `n0_error`) and the tuple of
    `threshold_checks` come from `find_n0`, and `records` holds one
    `IndexRecord` per index.
    """

    __slots__ = ()


def certify(c: CompositeNumber, d, n_range: tuple[int, int]) -> WitnessCertificate:
    """Assemble the full certificate over n in [n_range[0], n_range[1]].

    The strict approximation test runs at d_eff = (2+d)/2, strictly between
    2 and d, absorbing the constant factors of the gap bounds.  Component
    failures are embedded per index; other indices still complete.  Once
    a_n itself does not exist, every later index would repeat the error, so
    the record for n carries a notice and the later ones are omitted.  An
    empty range yields a certificate with a config echo and no records.
    """
    d = Fraction(d)
    if d <= 2:
        raise InvalidConfigError("d", f"exponent target must exceed 2, got {value_label(d)}")
    d_eff = (2 + d) / 2
    n_from, n_to = n_range
    if not isinstance(n_from, int) or not isinstance(n_to, int) or n_from < 1:
        raise InvalidConfigError("n_range", f"need integer bounds with lower >= 1, got {n_range!r}")

    n0 = None
    n0_error = None
    checks: tuple[ThresholdCheck, ...] = ()
    if n_from <= n_to:
        try:
            scan = find_n0(c, d, n_to)
            n0, checks = scan.n0, scan.checks
        except (NotFound, ExponentBudgetExceeded, NonIntegralExponent) as exc:
            n0_error = f"{type(exc).__name__}: {exc}"

    records = []
    for n in range(n_from, n_to + 1):
        rec = _index_record(c, n, d, d_eff)
        if rec.error is not None and n < n_to and len(c.schedule.known()) < n:
            records.append(rec._replace(
                notice=f"a_{n} does not exist, so indices {n + 1}..{n_to} are omitted"))
            break
        records.append(rec)
    passes = sum(1 for r in records if r.roth is not None and r.roth.passed)
    verdict = (f"{passes} of {len(records)} indices pass the strict approximation "
               f"test at exponent {d_eff}")
    if n0 is not None:
        verdict += f"; threshold index n0={n0}"
    return WitnessCertificate(
        op=c.op, g1=c.g1, g2=c.g2,
        a1=c.schedule.a1, beta=c.schedule.beta, budget_bits=c.schedule.budget_bits,
        d=d, d_eff=d_eff, n_from=n_from, n_to=n_to,
        n0=n0, n0_error=n0_error, threshold_checks=checks,
        records=tuple(records), verdict=verdict)


def _index_record(c: CompositeNumber, n: int, d: Fraction, d_eff: Fraction) -> IndexRecord:
    try:
        # the gates of the convergent and of `gap_bound`'s tail, in the order
        # they fire, before the convergent is built
        c.s1.checked_exponent(n)
        c.s2.checked_exponent(n)
        if c.op is Op.QUOTIENT and n < 2:
            return IndexRecord(
                n=n, convergent=composite_convergent(c, n),
                notice="quotient verification starts at n=2; only the convergent is recorded")
        c.s2.checked_exponent(n + 1)
        conv = composite_convergent(c, n)
        # the strict test first: a record it refuses builds no gap bound
        roth = _roth_check(c, conv, d_eff)
        bound = gap_bound(c, n)
        _, hi, k = roth.gap
        try:
            expo = _exponent_interval(roth.gap, conv.q, 64 * roth.depth)
        except InsufficientDepth:
            expo = None
        forms = None
        if c.op is Op.QUOTIENT:
            forms = _quotient_display_forms(c, n, hi, k, d)
        return IndexRecord(
            n=n, convergent=conv, gap_bound=bound,
            bound_dominates=hi * bound.denominator <= bound.numerator << k, roth=roth,
            exponent_interval=expo, forms=forms)
    except (ExponentBudgetExceeded, NonIntegralExponent, PrecisionUnattainable,
            InsufficientDepth, InvalidConfigError) as exc:
        return IndexRecord(n=n, error=f"{type(exc).__name__}: {exc}")


def _quotient_display_forms(c: CompositeNumber, n: int, gap_hi: int, k: int,
                            d: Fraction) -> QuotientForms:
    du, dv = d.numerator, d.denominator
    m, j = lowest_dyadic(gap_hi, k)  # gap.hi = m/2**j in lowest terms
    ps1 = c.s1.partial_sum(n)
    ps2 = c.s2.partial_sum(n)
    h2 = c.s2.on_grid(GUARD_BITS).hi  # theta2 < h2 * 2**-GUARD_BITS
    num = gated_pow(m, dv, "gap.hi")
    check_power("gap.hi", dv, j + 1)  # (2**j)**dv, applied as shifts
    q_form = num * gated_pow(ps1.q * ps2.q, du, "(q1*q2)") < 1 << (j + 2) * dv
    p_form = (num * gated_pow(ps1.q * ps2.p, du, "(q1*p2)") << GUARD_BITS * dv
              < gated_pow(4 * ((1 << GUARD_BITS) + h2), dv, "(4*(1+theta2))") << j * dv)
    return QuotientForms(q_denominator_form=q_form, p_denominator_form=p_form)


def composite_digits(c: CompositeNumber, digits: int) -> str:
    """Toward-zero decimal expansion of the composite value, certified by
    enclosure agreement on the decimal grid exactly like the per-series
    version."""
    return certified_digits(lambda k: _value_on_grid(c, k, DECIMAL), digits, c.schedule)
