"""A single sparse series theta = sum of base**(-a_n): exact rationals only.

The n-th partial sum over a common denominator g**a_n has numerator
N = sum(g**(a_n - a_k), k=1..n).  Every term but the last is divisible
by g, so N = 1 (mod g) and the fraction is already reduced; the reduced
denominator g**a_n is an invariant this module actively checks.

Partial sums are materialized on demand: q_n has Theta(a_n) digits, so
construction of g**e passes the intmath size gate first.  Tail bounds come in
two grades: the citable pair (1/g**a_{n+1}, 2/g**a_{n+1}) and the
tighter certified bound g/(g-1) * g**(-a_{n+1}) behind every enclosure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExponentBudgetExceeded,
    InternalError,
    InvalidConfigError,
    PrecisionUnattainable,
)
from .intmath import check_power, decimal_str
from .interval import RationalInterval
from .schedule import PowerSchedule


@dataclass(frozen=True)
class Convergent:
    """A reduced fraction p/q tagged with the index it came from."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidConfigError("n", f"index must be positive, got {self.n}")
        if self.q < 1:
            raise InvalidConfigError("q", f"denominator must be positive, got {self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise InvalidConfigError("p/q", f"not reduced: gcd({self.p}, {self.q}) > 1")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


class LacunarySeries:
    """theta = sum over n >= 1 of base**(-a_n), a_n from a PowerSchedule."""

    def __init__(self, base: int, schedule: PowerSchedule):
        if not isinstance(base, int) or isinstance(base, bool) or base < 2:
            raise InvalidConfigError("base", f"must be an integer >= 2, got {base!r}")
        self.base = base
        self.schedule = schedule
        self._enclosures: dict[int, RationalInterval] = {}

    def __repr__(self) -> str:
        return f"LacunarySeries(base={self.base}, schedule={self.schedule!r})"

    def _power(self, e: int) -> int:
        """base**e, refused when the result would be absurdly wide."""
        check_power(self.base, e, self.base.bit_length())
        return self.base ** e

    def partial_sum(self, n: int) -> Convergent:
        """First n terms as a reduced fraction; denominator is base**a_n."""
        if not isinstance(n, int) or n < 1:
            raise InvalidConfigError("n", f"index must be a positive integer, got {n!r}")
        a_n = self.schedule.exponent(n)
        q = self._power(a_n)
        p = sum(self._power(a_n - self.schedule.exponent(k)) for k in range(1, n + 1))
        if p % self.base != 1:
            raise InternalError(f"numerator {p} is not 1 mod {self.base}; reduction law broken")
        if not 0 < p < q:
            raise InternalError(f"partial sum {p}/{q} escaped (0, 1)")
        return Convergent(n, p, q)

    def tail_sandwich(self, n: int) -> tuple[Fraction, Fraction]:
        """The citable two-sided tail bracket (1/g**a_{n+1}, 2/g**a_{n+1})."""
        step = self._power(self.schedule.exponent(n + 1))
        return Fraction(1, step), Fraction(2, step)

    def rigorous_tail_upper(self, n: int) -> Fraction:
        """Certified bound g/(g-1) * g**(-e) on the tail past n terms.

        e = a_{n+1}: exponents increase by at least 1, so the tail is
        dominated by the geometric series with ratio 1/g.  When a_{n+1}
        is over the exponent budget or the materialization cap, e falls
        back to 2*a_n, still sound because each step multiplies the
        exponent by an integer factor >= 2.
        """
        try:
            step = self._power(self.schedule.exponent(n + 1))
        except ExponentBudgetExceeded:
            step = self._power(2 * self.schedule.exponent(n))
        return Fraction(self.base, (self.base - 1) * step)

    def enclose(self, n_terms: int) -> RationalInterval:
        """Exact interval containing theta, width shrinking in n_terms."""
        iv = self._enclosures.get(n_terms)
        if iv is None:
            s = self.partial_sum(n_terms).fraction
            iv = self._enclosures[n_terms] = RationalInterval(
                s, s + self.rigorous_tail_upper(n_terms))
        return iv

    def decimal_digits(self, digits: int) -> str:
        """Decimal expansion of theta truncated toward zero to `digits` places."""
        return certified_digits(self.enclose, digits)


def certified_digits(enclose, digits: int) -> str:
    """Toward-zero expansion to `digits` places of the value that every
    `enclose(depth)` interval contains.

    Correctness is certified by interval agreement: depths 1, 2, ... are
    tried until both endpoints truncate identically.  The loop ends by
    depth 25 at the latest: a_{m+1} >= 2*a_m, so g**a_m is over the size
    cap by then and `enclose` refuses.
    """
    if not isinstance(digits, int) or digits < 1:
        raise InvalidConfigError("digits", f"must be a positive integer, got {digits!r}")
    for depth in itertools.count(1):
        try:
            iv = enclose(depth)
        except ExponentBudgetExceeded as exc:
            raise PrecisionUnattainable(
                f"no enclosure tight enough for {digits} decimal places "
                f"within the configured budgets") from exc
        s = digits_from_interval(iv, digits)
        if s is not None:
            return s


def digits_from_interval(iv: RationalInterval, digits: int) -> str | None:
    """Toward-zero decimal string, or None if the endpoints disagree.

    Both endpoints must truncate to the same multiple of 10**-digits;
    then that truncation is the correct toward-zero expansion of every
    value in the interval.  An interval too wide for that is refused from
    its denominators' bit lengths alone, before 10**digits is built.
    """
    if digits < 1:
        raise InvalidConfigError("digits", f"must be positive, got {digits}")
    lo, hi = iv.lo, iv.hi
    # hi - lo >= 1/(lo.den*hi.den) > 2**(-3*digits) > 10**-digits, so ends
    # on one side of 0 truncate apart; ends across 0 agree only when both
    # truncate to 0, which needs each denominator over 10**digits.
    if lo != hi and 3 * digits >= lo.denominator.bit_length() + hi.denominator.bit_length():
        return None
    scale = 10 ** digits
    t_lo = int(lo * scale)  # int() on Fraction truncates toward zero
    t_hi = int(hi * scale)
    if t_lo != t_hi:
        return None
    return format_fixed(t_lo, digits)


def format_fixed(t: int, digits: int) -> str:
    """Render t * 10**-digits in plain decimal with `digits` places."""
    sign = "-" if t < 0 else ""
    s = decimal_str(abs(t)).zfill(digits + 1)
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def deepest_feasible(s: LacunarySeries) -> int:
    """Largest depth m for which enclose(s, m) stays within every budget.

    Checks the worst case per level: the partial sum needs base**a_m and
    the tail bound may fall back to base**(2*a_m).  Stops at the schedule
    end or the first size refusal, by m = 25 since a_m >= 2**m.  Returns
    0 when even one term is out of reach.
    """
    for deepest in itertools.count():
        try:
            e = 2 * s.schedule.exponent(deepest + 1)
            check_power(s.base, e, s.base.bit_length())
        except ExponentBudgetExceeded:
            return deepest
