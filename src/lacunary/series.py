"""A single sparse series theta = sum of base**(-a_n): exact rationals only.

The n-th partial sum over a common denominator g**a_n has numerator
N = sum(g**(a_n - a_k), k=1..n).  Every term but the last is divisible
by g, so N = 1 (mod g) and the fraction is already reduced; the reduced
denominator g**a_n is an invariant this module actively checks.

Partial sums are materialized on demand: q_n has Theta(a_n) digits, so
construction of g**e passes the intmath size gate first.  Enclosures are
dyadic: integers [lo, hi] on the 2**-k grid for a working precision k
picked from the question, with the tail bounded by bit lengths.  The
citable tail pair is (1/g**a_{n+1}, 2/g**a_{n+1}); `dyadic` bounds the
tail by g/(g-1) * g**(-a_{n+1}).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExponentBudgetExceeded,
    InternalError,
    InvalidConfigError,
    NonIntegralExponent,
    PrecisionUnattainable,
)
from .intmath import MATERIALIZE_BITS, check_power, decimal_str, gated_pow, int_divmod
from .interval import RationalInterval
from .schedule import PowerSchedule

# Working precision beyond the size of the quantity a decision needs.
GUARD_BITS = 64


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
        self._twos = (base & -base).bit_length() - 1  # base = odd * 2**twos
        self._odd = base >> self._twos
        self._partial: dict[int, Convergent] = {}
        self._dyadic: dict[int, tuple] = {}

    def __repr__(self) -> str:
        return f"LacunarySeries(base={self.base}, schedule={self.schedule!r})"

    def _split_power(self, e: int) -> tuple[int, int]:
        """(odd**e, twos*e), so that base**e = odd**e << twos*e; refused as
        base**e by the size gate, exactly as `gated_pow` refuses it."""
        check_power(self.base, e, self.base.bit_length())
        return self._odd ** e, self._twos * e

    def checked_exponent(self, n: int) -> int:
        """a_n, once the schedule has it and base**a_n passes the size gate:
        the one check that decides whether `partial_sum(n)` is refused, and
        with which error, before anything is built."""
        if not isinstance(n, int) or n < 1:
            raise InvalidConfigError("n", f"index must be a positive integer, got {n!r}")
        a_n = self.schedule.exponent(n)
        check_power(self.base, a_n, self.base.bit_length())
        return a_n

    def partial_sum(self, n: int) -> Convergent:
        """First n terms as a reduced fraction; denominator is base**a_n.
        Built once per index."""
        a_n = self.checked_exponent(n)
        got = self._partial.get(n)
        if got is not None:
            return got
        q = self.base ** a_n
        p = sum(self.base ** (a_n - self.schedule.exponent(k)) for k in range(1, n + 1))
        if p % self.base != 1:
            raise InternalError(f"numerator {p} is not 1 mod {self.base}; reduction law broken")
        if not 0 < p < q:
            raise InternalError(f"partial sum {p}/{q} escaped (0, 1)")
        got = self._partial[n] = Convergent(n, p, q)
        return got

    def tail_sandwich(self, n: int) -> tuple[Fraction, Fraction]:
        """The citable two-sided tail bracket (1/g**a_{n+1}, 2/g**a_{n+1})."""
        step = gated_pow(self.base, self.schedule.exponent(n + 1))
        return Fraction(1, step), Fraction(2, step)

    def depth_bits(self, m: int) -> int:
        """The precision at which `dyadic` sums exactly m terms, as fine as
        the tail of the exact m-term enclosure."""
        return exponent_after(self.schedule, m) * (self.base.bit_length() - 1) - 3

    def dyadic(self, k: int) -> tuple:
        """theta in [lo, hi] * 2**-j, as (lo, hi, j, terms, end).

        With b = bits(g) - 1, so that g**a >= 2**(a*b), lo sums (2**j) //
        g**a_m over the M = `terms` exponents with a_m*b <= k+2 (a_1
        always) and falls short by under M units.  For g = o * 2**z with o
        odd each term is (2**(j - a_m*z)) // o**a_m, a shift when o = 1,
        and the size gate still judges g**a_m.  The tail is under
        g/(g-1) * g**-e <= 2**(1-e*b) for e <= a_{M+1}: a quarter unit if
        e*b >= k+3, so hi = lo + M + 1, j = k and the width is (M + c) *
        2**-k with c = 1.  Otherwise the schedule ended first (`end` is
        the index it refused) and no k narrows the interval: j drops to
        e*bits(g) + GUARD_BITS and the tail is rounded up.
        """
        got = self._dyadic.get(k)
        if got is not None:
            return got
        g, b = self.base, self.base.bit_length() - 1
        exps = [self.schedule.exponent(1)]
        while True:
            m = len(exps)
            try:
                e = exponent_after(self.schedule, m)
            except NonIntegralExponent:
                if m == 1:
                    raise
                e = exps.pop()  # no a_{m+1}: the tail starts at a_m
            end = m + 1 if len(self.schedule.known()) == m else None
            if end is not None or e * b > k + 2:
                break
            exps.append(e)
        short = e * b < k + 3
        j = min(k, e * g.bit_length() + GUARD_BITS) if short else k
        check_power(2, j, 1)
        tail = 1
        if short:  # ceil(g * 2**j / ((g-1) * g**e))
            q, r = int_divmod(g << j, (g - 1) * gated_pow(g, e))
            tail = q + (r > 0)
        lo = 0
        for a in exps:
            if a * b <= j:  # floor(2**j / g**a), and s <= a*b <= j
                odd, s = self._split_power(a)
                lo += int_divmod(1 << j - s, odd)[0]
        got = self._dyadic[k] = (lo, lo + len(exps) + tail, j, len(exps), end if short else None)
        return got

    def enclose(self, n_terms: int) -> RationalInterval:
        """Interval containing theta: `dyadic` at `depth_bits(n_terms)`."""
        lo, hi, k, _, _ = self.dyadic(self.depth_bits(n_terms))
        return RationalInterval.dyadic(lo, hi, k)

    def decimal_digits(self, digits: int) -> str:
        """Decimal expansion of theta truncated toward zero to `digits` places."""
        return certified_digits(self.dyadic, digits, self.schedule)


def exponent_after(schedule: PowerSchedule, m: int) -> int:
    """a_{m+1}, or 2*a_m once a_{m+1} is over the exponent budget:
    a_{m+1} = a_m * r**u >= 2*a_m for a_m = r**v."""
    try:
        return schedule.exponent(m + 1)
    except ExponentBudgetExceeded:
        return 2 * schedule.exponent(m)


def deepen(enclose, k: int, schedule: PowerSchedule):
    """Yield `enclose(k)`, `enclose(2k)`, ... (dyadic enclosures as from
    `LacunarySeries.dyadic`) until one stalls at the schedule's end or 2k
    would pass MATERIALIZE_BITS.  A stall asks the schedule for the refused
    index again, so a non-integral exponent is raised in its own words."""
    while True:
        got = enclose(k)
        yield got
        if got[4] is not None:
            with contextlib.suppress(ExponentBudgetExceeded):
                schedule.exponent(got[4])
        if got[4] is not None or 2 * k > MATERIALIZE_BITS:
            return
        k *= 2


def certified_digits(enclose, digits: int, schedule: PowerSchedule) -> str:
    """Toward-zero expansion to `digits` places of the value that every
    dyadic enclosure `enclose(k)` (as `LacunarySeries.dyadic`) contains.

    `deepen` runs k up from ceil(digits*log2(10)) + GUARD_BITS until both
    ends truncate alike; else it is PrecisionUnattainable.

    An end x truncates to x * 10**digits >> j = x * 5**digits >> (j -
    digits), so lo * 5**digits is the one full-width product and hi's is
    that plus (hi - lo) * 5**digits.  The shift is legal: hi > lo for every
    enclosure, so the width test below passes only when j >= 3*digits.
    """
    if not isinstance(digits, int) or digits < 1:
        raise InvalidConfigError("digits", f"must be a positive integer, got {digits!r}")
    k = digits * 3322 // 1000 + GUARD_BITS + 1
    with contextlib.suppress(ExponentBudgetExceeded):
        for lo, hi, j, _, _ in deepen(enclose, k, schedule):
            # a width of 2**(1-3*digits) > 2 * 10**-digits separates the
            # truncations, so it is refused before 5**digits is built
            if hi - lo < 1 << max(0, j + 1 - 3 * digits):
                scale = 5 ** digits
                big = lo * scale
                s = j - digits
                t = [-(-x >> s) if x < 0 else x >> s for x in (big, big + (hi - lo) * scale)]
                if t[0] == t[1]:
                    return format_fixed(t[0], digits)
    raise PrecisionUnattainable(
        f"no enclosure tight enough for {digits} decimal places within the configured budgets")


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
    """Largest depth m with a_m inside the exponent budget and
    base**(2*a_m) under the size cap.

    Stops at the schedule end or the first size refusal, by m = 25 since
    a_m >= 2**m.  Returns 0 when even one term is out of reach.
    """
    for deepest in itertools.count():
        try:
            e = 2 * s.schedule.exponent(deepest + 1)
            check_power(s.base, e, s.base.bit_length())
        except ExponentBudgetExceeded:
            return deepest
