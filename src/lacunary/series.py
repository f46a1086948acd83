"""A single sparse series theta = sum of base**(-a_n): exact rationals only.

The n-th partial sum over a common denominator g**a_n has numerator
N = sum(g**(a_n - a_k), k=1..n).  Every term but the last is divisible
by g, so N = 1 (mod g) and the fraction is already reduced; the reduced
denominator g**a_n is an invariant this module actively checks.

Partial sums are materialized on demand: q_n has Theta(a_n) digits, so
construction of g**e passes the intmath size gate first.  Enclosures lie
on one of two grids: integers [lo, hi] on the grid radix**-j for a
working precision picked from the question, with the terms chosen and
the tail bounded by one rule whose only parameter is the grid.  The
binary grid 2**-j (ints, shifts) serves the witness path, whose
decisions are bit-length tests.  The decimal grid 10**-j (integral
`decimal.Decimal`s, exact libmpdec arithmetic) serves `digits`, whose
output is then born decimal and prints with `str`.  The citable tail
pair is (1/g**a_{n+1}, 2/g**a_{n+1}); `on_grid` bounds the tail by
g/(g-1) * g**(-a_{n+1}).
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    ExponentBudgetExceeded,
    InternalError,
    InvalidConfigError,
    NonIntegralExponent,
    PrecisionUnattainable,
)
from .intmath import (MATERIALIZE_BITS, check_power, decimal_places, decimal_power, exact_decimal,
                      gated_pow, int_divmod)
from .interval import RationalInterval
from .powercmp import PurePower
from .schedule import PowerSchedule

# Working precision beyond the size of the quantity a decision needs.
GUARD_BITS = 64
# A value in [lo, hi] * R**-j, from `terms` terms; `end` is the index the schedule refused, or None
Enclosure = namedtuple("Enclosure", "lo hi j terms end")


class BinaryGrid:
    """Ends as ints on the grid 2**-j; a place is a bit."""

    radix = 2
    number = int
    scale = staticmethod(int.__lshift__)  # x * 2**j
    floor_unscale = staticmethod(int.__rshift__)  # floor(x * 2**-j)
    divmod = staticmethod(int_divmod)  # floored

    def places(self, k: int) -> int:
        return k

    def log_bounds(self, g: int) -> tuple:
        """(num, den, up) with num/den <= log2(g) < up.  The lower bound
        stays floor(log2 g): a finer one changes the witness certificates'
        bytes, and the terms it adds floor to 0 and are counted, not built."""
        return g.bit_length() - 1, 1, g.bit_length()

    def power(self, g: int, e: int) -> int:
        return gated_pow(g, e)

    def inverse_power(self, g: int, a: int, j: int) -> int:
        """floor(2**j / g**a) for z*a <= j, gated as g**a: g = o * 2**z with o
        odd is a shift by z*a and a division by o**a, skipped (the floor is
        0) when o > 1 and bits(o**a) > m = j - z*a, so that o**a > 2**m."""
        z = (g & -g).bit_length() - 1
        check_power(g, a, g.bit_length())
        o, m = g >> z, j - z * a
        if a * o.bit_length() > m and o > 1 and PurePower(o, a).bits() > m:
            return 0
        return int_divmod(1 << m, o ** a)[0]


class DecimalGrid:
    """Ends as integral Decimals on the grid 10**-j; a place is a digit.
    Every operation is exact only in `exact_decimal`'s context.  Powers
    come from `intmath.decimal_power`'s one table, kept across calls."""

    radix = 10
    number = decimal.Decimal

    places = staticmethod(decimal_places)  # 10**-places(k) <= 2**-k

    @functools.lru_cache(maxsize=64)
    def log_bounds(self, g: int) -> tuple:
        """(num, den, up) with num/den <= log10(g) < up: the adjusted
        exponent of an integral Decimal is its floor(log10)."""
        with exact_decimal():
            return self.power(g, 64).adjusted(), 64, decimal.Decimal(g).adjusted() + 1

    @functools.lru_cache(maxsize=64)
    def split(self, g: int) -> tuple:
        """(p, d, c, o) with g = 2**z * 5**w * o, o prime to 10, c = max(z,
        w), and p**d = 5**(z-w) or 2**(w-z): then 10**j / g**a = p**(d*a) *
        10**(j - c*a) / o**a."""
        z = (g & -g).bit_length() - 1
        o, w = g >> z, 0
        while o % 5 == 0:
            o, w = o // 5, w + 1
        return (5, z - w, z, o) if z >= w else (2, w - z, w, o)

    def power(self, g: int, e: int) -> decimal.Decimal:
        """Decimal(g**e), gated as g**e."""
        check_power(g, e, g.bit_length())
        return decimal_power(g, e)

    def inverse_power(self, g: int, a: int, j: int) -> decimal.Decimal:
        """floor(10**j / g**a), gated as g**a: the cut of p**(d*a) *
        10**(j - c*a) to an integer (`split`), divided by o**a.  Since
        floor(floor(x/m)/n) = floor(x/(m*n)), that is the same integer.
        Where only p**(d*a) is over the cap, 10**j // g**a."""
        check_power(g, a, g.bit_length())
        p, d, c, o = self.split(g)
        n = decimal.Decimal(1)
        if d:
            try:
                n = self.power(p, d * a)
            except ExponentBudgetExceeded:
                return n.scaleb(j) // decimal_power(g, a)
        n = n.scaleb(j - c * a)
        if j < c * a:
            n = n.to_integral_value(rounding=decimal.ROUND_FLOOR)
        return n // decimal_power(o, a) if o > 1 else n  # o**a is gated by g**a

    @staticmethod
    def scale(x: decimal.Decimal, j: int) -> decimal.Decimal:
        return x.scaleb(j)

    @staticmethod
    def floor_unscale(x: decimal.Decimal, j: int) -> decimal.Decimal:
        return x.scaleb(-j).to_integral_value(rounding=decimal.ROUND_FLOOR)

    @staticmethod
    def divmod(x: decimal.Decimal, y: decimal.Decimal) -> tuple:
        """Floored divmod: Decimal's own truncates toward zero."""
        q, r = divmod(x, y)
        if r and (r < 0) != (y < 0):
            return q - 1, r + y
        return q, r


BINARY = BinaryGrid()
DECIMAL = DecimalGrid()


class Convergent(namedtuple("Convergent", "n p q")):
    """A reduced fraction p/q tagged with the index it came from."""

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int):
        if n < 1:
            raise InvalidConfigError("n", f"index must be positive, got {n}")
        if q < 1:
            raise InvalidConfigError("q", f"denominator must be positive, got {q}")
        if math.gcd(p, q) != 1:
            raise InvalidConfigError("p/q", f"not reduced: gcd({p}, {q}) > 1")
        return tuple.__new__(cls, (n, p, q))

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
        self._partial: dict[int, Convergent] = {}
        self._on_grid: dict[tuple, Enclosure] = {}

    def __repr__(self) -> str:
        return f"LacunarySeries(base={self.base}, schedule={self.schedule!r})"

    def checked_exponent(self, n: int) -> int:
        """a_n, once the schedule has it and base**a_n passes the size gate:
        the one check that decides whether `partial_sum(n)` is refused, and
        with which error, before anything is built."""
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
        """The binary precision at which `on_grid` sums exactly m terms, as
        fine as the tail of the exact m-term enclosure."""
        num, den, _ = BINARY.log_bounds(self.base)
        return exponent_after(self.schedule, m) * num // den - 3

    def on_grid(self, k: int, grid=BINARY) -> Enclosure:
        """theta as an `Enclosure` on the grid of radix R; k and j count the
        grid's places.

        With num/den <= log_R(g) (`grid.log_bounds`), so that g**a >=
        R**(a*num/den), lo sums floor(R**j / g**a_m) over the M = `terms`
        exponents with a_m*num/den <= k+2 (a_1 always) and falls short by
        under M units.  The tail is under g/(g-1) * g**-e <= 2 *
        R**(-e*num/den) for e <= a_{M+1}: a quarter unit at most if
        e*num/den >= k+3, so hi = lo + M + 1, j = k and the width is (M +
        c) * R**-k with c = 1.  Otherwise the schedule ended first (`end`
        is the index it refused) and no k narrows the interval: j drops to
        e*up plus GUARD_BITS' worth of places (log_R(g) < up) and the tail
        is rounded up.  R**j passes the size gate as a power of R, at
        bits(R-1) bits a place.
        """
        got = self._on_grid.get((grid.radix, k))
        if got is not None:
            return got
        g = self.base
        num, den, up = grid.log_bounds(g)
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
            if end is not None or e * num > (k + 2) * den:
                break
            exps.append(e)
        short = e * num < (k + 3) * den
        j = min(k, e * up + grid.places(GUARD_BITS)) if short else k
        check_power(grid.radix, j, (grid.radix - 1).bit_length())  # R <= 2**bits(R-1)
        with exact_decimal():
            tail = 1
            if short:  # ceil(g * R**j / ((g-1) * g**e))
                q, r = grid.divmod(grid.scale(grid.number(g), j), (g - 1) * grid.power(g, e))
                tail = q + (r > 0)
            # floor(R**j / g**a) is 0 once g**a > R**j
            lo = sum((grid.inverse_power(g, a, j) for a in exps if a * num <= j * den),
                     grid.number(0))
            hi = lo + len(exps) + tail
        got = self._on_grid[grid.radix, k] = Enclosure(lo, hi, j, len(exps), end if short else None)
        return got

    def enclose(self, n_terms: int) -> RationalInterval:
        """Interval containing theta: `on_grid` at `depth_bits(n_terms)`."""
        got = self.on_grid(self.depth_bits(n_terms))
        return RationalInterval.dyadic(got.lo, got.hi, got.j)

    def decimal_digits(self, digits: int) -> str:
        """Decimal expansion of theta truncated toward zero to `digits` places."""
        return certified_digits(lambda k: self.on_grid(k, DECIMAL), digits, self.schedule)


def exponent_after(schedule: PowerSchedule, m: int) -> int:
    """a_{m+1}, or 2*a_m once a_{m+1} is over the exponent budget:
    a_{m+1} = a_m * r**u >= 2*a_m for a_m = r**v."""
    try:
        return schedule.exponent(m + 1)
    except ExponentBudgetExceeded:
        return 2 * schedule.exponent(m)


def deepen(enclose, k: int, schedule: PowerSchedule):
    """Yield `enclose(k)`, `enclose(2k)`, ... (`Enclosure`s, k counted in
    bits) until one stalls at the schedule's end or 2k would pass
    MATERIALIZE_BITS.  A stall asks the schedule for the refused index
    again, so a non-integral exponent is raised in its own words."""
    while True:
        got = enclose(k)
        yield got
        if got.end is not None:
            with contextlib.suppress(ExponentBudgetExceeded):
                schedule.exponent(got.end)
        if got.end is not None or 2 * k > MATERIALIZE_BITS:
            return
        k *= 2


def certified_digits(enclose, digits: int, schedule: PowerSchedule) -> str:
    """Toward-zero expansion to `digits` places of the value that every
    `Enclosure` `enclose(K)` on the decimal grid 10**-K contains.

    `deepen` runs k up in bits from ceil(digits*log2(10)) + GUARD_BITS,
    and each enclosure is taken at K = DECIMAL.places(k), so that 10**-K
    <= 2**-k, until both ends truncate alike; else it is
    PrecisionUnattainable.  An end x * 10**-j truncates to x * 10**(digits
    - j) rounded toward zero: an exponent shift and a cut, with no product
    and no radix conversion.  The binary grid serves the witness path.
    """
    if not isinstance(digits, int) or digits < 1:
        raise InvalidConfigError("digits", f"must be a positive integer, got {digits!r}")
    k = digits * 3322 // 1000 + GUARD_BITS + 1
    with exact_decimal(), contextlib.suppress(ExponentBudgetExceeded):
        for got in deepen(lambda k: enclose(DECIMAL.places(k)), k, schedule):
            if got.j <= digits:  # a grid no finer than 10**-digits: hi > lo truncate apart
                continue
            t = [x.scaleb(digits - got.j).to_integral_value(rounding=decimal.ROUND_DOWN)
                 for x in (got.lo, got.hi)]
            if t[0] == t[1]:  # t has exponent 0
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


def format_fixed(t, digits: int) -> str:
    """Render t * 10**-digits in plain decimal with `digits` places, for an
    int t or an integral Decimal t of exponent 0."""
    sign = "-" if t < 0 else ""
    s = str(abs(t)).zfill(digits + 1)
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def deepest_feasible(s: LacunarySeries) -> int:
    """Largest depth m with a_m inside the exponent budget and
    base**(2*a_m) under the size cap.

    Stops at the exponent budget or the first size refusal, by m = 25
    since a_m >= 2**m; a non-integral a_m is raised as
    NonIntegralExponent.  Returns 0 when even one term is out of reach.
    """
    for deepest in itertools.count():
        try:
            e = 2 * s.schedule.exponent(deepest + 1)
            check_power(s.base, e, s.base.bit_length())
        except ExponentBudgetExceeded:
            return deepest
