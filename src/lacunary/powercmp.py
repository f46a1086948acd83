"""Order relations between pure powers b**e too large to materialize.

Two pure powers (`compare`), in order:
  1. zero exponents are handled directly (b**0 = 1);
  2. exact equality by one root: with g = gcd(e1, e2) and s_i = e_i/g,
     b1**e1 == b2**e2 iff b1 = c**s2 and b2 = c**s1 for an integer c
     (s1 and s2 are coprime), so one `introot(b1, s2)` and one exact
     comparison of c**s1 with b2 settle it;
  3. for unequal values, e1*ln(b1) vs e2*ln(b2) is decided with
     directed-rounding log enclosures, doubling the precision until the
     intervals separate (termination is guaranteed by step 2).

A pure power against a positive integer threshold (`power_vs_threshold`)
is decided by bit lengths alone, or by one exact comparison no more than
twice the size of the threshold.

No floating point touches any decision.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import InvalidConfigError
from .intmath import introot, pow_bracket
from .logenc import ln_int_interval

_START_PREC = 64


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class PurePower(namedtuple("PurePower", "base exp")):
    """An integer of the form base**exp, kept symbolic."""

    __slots__ = ()

    def __new__(cls, base: int, exp: int):
        if not isinstance(base, int) or isinstance(base, bool) or base < 2:
            raise InvalidConfigError("base", f"must be an integer >= 2, got {base!r}")
        if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
            raise InvalidConfigError("exp", f"must be a nonnegative integer, got {exp!r}")
        return tuple.__new__(cls, (base, exp))

    def materialize(self) -> int:
        return self.base ** self.exp

    def bits(self) -> int:
        """bits(base**exp), read off a 128-bit `pow_bracket` when both its
        ends have one bit length.  base**exp itself is built only when the
        bracket straddles a power of two, so a caller that may reach that
        route runs `check_power` first."""
        lo, hi, t = pow_bracket(self.base, self.exp, 128)
        if lo.bit_length() == hi.bit_length():
            return lo.bit_length() + t
        return self.materialize().bit_length()


class CompareDiagnostics(namedtuple("CompareDiagnostics", "ordering method precisions",
                                    defaults=((),))):
    """How a comparison was decided: `method` is "exponent-zero",
    "common-base" or "log-enclosure", and `precisions` lists the
    fractional-bit precisions tried on the log path (doubling schedule)."""

    __slots__ = ()


def compare(x: PurePower, y: PurePower) -> Ordering:
    return compare_trace(x, y).ordering


def compare_trace(x: PurePower, y: PurePower) -> CompareDiagnostics:
    """Ordering of the exact values of x and y, with decision diagnostics."""
    if x.exp == 0 or y.exp == 0:
        if x.exp == y.exp:
            order = Ordering.EQUAL
        elif x.exp == 0:
            order = Ordering.LESS
        else:
            order = Ordering.GREATER
        return CompareDiagnostics(order, "exponent-zero")
    g = math.gcd(x.exp, y.exp)
    s1, s2 = x.exp // g, y.exp // g
    c, exact = introot(x.base, s2)
    if exact and power_vs_threshold(PurePower(c, s1), y.base) is Ordering.EQUAL:
        return CompareDiagnostics(Ordering.EQUAL, "common-base")
    # positive exponents and unequal values, so the log refinement below
    # terminates
    prec = _START_PREC
    tried = []
    while True:
        tried.append(prec)
        x_lo, x_hi = ln_int_interval(x.base, prec)
        y_lo, y_hi = ln_int_interval(y.base, prec)
        if x.exp * x_hi < y.exp * y_lo:
            return CompareDiagnostics(Ordering.LESS, "log-enclosure", tuple(tried))
        if y.exp * y_hi < x.exp * x_lo:
            return CompareDiagnostics(Ordering.GREATER, "log-enclosure", tuple(tried))
        prec *= 2


def power_vs_threshold(x: PurePower, t: int) -> Ordering:
    """Ordering of base**exp against a positive integer threshold t.

    With bl = base.bit_length(), base**exp lies in [2**(exp*(bl-1)),
    2**(exp*bl)] and t in [2**(bits(t) - 1), 2**bits(t)).  Disjoint ranges
    decide the order; otherwise base**exp has under 2*bits(t) bits, and one
    exact comparison settles it at no more than twice the size of the
    threshold the caller already built.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise InvalidConfigError("threshold", f"must be a positive integer, got {t!r}")
    bl, tb = x.base.bit_length(), t.bit_length()
    if x.exp * bl < tb - 1:
        return Ordering.LESS
    if x.exp * (bl - 1) >= tb:
        return Ordering.GREATER
    v = x.materialize()
    if v < t:
        return Ordering.LESS
    if v > t:
        return Ordering.GREATER
    return Ordering.EQUAL
