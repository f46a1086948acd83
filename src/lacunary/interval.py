"""Exact rational intervals used as rigorous enclosures.

Endpoints are ``fractions.Fraction``; every operation is exact, so an
interval that encloses a real number keeps enclosing it through any chain
of arithmetic here (no rounding anywhere).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

Rat = int | Fraction


class RationalInterval(namedtuple("RationalInterval", "lo hi")):
    """[lo, hi] with Fraction ends.  Its operators are interval arithmetic:
    `+` and `*` are not the tuple's concatenation and repetition, and `in`
    tests a number's membership."""

    __slots__ = ()

    def __new__(cls, lo: Rat, hi: Rat):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def point(cls, x: Rat) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @classmethod
    def dyadic(cls, lo: int, hi: int, k: int) -> "RationalInterval":
        """[lo * 2**-k, hi * 2**-k]."""
        return cls(Fraction(lo, 1 << k), Fraction(hi, 1 << k))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x: Rat) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def within(self, other: "RationalInterval") -> bool:
        """True if self is a subset of other."""
        return other.lo <= self.lo and self.hi <= other.hi

    def strictly_within(self, other: "RationalInterval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __add__(self, other) -> "RationalInterval":
        other = _coerce(other)
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalInterval":
        other = _coerce(other)
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other) -> "RationalInterval":
        return _coerce(other) - self

    def __mul__(self, other) -> "RationalInterval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalInterval":
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        return self * RationalInterval(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other) -> "RationalInterval":
        return _coerce(other) / self

    def abs(self) -> "RationalInterval":
        """Enclosure of |x| over x in self."""
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

    def __repr__(self) -> str:
        return f"RationalInterval({self.lo}, {self.hi})"


def _coerce(x) -> RationalInterval:
    if isinstance(x, RationalInterval):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalInterval.point(x)
    raise TypeError(f"cannot interpret {x!r} as a rational interval")
