"""Approximation-measure machinery for algebraic targets of bounded
degree and height.

Two pieces: the closed-form measure 1/(2*H*d**2)**(1+4*d), and the
bracketing index n1 with (g1*g2)**(a_n/2) < 2*H*d**2 < (g1*g2)**(a_{n+1}/2),
decided on squared quantities so half exponents never appear.  Height is
the naive height (max |coefficient| of the minimal polynomial), an
integer >= 1.

Strict bracketing can be impossible when 2*H*d**2 lands exactly on a
power boundary; that surfaces as TieEncountered naming the index and
side, never as a silent pass.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InvalidConfigError, NotFound, TieEncountered
from .intmath import exact_decimal
from .powercmp import Ordering, PurePower, power_vs_threshold
from .series import DECIMAL
from .witness import CompositeNumber


class AlgebraicTarget(namedtuple("AlgebraicTarget", "degree height")):
    """An algebraic number known only through its degree and height."""

    __slots__ = ()

    def __new__(cls, degree: int, height: int):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 2:
            raise InvalidConfigError("degree", f"must be an integer >= 2, got {degree!r}")
        if not isinstance(height, int) or isinstance(height, bool) or height < 1:
            raise InvalidConfigError("height", f"must be an integer >= 1, got {height!r}")
        return tuple.__new__(cls, (degree, height))


class MeasureBound(namedtuple("MeasureBound", "base exponent derivation")):
    """Distance bound |value - target| > 1/base**exponent with its
    derivation trace, a tuple of lines."""

    __slots__ = ()

    @property
    def bound(self) -> Fraction:
        """1/base**exponent, built only on request: the CLI never reads it."""
        return Fraction(1, self.base ** self.exponent)


def approximation_measure(t: AlgebraicTarget) -> MeasureBound:
    """Closed-form bound 1/(2*H*d**2)**(1+4*d), independent of the series.

    The denominator is printed from the decimal grid's gated power, in
    the exact context: it is never built as an int."""
    d, h = t.degree, t.height
    base = 2 * h * d * d
    expo = 1 + 4 * d
    with exact_decimal():
        denominator = str(DECIMAL.power(base, expo))
    derivation = (
        f"target: degree d = {d}, height H = {h}",
        f"base: 2*H*d^2 = {base}",
        f"exponent: 1+4*d = {expo}",
        f"bound: 1/({base})^{expo}",
        f"denominator: {denominator}",
    )
    return MeasureBound(base=base, exponent=expo, derivation=derivation)


class BracketEvidence(namedtuple("BracketEvidence", "n left right")):
    """Orderings behind one bracketing attempt: left is
    (g1*g2)**a_n vs (2*H*d**2)**2, right is (g1*g2)**a_{n+1} vs the same
    square.  right is None when the left side already disqualified n."""

    __slots__ = ()


class N1Result(namedtuple("N1Result", "n1 evidence dominance_certified exponent_step_ok")):
    """The bracketing index n1 and the `BracketEvidence` of each index
    tried.  `dominance_certified`: (g1*g2)**a_{n1+1} > 2*H*d**2 *
    (g1*g2)**(d*a_{n1}), certified exactly.  `exponent_step_ok`: the
    sufficient step a_{n1+1} > 2*d*a_{n1}; it can fail at small n even
    when the dominance holds through the bracket's slack."""

    __slots__ = ()


def find_n1(c: CompositeNumber, t: AlgebraicTarget, n_max: int) -> N1Result:
    """Smallest n with (g1*g2)**(a_n/2) < 2*H*d**2 < (g1*g2)**(a_{n+1}/2).

    Both comparisons are run on squared quantities, so each is an exact
    power-vs-integer decision (by bit lengths, or one integer
    comparison).  An exact hit of the boundary raises
    TieEncountered at the index and side where it blocks the strict
    bracketing (a tie on the right of n re-surfaces as the left of n+1).
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise InvalidConfigError("n_max", f"must be a positive integer, got {n_max!r}")
    both = c.g1 * c.g2
    threshold = 2 * t.height * t.degree ** 2
    tsq = threshold * threshold
    evidence: list[BracketEvidence] = []
    for n in range(1, n_max + 1):
        left = power_vs_threshold(PurePower(both, c.schedule.exponent(n)), tsq)
        if left is Ordering.EQUAL:
            raise TieEncountered(n, "left",
                                 f"(g1*g2)**(a_{n}/2) equals 2*H*d**2 = {threshold} exactly")
        if left is not Ordering.LESS:
            evidence.append(BracketEvidence(n, left, None))
            continue
        right = power_vs_threshold(PurePower(both, c.schedule.exponent(n + 1)), tsq)
        evidence.append(BracketEvidence(n, left, right))
        if right is Ordering.GREATER:
            return N1Result(
                n1=n, evidence=tuple(evidence),
                dominance_certified=_certify_dominance(c, t, n),
                exponent_step_ok=(c.schedule.exponent(n + 1)
                                  > 2 * t.degree * c.schedule.exponent(n)))
        if right is Ordering.EQUAL and n == n_max:
            # would re-surface as the left comparison of n+1, but the scan
            # ends here; report the tie rather than NotFound
            raise TieEncountered(n, "right",
                                 f"(g1*g2)**(a_{n + 1}/2) equals 2*H*d**2 = {threshold} exactly")
    raise NotFound(
        f"no index n <= {n_max} brackets 2*H*d**2 = {threshold} between consecutive "
        f"half-exponent powers")


def _certify_dominance(c: CompositeNumber, t: AlgebraicTarget, n1: int) -> bool:
    # (g1*g2)**a_{n1+1} > 2*H*d**2 * (g1*g2)**(d*a_{n1}), rewritten with the
    # common power divided out so the threshold side stays a plain integer.
    e = c.schedule.exponent(n1 + 1) - t.degree * c.schedule.exponent(n1)
    if e <= 0:
        return False
    threshold = 2 * t.height * t.degree ** 2
    return power_vs_threshold(PurePower(c.g1 * c.g2, e), threshold) is Ordering.GREATER
