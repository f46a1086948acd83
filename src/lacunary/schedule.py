"""Exponent sequences a_{n+1} = a_n**(1+beta) and growth-window validation.

The sequence grows doubly exponentially, so two guards are built in: a
bit-size budget on the exponent values themselves (default 2**20, at
most 2**MATERIALIZE_BITS), checked before a new exponent is built, and
eager detection of the first step where the recurrence leaves the
integers.  With beta = u/v in lowest terms, a**(1+u/v) is an integer
exactly when a is a perfect v-th power; that test is done by exact
integer root extraction, never by floating point.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .errors import ExponentBudgetExceeded, InvalidConfigError, NonIntegralExponent
from .intmath import MATERIALIZE_BITS, int_label, introot
from .powercmp import Ordering, PurePower, compare, power_vs_threshold

DEFAULT_BUDGET_BITS = 20


class PowerSchedule:
    """Lazily generated exponent sequence a_1, a_2, ... (1-based).

    Immutable after construction except for the monotone cache, which is
    extended under a lock; previously returned values never change.
    """

    def __init__(self, a1: int, beta, budget_bits: int = DEFAULT_BUDGET_BITS):
        if not isinstance(a1, int) or isinstance(a1, bool) or a1 < 2:
            raise InvalidConfigError("a1", f"first exponent must be an integer >= 2, got {a1!r}")
        try:
            beta = Fraction(beta)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidConfigError("beta", f"not a rational: {beta!r}") from exc
        if beta <= 0:
            raise InvalidConfigError("beta", f"growth exponent must be positive, got {beta}")
        if not isinstance(budget_bits, int) or budget_bits < 2:
            raise InvalidConfigError("budget_bits", f"must be an integer >= 2, got {budget_bits!r}")
        if budget_bits > MATERIALIZE_BITS:
            raise InvalidConfigError(
                "budget_bits", f"must be at most {MATERIALIZE_BITS}, got {budget_bits!r}")
        self.a1 = a1
        self.beta = beta
        self.budget_bits = budget_bits
        self._limit = 1 << budget_bits
        if a1 > self._limit:
            raise ExponentBudgetExceeded(
                f"a_1 = {int_label(a1)} already exceeds the 2**{budget_bits} exponent budget")
        self._cache: List[int] = [a1]
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (f"PowerSchedule(a1={self.a1}, beta={self.beta}, "
                f"budget_bits={self.budget_bits})")

    def exponent(self, n: int) -> int:
        """a_n; extends the cache as needed.  Deterministic and thread-safe."""
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InvalidConfigError("n", f"index must be a positive integer, got {n!r}")
        # list append is atomic; a stale length just means we take the lock
        if n <= len(self._cache):
            return self._cache[n - 1]
        u = self.beta.numerator
        v = self.beta.denominator
        with self._lock:
            while len(self._cache) < n:
                m = len(self._cache)
                last = self._cache[-1]
                root, exact = introot(last, v)
                power = 1 + self.beta
                if not exact:
                    raise NonIntegralExponent(
                        f"a_{m + 1} = a_{m}**({power}) is not an integer: "
                        f"a_{m} = {int_label(last)} is not a perfect {v}-th power")
                if power_vs_threshold(PurePower(root, u + v), self._limit) is Ordering.GREATER:
                    raise ExponentBudgetExceeded(
                        f"a_{m + 1} = {int_label(last)}**({power}) exceeds the "
                        f"2**{self.budget_bits} exponent budget")
                self._cache.append(root ** (u + v))
        return self._cache[n - 1]

    def known(self) -> tuple:
        """Snapshot of the exponents computed so far (diagnostics only)."""
        return tuple(self._cache)


@dataclass(frozen=True)
class GrowthWindow:
    """Accepted growth band: a_n**alpha <= a_{n+1} < a_n**(k*alpha)."""

    alpha: Fraction
    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "k", Fraction(self.k))
        if self.alpha <= 1:
            raise InvalidConfigError("alpha", f"must exceed 1, got {self.alpha}")
        if self.k <= 1:
            raise InvalidConfigError("k", f"must exceed 1, got {self.k}")


@dataclass(frozen=True)
class GrowthCheck:
    n: int
    lower_ok: bool  # a_n**alpha <= a_{n+1}
    upper_ok: bool  # a_{n+1} < a_n**(k*alpha)

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def _pow_le(base: int, exp: Fraction, bound: int) -> bool:
    # base**(p/q) <= bound  <=>  base**p <= bound**q   (all quantities > 1)
    p, q = exp.numerator, exp.denominator
    return compare(PurePower(base, p), PurePower(bound, q)) is not Ordering.GREATER


def _lt_pow(value: int, base: int, exp: Fraction) -> bool:
    # value < base**(p/q)  <=>  value**q < base**p
    p, q = exp.numerator, exp.denominator
    return compare(PurePower(value, q), PurePower(base, p)) is Ordering.LESS


def validate_growth(s: PowerSchedule, w: GrowthWindow, n_max: int) -> List[GrowthCheck]:
    """Exact per-index check of the growth window for n = 1..n_max.

    Rational exponents are cleared to integer powers (a**(p/q) <= b iff
    a**p <= b**q) and decided by powercmp without materializing either
    side.  n_max = 0 returns an empty report (vacuous pass).
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise InvalidConfigError("n_max", f"must be a nonnegative integer, got {n_max!r}")
    report = []
    for n in range(1, n_max + 1):
        a_n = s.exponent(n)
        a_next = s.exponent(n + 1)
        report.append(GrowthCheck(
            n=n,
            lower_ok=_pow_le(a_n, w.alpha, a_next),
            upper_ok=_lt_pow(a_next, a_n, w.k * w.alpha),
        ))
    return report
