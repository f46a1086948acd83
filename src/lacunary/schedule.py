"""Exponent sequences a_{n+1} = a_n**(1+beta) and growth-window validation.

The sequence grows doubly exponentially, so two guards are built in: a
bit-size budget on the exponent values themselves (default 2**20, at
most 2**MATERIALIZE_BITS), checked before a new exponent is built, and
eager detection of the first step where the recurrence leaves the
integers.  With beta = u/v in lowest terms, a**(1+u/v) is an integer
exactly when a is a perfect v-th power.  Every a_m is a power r**e of a
base r no wider than a_1, so that test is one exact integer root of r,
never of a_m and never by floating point.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction

from .errors import ExponentBudgetExceeded, InvalidConfigError, NonIntegralExponent
from .intmath import MATERIALIZE_BITS, int_label, introot, value_label
from .powercmp import Ordering, PurePower, power_vs_threshold

DEFAULT_BUDGET_BITS = 20


class PowerSchedule:
    """Lazily generated exponent sequence a_1, a_2, ... (1-based).

    Immutable after construction except for the monotone cache, which is
    extended under a lock; previously returned values never change.
    """

    def __init__(self, a1: int, beta, budget_bits: int = DEFAULT_BUDGET_BITS):
        if not isinstance(a1, int) or isinstance(a1, bool) or a1 < 2:
            raise InvalidConfigError(
                "a1", f"first exponent must be an integer >= 2, got {value_label(a1)}")
        try:
            beta = Fraction(beta)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidConfigError("beta", f"not a rational: {beta!r}") from exc
        if beta <= 0:
            raise InvalidConfigError(
                "beta", f"growth exponent must be positive, got {value_label(beta)}")
        if not isinstance(budget_bits, int) or budget_bits < 2:
            raise InvalidConfigError(
                "budget_bits", f"must be an integer >= 2, got {value_label(budget_bits)}")
        if budget_bits > MATERIALIZE_BITS:
            raise InvalidConfigError(
                "budget_bits",
                f"must be at most {MATERIALIZE_BITS}, got {value_label(budget_bits)}")
        self.a1 = a1
        self.beta = beta
        self.budget_bits = budget_bits
        self._limit = 1 << budget_bits
        if a1 > self._limit:
            raise ExponentBudgetExceeded(
                f"a_1 = {int_label(a1)} already exceeds the 2**{budget_bits} exponent budget")
        self._cache: list[int] = [a1]
        self._base_power = PurePower(a1, 1)  # r**e = the last cached a_m
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
                r, e = self._base_power
                # r = m0**t: r**e is a perfect v-th power iff v | t*e iff
                # v/gcd(e, v) divides t, iff r is a perfect (v/gcd)-th power
                g = math.gcd(e, v)
                root, exact = introot(r, v // g)
                power = 1 + self.beta
                if not exact:
                    raise NonIntegralExponent(
                        f"a_{m + 1} = a_{m}**({value_label(power)}) is not an integer: "
                        f"a_{m} = {int_label(last)} is not a perfect {v}-th power")
                # a_{m+1} = c**(u+v) for c = a_m**(1/v) = root**(e/g); with
                # v = 1, c is a_m itself and is not built again
                step = PurePower(last if v == 1 else root ** (e // g), u + v)
                if power_vs_threshold(step, self._limit) is Ordering.GREATER:
                    raise ExponentBudgetExceeded(
                        f"a_{m + 1} = {int_label(last)}**({value_label(power)}) exceeds the "
                        f"2**{self.budget_bits} exponent budget")
                self._cache.append(step.materialize())
                self._base_power = PurePower(root, e // g * (u + v))
        return self._cache[n - 1]

    def known(self) -> tuple:
        """The exponents computed so far, a_1..a_m.  Once the schedule has
        refused a_{m+1}, m never grows: `certify` and `LacunarySeries.on_grid`
        read the refused index off its length."""
        return tuple(self._cache)


class GrowthWindow(namedtuple("GrowthWindow", "alpha k")):
    """Accepted growth band: a_n**alpha <= a_{n+1} < a_n**(k*alpha)."""

    __slots__ = ()

    def __new__(cls, alpha, k):
        alpha, k = Fraction(alpha), Fraction(k)
        if alpha <= 1:
            raise InvalidConfigError("alpha", f"must exceed 1, got {value_label(alpha)}")
        if k <= 1:
            raise InvalidConfigError("k", f"must exceed 1, got {value_label(k)}")
        return tuple.__new__(cls, (alpha, k))


class GrowthCheck(namedtuple("GrowthCheck", "n lower_ok upper_ok")):
    """The window at index n: `lower_ok` is a_n**alpha <= a_{n+1}, and
    `upper_ok` is a_{n+1} < a_n**(k*alpha)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def validate_growth(s: PowerSchedule, w: GrowthWindow, n_max: int) -> list[GrowthCheck]:
    """Exact per-index check of the growth window for n = 1..n_max.

    a_{n+1} = a_n**(1+beta) exactly and a_n >= 2, so a_n**alpha <= a_{n+1}
    iff alpha <= 1+beta, and a_{n+1} < a_n**(k*alpha) iff 1+beta < k*alpha.
    a_{n_max+1} is still built, and the schedule extends in index order, so
    the first index it cannot reach is refused as it is everywhere else.
    n_max = 0 returns an empty report (vacuous pass).
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise InvalidConfigError("n_max", f"must be a nonnegative integer, got {n_max!r}")
    step = 1 + s.beta
    lower_ok, upper_ok = w.alpha <= step, step < w.k * w.alpha
    if n_max:
        s.exponent(n_max + 1)
    return [GrowthCheck(n, lower_ok, upper_ok) for n in range(1, n_max + 1)]
