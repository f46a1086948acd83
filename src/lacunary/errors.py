"""Exception types shared across the package."""


class LacunaryError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(LacunaryError):
    """A configuration value failed validation.

    ``field`` names the offending input so the CLI can point at it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class NonIntegralExponent(LacunaryError):
    """The exponent recurrence left the integers at some step."""


class ExponentBudgetExceeded(LacunaryError):
    """An exponent (or the power it would materialize) exceeds the configured budget."""


class PrecisionUnattainable(LacunaryError):
    """No budget-feasible enclosure is tight enough for the requested output."""


class InsufficientDepth(LacunaryError):
    """The available enclosure depth cannot certify the requested comparison."""


class NotFound(LacunaryError):
    """No index in the searched range satisfies the required inequalities."""


class TieEncountered(LacunaryError):
    """A strict inequality came out as exact equality.

    Ties are surfaced, never silently assigned to either side.
    """

    def __init__(self, n: int, side: str, message: str = ""):
        self.n = n
        self.side = side
        super().__init__(message or f"exact equality at n={n} ({side} comparison)")


class InternalError(LacunaryError):
    """An internal invariant was violated; results must not be trusted."""


# The one line a command prints, exiting 3, when the process runs out of
# memory: from `cli.main`, or from `python -m lacunary` while `cli` imports.
OUT_OF_MEMORY = ("budget error: out of memory: this input needs more than the process's "
                 "memory limit allows")
