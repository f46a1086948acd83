"""Exact-arithmetic toolkit for sparse power series over integer bases.

Builds series theta = sum of g**(-a_n) with doubly exponential exponent
schedules, combines two of them by +, -, *, /, and certifies at concrete
indices the inequalities a transcendence argument needs: reduced
convergents, two-sided tail brackets, certified gap bounds, threshold
indices, strict approximation tests with margins, empirical exponents,
and closed-form approximation measures.  Every decision is exact
rational arithmetic or a directed-rounding log enclosure.
"""

from .errors import (
    ExponentBudgetExceeded,
    InsufficientDepth,
    InternalError,
    InvalidConfigError,
    LacunaryError,
    NonIntegralExponent,
    NotFound,
    PrecisionUnattainable,
    TieEncountered,
)
from .interval import RationalInterval
from .measure import (
    AlgebraicTarget,
    BracketEvidence,
    MeasureBound,
    N1Result,
    approximation_measure,
    find_n1,
)
from .powercmp import (
    CompareDiagnostics,
    Ordering,
    PurePower,
    compare,
    compare_trace,
    power_vs_threshold,
)
from .schedule import GrowthCheck, GrowthWindow, PowerSchedule, validate_growth
from .series import Convergent, LacunarySeries, deepest_feasible
from .witness import (
    CompositeNumber,
    IndexRecord,
    Op,
    QuotientForms,
    RothCheck,
    ThresholdCheck,
    ThresholdScan,
    WitnessCertificate,
    certify,
    composite_convergent,
    composite_digits,
    empirical_exponent,
    find_n0,
    gap_bound,
    true_gap_enclosure,
    value_enclosure,
    verify_roth_instance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LacunaryError", "InvalidConfigError", "NonIntegralExponent",
    "ExponentBudgetExceeded", "PrecisionUnattainable", "InsufficientDepth",
    "NotFound", "TieEncountered", "InternalError",
    "RationalInterval",
    "PowerSchedule", "GrowthWindow", "GrowthCheck", "validate_growth",
    "LacunarySeries", "Convergent", "deepest_feasible",
    "PurePower", "Ordering", "CompareDiagnostics", "compare", "compare_trace",
    "power_vs_threshold",
    "Op", "CompositeNumber", "composite_convergent", "value_enclosure",
    "true_gap_enclosure", "gap_bound", "find_n0", "verify_roth_instance",
    "empirical_exponent", "certify", "composite_digits",
    "WitnessCertificate", "IndexRecord", "RothCheck", "ThresholdCheck",
    "ThresholdScan", "QuotientForms",
    "AlgebraicTarget", "MeasureBound", "BracketEvidence", "N1Result",
    "approximation_measure", "find_n1",
]
