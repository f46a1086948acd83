"""Exact-arithmetic toolkit for sparse power series over integer bases.

Builds series theta = sum of g**(-a_n) with doubly exponential exponent
schedules, combines two of them by +, -, *, /, and certifies at concrete
indices the inequalities a transcendence argument needs: reduced
convergents, two-sided tail brackets, certified gap bounds, threshold
indices, strict approximation tests with margins, empirical exponents,
and closed-form approximation measures.  Every decision is exact
rational arithmetic or a directed-rounding log enclosure.

`import lacunary` loads no submodule: each public name is imported from
its module on first use (PEP 562), so `python -m lacunary` can report
running out of memory while `cli` imports.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines, in `__all__` order
_EXPORTS = {
    "errors": ("LacunaryError", "InvalidConfigError", "NonIntegralExponent",
               "ExponentBudgetExceeded", "PrecisionUnattainable", "InsufficientDepth",
               "NotFound", "TieEncountered", "InternalError"),
    "interval": ("RationalInterval",),
    "schedule": ("PowerSchedule", "GrowthWindow", "GrowthCheck", "validate_growth"),
    "series": ("LacunarySeries", "Convergent", "deepest_feasible"),
    "powercmp": ("PurePower", "Ordering", "CompareDiagnostics", "compare", "compare_trace",
                 "power_vs_threshold"),
    "witness": ("Op", "CompositeNumber", "composite_convergent", "value_enclosure",
                "true_gap_enclosure", "gap_bound", "find_n0", "verify_roth_instance",
                "empirical_exponent", "certify", "composite_digits",
                "WitnessCertificate", "IndexRecord", "RothCheck", "ThresholdCheck",
                "ThresholdScan", "QuotientForms"),
    "measure": ("AlgebraicTarget", "MeasureBound", "BracketEvidence", "N1Result",
                "approximation_measure", "find_n1"),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    # The name is looked up anew on each access, not bound here: a binding
    # made mid-run would differ from a snapshot of the package taken before.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)
