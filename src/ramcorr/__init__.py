"""Exact toolkit for correlations of arithmetic functions via finite
Ramanujan expansions: sieves, Eratosthenes transforms, truncated divisor
sums, Wintner coefficients, parity-entangled correlation counting, and
Hardy-Littlewood model comparisons.

The package is lazy: each public name is imported from its module on
first access (PEP 562), so ``import ramcorr`` loads neither the modules
nor numpy, and changes no process setting."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "arith_core": (
        "EXACT", "REAL", "SUPPORT_EPS", "PrimeTable", "TabulatedFunction",
        "odd_part", "sieve_primes", "tabulate", "v2"),
    "correlations": (
        "CorrelationProfile", "build_profile", "correlate_direct",
        "correlate_expansion", "truncation_difference",
        "verify_periodicity"),
    "hlmodels": (
        "ModelRow", "SingularSeriesValue", "artifact",
        "artifact_identity_check", "artifact_pair", "chebyshev_theta",
        "model_chain", "pnt_sanity", "singular_series"),
    "ramanujan": (
        "RamanujanCoefficients", "UndefinedPeriodError", "lucht_invert",
        "ramanujan_expand", "ramanujan_expand_range", "ramanujan_sum",
        "support_closure_check", "universal_period", "wintner_coefficients",
        "wintner_period"),
    "transforms": (
        "TruncatedDivisorSum", "eratosthenes_transform", "evaluate_tds",
        "evaluate_tds_range", "lambda_tds", "odd_lift", "read_tds",
        "tds_from_et", "truncate", "write_tds"),
    "twoseasons": (
        "AxiomCheck", "AxiomError", "AxiomReport", "check_axioms",
        "combinatorial_identity_check", "diophantine_count_even",
        "diophantine_count_odd", "entangled_correlation",
        "random_ts_instance"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
