"""Generalized Bessel functions and numerical checks for the exponential
starlike and convex classes on the unit disk.

The public names below are loaded on first access (PEP 562): ``import
besselstar`` runs no submodule, so it loads no numpy, and ``besselstar.NAME``
imports NAME's submodule then and returns that submodule's own object.  A
submodule is an attribute of the package once it has been imported.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it provides; the one table behind
# ``__getattr__``, ``__dir__`` and ``__all__``.
_EXPORTS = {
    "errors": (
        "BesselstarError",
        "BranchError",
        "ConsistencyError",
        "MaxTermsExceeded",
        "NonvanishingAtZero",
        "NotNormalized",
        "OutOfDomain",
        "PoleError",
        "ZeroDenominator",
    ),
    "gft_checks": (
        "AnalyticMap",
        "DiskGrid",
        "MembershipReport",
        "SeriesQuantity",
        "check_class",
        "check_quarter_bound",
        "check_subordinate_exp",
        "convex_quantity",
        "log_bound_lemma_check",
        "starlike_quantity",
    ),
    "series_ops": (
        "PowerSeries",
        "alexander",
        "b_operator",
        "eval_rows",
        "hadamard",
        "libera",
        "libera_kernel",
        "normalized_phi_deficit",
        "series_of_phi",
        "series_of_vartheta",
    ),
    "special_fn": (
        "BesselParams",
        "EvalResult",
        "gamma",
        "named_family",
        "omega_eval",
        "phi_derivative",
        "phi_eval",
        "pochhammer",
    ),
    "theorems": (
        "ExtremalCurve",
        "Hypothesis",
        "TheoremReport",
        "bessel_chain_step",
        "example_linear_report",
        "example_product_report",
        "expected_extremum",
        "extremal_curve",
        "hyp_Ke",
        "hyp_Pe",
        "hyp_Se",
        "hyp_bkc_chain",
        "hyp_corollaries",
        "hyp_libera",
        "hyp_omega_Se",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    # Not cached in the package namespace: each access reads the submodule's
    # current attribute, so the name is always that submodule's own object.
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
