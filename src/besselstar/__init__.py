"""Generalized Bessel functions and numerical checks for the exponential
starlike and convex classes on the unit disk."""

from types import ModuleType as _ModuleType

from .errors import (
    BesselstarError,
    BranchError,
    ConsistencyError,
    MaxTermsExceeded,
    NonvanishingAtZero,
    NotNormalized,
    OutOfDomain,
    PoleError,
    ZeroDenominator,
)
from .gft_checks import (
    AnalyticMap,
    DiskGrid,
    MembershipReport,
    SeriesQuantity,
    check_class,
    check_quarter_bound,
    check_subordinate_exp,
    convex_quantity,
    log_bound_lemma_check,
    starlike_quantity,
)
from .series_ops import (
    PowerSeries,
    alexander,
    b_operator,
    eval_rows,
    hadamard,
    libera,
    libera_kernel,
    series_of_phi,
    series_of_vartheta,
)
from .special_fn import (
    BesselParams,
    EvalResult,
    gamma,
    named_family,
    omega_eval,
    phi_derivative,
    phi_eval,
    pochhammer,
)
from .theorems import (
    ExtremalCurve,
    Hypothesis,
    TheoremReport,
    bessel_chain_step,
    example_linear_report,
    example_product_report,
    expected_extremum,
    extremal_curve,
    hyp_Ke,
    hyp_Pe,
    hyp_Se,
    hyp_bkc_chain,
    hyp_corollaries,
    hyp_libera,
    hyp_omega_Se,
    normalized_phi_deficit,
)

__version__ = "0.1.0"

# Every public name imported above, written once: the submodules and the
# private names are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
