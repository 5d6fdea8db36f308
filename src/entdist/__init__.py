"""Gaussian toolkit for entanglement distribution through correlated lossy environments.

Covariance-matrix symplectic algebra, classification of the correlated
two-mode environment (``EnvironmentParams`` is physical by construction),
direct and swap-based distribution protocols as closed forms (the
finite-squeezing symplectic pipelines that check them live with the tests), and
a correlation plane scanner behind the ``entdist`` CLI.
"""

from .environment import (
    BonaFideResult,
    EnvClass,
    EnvKind,
    EnvironmentParams,
    bona_fide_check,
    classify_environment,
    eb_threshold,
    is_separable,
)
from .errors import DomainError
from .protocols import (
    EprVariances,
    Protocol,
    ProtocolResult,
    coherent_info_asymptotic,
    direct_eps_asymptotic,
    direct_output_cm,
    epr_variances_from_cm,
    run_direct,
    run_swap,
    swap_coherent_info_determinant,
    swap_conditional_cm,
    swap_epr_variances_asymptotic,
    swap_eps_asymptotic,
)
from .scanner import (
    DISTILLABLE_EPS,
    Activation,
    Contour,
    ScanGrid,
    ScanSpec,
    boundary_curves,
    eps_field,
    scan,
    separable_activation_exists,
)
from .symplectic import (
    CovarianceMatrix,
    EntanglementReport,
    entanglement_report,
    h,
    log_negativity,
    partial_trace,
    partial_transpose,
    pts_min_eigenvalue,
    symplectic_eigenvalues,
    symplectic_form,
    von_neumann_entropy,
)

__all__ = [
    "Activation",
    "BonaFideResult",
    "Contour",
    "CovarianceMatrix",
    "DISTILLABLE_EPS",
    "DomainError",
    "EntanglementReport",
    "EnvClass",
    "EnvKind",
    "EnvironmentParams",
    "EprVariances",
    "Protocol",
    "ProtocolResult",
    "ScanGrid",
    "ScanSpec",
    "bona_fide_check",
    "boundary_curves",
    "classify_environment",
    "coherent_info_asymptotic",
    "direct_eps_asymptotic",
    "direct_output_cm",
    "eb_threshold",
    "entanglement_report",
    "epr_variances_from_cm",
    "eps_field",
    "h",
    "is_separable",
    "log_negativity",
    "partial_trace",
    "partial_transpose",
    "pts_min_eigenvalue",
    "run_direct",
    "run_swap",
    "scan",
    "separable_activation_exists",
    "swap_coherent_info_determinant",
    "swap_conditional_cm",
    "swap_epr_variances_asymptotic",
    "swap_eps_asymptotic",
    "symplectic_eigenvalues",
    "symplectic_form",
    "von_neumann_entropy",
]
