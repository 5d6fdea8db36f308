"""Gaussian toolkit for entanglement distribution through correlated lossy environments.

Covariance matrices with the entropy ``h`` and the log-negativity,
classification of the correlated two-mode environment (``EnvironmentParams`` is
physical by construction), direct and swap-based distribution protocols as
closed forms (the generic n-mode symplectic algebra and the finite-squeezing
pipelines that check them live with the tests), and a correlation plane scanner
behind the ``entdist`` CLI.

numpy loads on first use: :mod:`entdist.scanner`, which works on arrays
throughout, and its names are imported on first access, so ``import entdist``
loads no numpy.
"""

import importlib

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
    DISTILLABLE_EPS,
    Activation,
    EprVariances,
    Protocol,
    ProtocolResult,
    coherent_info_asymptotic,
    direct_eps_asymptotic,
    direct_output_cm,
    run_direct,
    run_swap,
    swap_conditional_cm,
    swap_epr_variances_asymptotic,
    swap_eps_asymptotic,
)
from .symplectic import (
    CovarianceMatrix,
    EntanglementReport,
    h,
    log_negativity,
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
    "eps_field",
    "h",
    "is_separable",
    "log_negativity",
    "run_direct",
    "run_swap",
    "scan",
    "separable_activation_exists",
    "swap_conditional_cm",
    "swap_epr_variances_asymptotic",
    "swap_eps_asymptotic",
]

_SCANNER_NAMES = ("Contour", "ScanGrid", "ScanSpec", "boundary_curves", "eps_field", "scan",
                  "separable_activation_exists")


def __getattr__(name):
    """:mod:`entdist.scanner` and its names, imported on first access (PEP 562)."""
    if name != "scanner" and name not in _SCANNER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import scanner``: its fromlist check would call this hook again
    scanner = importlib.import_module(".scanner", __name__)
    return scanner if name == "scanner" else getattr(scanner, name)


def __dir__():
    return sorted({*globals(), *__all__})
