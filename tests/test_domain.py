"""Every public entry point refuses an out-of-domain input with DomainError.

The domains are stated once, in ``entdist.environment`` (``require_transmissivity``,
``require_variance``, ``require_magnitude``); these tests feed nan, +-inf and
magnitudes above 1e150 into each raw-float entry point, where a number that
slips past a check would come back as a wrong result (``inf``, ``nan``, a
matrix of nans) or as an untyped numpy error. A protocol argument is checked
against the ``Protocol`` type itself; a string or ``None`` in its place once
read as the direct protocol.

The input states and pipelines of ``gaussian_reference`` are held to the same
domains: the tests compare the package against them, and a reference that
returned a matrix of nans would make such a comparison pass unseen
(``assert_allclose`` takes nan as equal to nan).
"""

import math

import pytest

from entdist import (
    DomainError,
    EnvironmentParams,
    Protocol,
    ScanSpec,
    bona_fide_check,
    classify_environment,
    coherent_info_asymptotic,
    direct_output_cm,
    eb_threshold,
    h,
    log_negativity,
    run_direct,
    run_swap,
    separable_activation_exists,
    swap_conditional_cm,
)
from entdist.environment import require_bona_fide
from entdist.protocols import large_mu_eps, large_mu_eps_scale

from gaussian_reference import (
    direct_output_pipeline,
    direct_spectrum_asymptotic,
    make_env_cm,
    make_epr_cm,
    one_mode_output_pipeline,
    swap_conditional_pipeline,
    swap_noiseless_pipeline,
)

ENV = EnvironmentParams(0.5, 7.0, 4.0, -4.0)

ENTRY_POINTS = {
    "EnvironmentParams.tau": lambda x: EnvironmentParams(x, 7.0, 4.0, -4.0),
    "EnvironmentParams.omega": lambda x: EnvironmentParams(0.5, x, 4.0, -4.0),
    "EnvironmentParams.g": lambda x: EnvironmentParams(0.5, 7.0, x, -4.0),
    "EnvironmentParams.gp": lambda x: EnvironmentParams(0.5, 7.0, 4.0, x),
    "ScanSpec.tau": lambda x: ScanSpec(x, Protocol.DIRECT, 5),
    "ScanSpec.omega": lambda x: ScanSpec(0.5, Protocol.DIRECT, 5, omega=x),
    "ScanSpec.g_range": lambda x: ScanSpec(0.5, Protocol.DIRECT, 5, g_range=(-1.0, x)),
    "ScanSpec.gp_range": lambda x: ScanSpec(0.5, Protocol.DIRECT, 5, gp_range=(-1.0, x)),
    "eb_threshold": eb_threshold,
    "bona_fide_check": lambda x: bona_fide_check(x, 0.0, 0.0),
    "require_bona_fide": lambda x: require_bona_fide(x, 0.0, 0.0),
    "classify_environment": lambda x: classify_environment(x, 0.0, 0.0),
    "direct_output_cm": lambda x: direct_output_cm(x, ENV),
    "swap_conditional_cm": lambda x: swap_conditional_cm(x, ENV),
    "run_direct": lambda x: run_direct(x, ENV),
    "run_swap": lambda x: run_swap(x, ENV),
    "separable_activation_exists.tau": lambda x: separable_activation_exists(x, Protocol.SWAP),
    "separable_activation_exists.omega":
        lambda x: separable_activation_exists(0.75, Protocol.SWAP, omega=x),
    # references
    "make_env_cm": lambda x: make_env_cm(x, 0.0, 0.0),
    "make_epr_cm": make_epr_cm,
    "direct_spectrum_asymptotic": lambda x: direct_spectrum_asymptotic(ENV, x),
    "direct_output_pipeline": lambda x: direct_output_pipeline(x, ENV),
    "one_mode_output_pipeline": lambda x: one_mode_output_pipeline(x, ENV),
    "swap_noiseless_pipeline": swap_noiseless_pipeline,
    "swap_conditional_pipeline": lambda x: swap_conditional_pipeline(x, ENV),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e151, -1e151])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_refuses_out_of_domain_number(entry, value):
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("evaluator", [log_negativity, h, coherent_info_asymptotic])
def test_result_side_evaluator_refuses_nan(evaluator):
    # log_negativity(nan) read 0.0; h and coherent_info_asymptotic passed nan on
    with pytest.raises(DomainError):
        evaluator(math.nan)


@pytest.mark.parametrize("evaluator", [h, coherent_info_asymptotic])
def test_result_side_evaluator_refuses_inf(evaluator):
    # h(inf) read nan and coherent_info_asymptotic(inf) read -inf
    with pytest.raises(DomainError, match="finite"):
        evaluator(math.inf)


PROTOCOL_ENTRY_POINTS = {
    "ScanSpec": lambda p: ScanSpec(0.4, p, 3),
    "separable_activation_exists": lambda p: separable_activation_exists(0.4, p),
    "large_mu_eps_scale": lambda p: large_mu_eps_scale(0.4, p),
    "large_mu_eps": lambda p: large_mu_eps(0.4, 7.0, 4.0, -4.0, p),
}


@pytest.mark.parametrize("value", ["swap", "Swap", None])
@pytest.mark.parametrize("entry", sorted(PROTOCOL_ENTRY_POINTS))
def test_entry_point_refuses_a_value_that_is_not_a_protocol(entry, value):
    with pytest.raises(DomainError, match="protocol"):
        PROTOCOL_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", ["large_mu_eps_scale", "large_mu_eps"])
def test_large_mu_formula_refuses_environment_only(entry):
    # the environment has no large-mu eps scale; ScanSpec accepts it for its env_pts map
    with pytest.raises(DomainError, match="DIRECT or SWAP"):
        PROTOCOL_ENTRY_POINTS[entry](Protocol.ENVIRONMENT_ONLY)
