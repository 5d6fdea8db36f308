"""Acceptance suite: one test per criterion, each printing a [PASS]/[FAIL] line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear; each
criterion also asserts its stated runtime budget.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from entdist import (
    Activation,
    DISTILLABLE_EPS,
    EnvKind,
    EnvironmentParams,
    Protocol,
    ScanSpec,
    bona_fide_check,
    classify_environment,
    direct_eps_asymptotic,
    eb_threshold,
    run_direct,
    run_swap,
    scan,
    swap_conditional_cm,
    swap_epr_variances_asymptotic,
    swap_eps_asymptotic,
)

from conftest import ACTIVATION_CODE, KIND_CODE, random_bona_fide_env
from gaussian_reference import (
    direct_output_pipeline,
    epr_variances_from_cm,
    make_env_cm,
    make_epr_cm,
    one_mode_output_pipeline,
    pts_min_eigenvalue,
    reference_report,
    swap_coherent_info_determinant,
    swap_conditional_pipeline,
    swap_noiseless_pipeline,
)

STANDARD_TAUS = (0.3, 0.5, 0.75, 0.9)
LARGE_MU = 1e6
_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


def criterion(name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[FAIL] {name}: {exc}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[PASS] {name} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
            assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s"
        return wrapper
    return deco


def sample_bona_fide_grid(tau, side=5, start=0.9, shrink=0.8):
    """Deterministic side x side sample of bona-fide points at the EB threshold:
    grid points are pulled toward the (always physical) origin until they pass."""
    omega = eb_threshold(tau)
    coords = np.linspace(-start * omega, start * omega, side)
    points = []
    for g0 in coords:
        for gp0 in coords:
            factor = 1.0
            while not bona_fide_check(omega, factor * g0, factor * gp0):
                factor *= shrink
            points.append((float(factor * g0), float(factor * gp0)))
    return omega, points


@criterion("criterion 1: EB thresholds and one-mode breaking point", 1.0)
def test_criterion_1_eb_threshold():
    expected = {0.3: 13.0 / 7.0, 0.5: 3.0, 0.75: 7.0, 0.9: 19.0}
    for tau in STANDARD_TAUS:
        assert eb_threshold(tau) == pytest.approx(expected[tau], rel=1e-12)
        env = EnvironmentParams(tau, eb_threshold(tau), 0.0, 0.0)
        eps = pts_min_eigenvalue(one_mode_output_pipeline(LARGE_MU, env), (1,))
        assert abs(eps - 1.0) <= 1e-3, f"tau={tau}: pts_min={eps}"


@criterion("criterion 2: direct-protocol oracle equivalence (500 samples)", 5.0)
def test_criterion_2_direct_oracle():
    rng = np.random.default_rng(101)
    for _ in range(500):
        mu = float(rng.uniform(1.0, 1e3))
        env = random_bona_fide_env(rng)
        piped = direct_output_pipeline(mu, env).data
        # independent closed form assembled from the constituent matrices
        expected = env.tau * make_epr_cm(mu).data \
            + (1.0 - env.tau) * make_env_cm(env.omega, env.g, env.gp).data
        scale = np.abs(expected).max()
        np.testing.assert_allclose(piped, expected, rtol=1e-10, atol=1e-10 * scale)


def _swap_closed_reference(mu, env):
    """Conditional remote CM assembled term by term, independent of the library."""
    var_q = env.tau * mu + (1.0 - env.tau) * (env.omega - env.g)
    var_p = env.tau * mu + (1.0 - env.tau) * (env.omega + env.gp)
    k = np.array([
        [1.0 / var_q, 0.0, -1.0 / var_q, 0.0],
        [0.0, 1.0 / var_p, 0.0, 1.0 / var_p],
        [-1.0 / var_q, 0.0, 1.0 / var_q, 0.0],
        [0.0, 1.0 / var_p, 0.0, 1.0 / var_p],
    ])
    return mu * np.eye(4) - (mu * mu - 1.0) * env.tau / 2.0 * k


@criterion("criterion 3: swap conditional CM oracle and noiseless limit", 10.0)
def test_criterion_3_swap_oracle():
    rng = np.random.default_rng(103)
    for _ in range(200):
        mu = float(rng.uniform(1.0, 1e3))
        env = random_bona_fide_env(rng)
        piped = swap_conditional_pipeline(mu, env).data
        expected = _swap_closed_reference(mu, env)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(piped, expected, rtol=1e-8, atol=1e-8 * scale)
    for mu in (1.0, 2.0, 5.0, 10.0, 100.0):
        cm = swap_noiseless_pipeline(mu)
        a = (mu * mu + 1.0) / (2.0 * mu)
        c = (mu * mu - 1.0) / (2.0 * mu)
        expected = np.block([[a * _I2, c * _Z], [c * _Z, a * _I2]])
        np.testing.assert_allclose(cm.data, expected, atol=1e-12 * max(a, 1.0))
        assert abs(pts_min_eigenvalue(cm, (1,)) - 1.0 / mu) <= 1e-12


@criterion("criterion 4: asymptotic eps formulas at mu=1e6 (5x5 per tau)", 10.0)
def test_criterion_4_asymptotics():
    for tau in STANDARD_TAUS:
        omega, points = sample_bona_fide_grid(tau)
        for g, gp in points:
            env = EnvironmentParams(tau, omega, g, gp)
            direct_eps = pts_min_eigenvalue(
                direct_output_pipeline(LARGE_MU, env), (1,))
            assert direct_eps == pytest.approx(direct_eps_asymptotic(env), rel=1e-3)
            swap_eps = pts_min_eigenvalue(swap_conditional_cm(LARGE_MU, env), (1,))
            assert swap_eps == pytest.approx(swap_eps_asymptotic(env), rel=1e-3)


@criterion("criterion 5: coherent information at mu=1e6", 5.0)
def test_criterion_5_coherent_information():
    cases = [
        EnvironmentParams(0.75, 7.0, 6.0, -6.0),
        EnvironmentParams(0.75, 7.0, 4.0, -4.0),
        EnvironmentParams(0.5, 3.0, 1.2, -1.2),
        EnvironmentParams(0.9, 19.0, 9.0, -9.0),
    ]
    for env in cases:
        # the package's evaluators, and the pipeline state through the reference
        expected_direct = math.log(1.0 / (math.e * direct_eps_asymptotic(env)))
        assert run_direct(LARGE_MU, env).report.coherent_info == \
            pytest.approx(expected_direct, abs=1e-2)
        direct_cm = direct_output_pipeline(LARGE_MU, env)
        assert reference_report(direct_cm, (1,)).coherent_info == \
            pytest.approx(expected_direct, abs=1e-2)

        expected_swap = math.log(1.0 / (math.e * swap_eps_asymptotic(env)))
        assert run_swap(LARGE_MU, env).report.coherent_info == \
            pytest.approx(expected_swap, abs=1e-2)
        assert swap_coherent_info_determinant(swap_conditional_cm(LARGE_MU, env)) == \
            pytest.approx(expected_swap, abs=1e-2)


@criterion("criterion 6: tau <= 1/2 swap theorem on 1001x1001 grids", 30.0)
def test_criterion_6_low_tau_theorem():
    for tau in (0.3, 0.5):
        grid = scan(ScanSpec(tau=tau, protocol=Protocol.SWAP, resolution=1001))
        separable_activated = (
            grid.summary.get((EnvKind.SEPARABLE, Activation.ENTANGLING), 0)
            + grid.summary.get((EnvKind.SEPARABLE, Activation.DISTILLABLE), 0)
        )
        assert separable_activated == 0, f"tau={tau}: {separable_activated} cells"


@criterion("criterion 7: separable activation witnesses", 1.0)
def test_criterion_7_witnesses():
    omega = eb_threshold(0.75)
    assert omega == 7.0

    env_a = EnvironmentParams(0.75, omega, 4.0, -4.0)
    assert classify_environment(omega, 4.0, -4.0).kind is EnvKind.SEPARABLE
    assert abs(direct_eps_asymptotic(env_a) - 0.75) <= 1e-12

    env_b = EnvironmentParams(0.75, omega, 6.0, -6.0)
    assert classify_environment(omega, 6.0, -6.0).kind is EnvKind.SEPARABLE
    assert abs(direct_eps_asymptotic(env_b) - 0.25) <= 1e-12
    assert direct_eps_asymptotic(env_b) < DISTILLABLE_EPS
    assert abs(swap_eps_asymptotic(env_b) - 1.0 / 3.0) <= 1e-12
    assert swap_eps_asymptotic(env_b) < DISTILLABLE_EPS


@criterion("criterion 8: swapped EPR variances and the g > 1/(1-tau) threshold", 5.0)
def test_criterion_8_epr_variances():
    cases = [
        EnvironmentParams(0.75, 7.0, 5.0, -5.0),
        EnvironmentParams(0.75, 7.0, 2.0, 1.0),
        EnvironmentParams(0.5, 3.0, 1.5, -1.5),
        EnvironmentParams(0.3, eb_threshold(0.3), 0.8, -0.8),
    ]
    for env in cases:
        finite = epr_variances_from_cm(swap_conditional_cm(LARGE_MU, env))
        asym = swap_epr_variances_asymptotic(env)
        assert finite.v_qminus == pytest.approx(asym.v_qminus, rel=1e-3)
        assert finite.v_pplus == pytest.approx(asym.v_pplus, rel=1e-3)

    # reflected correlations G = g Z at the EB threshold: variance crosses the
    # vacuum level exactly at g = 1/(1 - tau), inside the physical range only
    # for tau > 1/4
    for tau in (0.3, 0.5, 0.75):
        omega = eb_threshold(tau)
        g_max = math.sqrt(omega * omega - 1.0)

        def variance_gap(g, tau=tau, omega=omega):
            env = EnvironmentParams(tau, omega, g, -g)
            var = swap_epr_variances_asymptotic(env)
            return max(var.v_qminus, var.v_pplus) - 1.0

        crossing = brentq(variance_gap, 1e-9, g_max * (1.0 - 1e-9))
        assert crossing == pytest.approx(1.0 / (1.0 - tau), abs=1e-9)
        assert crossing < g_max  # the threshold is reachable by a physical env
    # below tau = 1/4 the required correlation exceeds the physical bound
    tau = 0.2
    omega = eb_threshold(tau)
    assert 1.0 / (1.0 - tau) > math.sqrt(omega * omega - 1.0)


@criterion("criterion 9: figure-data scans, invariants and containment", 60.0)
def test_criterion_9_figure_scans():
    for tau in STANDARD_TAUS:
        grids = {
            protocol: scan(ScanSpec(tau=tau, protocol=protocol, resolution=201))
            for protocol in (Protocol.DIRECT, Protocol.SWAP)
        }
        none = ACTIVATION_CODE[Activation.NONE]
        for grid in grids.values():
            for arr in (grid.kind, grid.activation, grid.env_pts, grid.eps):
                assert arr.shape == (201, 201)
            assert sum(grid.summary.values()) == 201 * 201
            activated = grid.activation != none
            assert (grid.kind[activated] != KIND_CODE[EnvKind.FORBIDDEN]).all()
            distillable = grid.eps[grid.activation == ACTIVATION_CODE[Activation.DISTILLABLE]]
            assert (distillable < DISTILLABLE_EPS).all()
            entangling = grid.eps[grid.activation == ACTIVATION_CODE[Activation.ENTANGLING]]
            assert ((DISTILLABLE_EPS <= entangling) & (entangling < 1.0)).all()
        swap_activated = grids[Protocol.SWAP].activation != none
        assert (grids[Protocol.DIRECT].activation[swap_activated] != none).all()
