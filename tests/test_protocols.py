import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entdist
from entdist import (
    DomainError,
    EnvironmentParams,
    EnvKind,
    ProtocolResult,
    classify_environment,
    coherent_info_asymptotic,
    direct_eps_asymptotic,
    direct_output_cm,
    eb_threshold,
    log_negativity,
    run_direct,
    run_swap,
    swap_conditional_cm,
    swap_epr_variances_asymptotic,
    swap_eps_asymptotic,
)
from entdist.symplectic import _symplectic_spectrum

from conftest import random_bona_fide_env
from gaussian_reference import (
    bell_port_variances,
    direct_output_pipeline,
    direct_spectrum_asymptotic,
    epr_variances_from_cm,
    make_env_cm,
    make_epr_cm,
    one_mode_output_pipeline,
    pts_min_eigenvalue,
    reference_report,
    swap_coherent_info_determinant,
    swap_conditional_pipeline,
    swap_noiseless_pipeline,
    symplectic_eigenvalues,
)
from test_reference_table import _finite_mu_spectra, oracles

LARGE_MU = 1e6
PROTOCOL_NAMES = {run_direct: "direct", run_swap: "swap"}
EPS_ASYMPTOTIC = {run_direct: direct_eps_asymptotic, run_swap: swap_eps_asymptotic}
# the closed-form PTS eigenvalue and full symplectic spectrum are square roots
# of a few products, sums and quotients of positive terms, each rounded once:
# a few ulps at most
PTS_ULPS = 4
# the coherent information S(B) - S(AB) is a difference of sums of h, each
# within a few ulps of its entropy, or of 1 near nu = 1, where h is steep: a
# few ulps of the largest of S(B), S(AB) and 1
COHERENT_INFO_ULPS = 4


def oracle_draws(rng, n_uniform, n_log_uniform):
    """(mu, env) pairs: mu uniform in [1, 1e3], then log-uniform in [1, 1e15],
    the range that ``point --mu`` and ``converge`` reach."""
    for _ in range(n_uniform):
        yield float(rng.uniform(1.0, 1e3)), random_bona_fide_env(rng)
    for _ in range(n_log_uniform):
        yield float(10.0 ** rng.uniform(0.0, 15.0)), random_bona_fide_env(rng)


def assert_pts_min_is_the_reference(report, pts_min):
    """``report``'s PTS eigenvalue within PTS_ULPS of the mpf ``pts_min``, and its
    log-negativity within what that error and one rounding of the log allow."""
    eps = report.pts_min
    assert abs(eps - pts_min) <= PTS_ULPS * math.ulp(eps), (eps, pts_min)
    log_neg = max(mpmath.mpf(0), -mpmath.log(pts_min))
    assert abs(report.log_negativity - log_neg) <= \
        PTS_ULPS * math.ulp(eps) / eps + math.ulp(float(log_neg)), (report, pts_min)


def assert_report_is_the_reference(report, protocol, mu, env):
    """``report``, the run of ``protocol`` at ``mu`` and ``env``, against the mpf
    model at the current precision: see PTS_ULPS and COHERENT_INFO_ULPS."""
    pts_min, nu_plus, nu_minus, nu_b = _finite_mu_spectra(protocol, mu, env.tau, env.omega,
                                                          env.g, env.gp)
    assert_pts_min_is_the_reference(report, pts_min)
    for nu, expected in zip(report.symplectic_spectrum, (nu_plus, nu_minus), strict=True):
        assert abs(nu - expected) <= PTS_ULPS * math.ulp(nu), (mu, env, nu, expected)
    s_b = oracles._entropy_term(nu_b)
    s_ab = oracles._entropy_term(nu_plus) + oracles._entropy_term(nu_minus)
    assert abs(report.coherent_info - (s_b - s_ab)) <= \
        COHERENT_INFO_ULPS * math.ulp(float(max(s_b, s_ab, 1))), (mu, env, report)


def assert_cm_close(a, b, rtol):
    scale = float(np.abs(b).max())
    np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * scale)


class TestDirectOutput:
    def test_transparent_environment_limit(self):
        env = EnvironmentParams(1.0 - 1e-12, 3.0, 1.0, -1.0)
        out = direct_output_cm(2.0, env)
        assert_cm_close(out.data, make_epr_cm(2.0).data, rtol=1e-10)

    def test_mu_one_closed_form(self):
        env = EnvironmentParams(0.6, 2.5, 1.0, -0.5)
        out = direct_output_cm(1.0, env)
        x = 0.6 * 1.0 + 0.4 * 2.5
        np.testing.assert_allclose(out.mode_block(0, 0), x * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(out.mode_block(1, 1), x * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(out.mode_block(0, 1), 0.4 * np.diag([1.0, -0.5]),
                                   rtol=1e-14)

    def test_large_mu_pts_reaches_asymptote(self):
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        eps = pts_min_eigenvalue(direct_output_cm(LARGE_MU, env), (1,))
        assert eps == pytest.approx(0.75, rel=1e-3)

    def test_pipeline_matches_closed_form(self):
        for mu, env in oracle_draws(np.random.default_rng(31), 100, 200):
            assert_cm_close(direct_output_pipeline(mu, env).data,
                            direct_output_cm(mu, env).data, rtol=1e-10)

    def test_equals_mixture_of_input_and_environment(self):
        for mu, env in oracle_draws(np.random.default_rng(43), 100, 100):
            mixture = (env.tau * make_epr_cm(mu).data
                       + (1.0 - env.tau) * make_env_cm(env.omega, env.g, env.gp).data)
            np.testing.assert_array_equal(direct_output_cm(mu, env).data, mixture)

    def test_rejects_mu_below_one(self):
        with pytest.raises(DomainError):
            direct_output_cm(0.5, EnvironmentParams(0.5, 2.0, 0.0, 0.0))


class TestOneModeOutput:
    def test_transparent_channel_limit(self):
        env = EnvironmentParams(1.0 - 1e-12, 5.0, 0.0, 0.0)
        assert_cm_close(one_mode_output_pipeline(3.0, env).data, make_epr_cm(3.0).data,
                        rtol=1e-10)

    def test_pipeline_matches_closed_form(self):
        # [[mu I, c Z], [c Z, x I]] with c = sqrt(mu^2 - 1) sqrt(tau) and
        # x = tau mu + (1 - tau) omega
        for mu, env in oracle_draws(np.random.default_rng(37), 50, 250):
            x = env.tau * mu + (1.0 - env.tau) * env.omega
            c = math.sqrt(mu * mu - 1.0) * math.sqrt(env.tau)
            z = np.diag([1.0, -1.0])
            closed = np.block([[mu * np.eye(2), c * z], [c * z, x * np.eye(2)]])
            assert_cm_close(one_mode_output_pipeline(mu, env).data, closed, rtol=1e-10)

    def test_eb_saturation(self):
        # (1 - tau) omega / (1 + tau) = 1 at tau = 0.5, omega = 3
        env = EnvironmentParams(0.5, 3.0, 0.0, 0.0)
        eps = pts_min_eigenvalue(one_mode_output_pipeline(LARGE_MU, env), (1,))
        assert eps == pytest.approx(1.0, abs=1e-3)

    def test_below_threshold_stays_entangling(self):
        env = EnvironmentParams(0.5, 2.0, 0.0, 0.0)
        eps = pts_min_eigenvalue(one_mode_output_pipeline(LARGE_MU, env), (1,))
        assert eps == pytest.approx(2.0 / 3.0, rel=1e-3)
        assert eps < 1.0


class TestDirectEpsAsymptotic:
    def test_memoryless_at_eb(self):
        env = EnvironmentParams(0.75, 7.0, 0.0, 0.0)
        # (1 - tau) * omega = 1 + tau at the EB threshold
        assert direct_eps_asymptotic(env) == pytest.approx(1.75, rel=1e-14)

    def test_separable_activation_point(self):
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        assert direct_eps_asymptotic(env) == pytest.approx(0.75, rel=1e-14)
        assert classify_environment(7.0, 4.0, -4.0).kind is EnvKind.SEPARABLE

    def test_distillable_from_separable_point(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        eps = direct_eps_asymptotic(env)
        assert eps == pytest.approx(0.25, rel=1e-14)
        assert eps < math.exp(-1.0)
        assert classify_environment(7.0, 6.0, -6.0).kind is EnvKind.SEPARABLE

    def test_eb_threshold_identity(self):
        # at omega = omega_EB the eps formula factors through the correlations only
        rng = np.random.default_rng(41)
        from entdist import bona_fide_check

        done = 0
        while done < 50:
            tau = float(rng.uniform(0.05, 0.95))
            omega = eb_threshold(tau)
            g = float(rng.uniform(-omega, omega))
            gp = float(rng.uniform(-omega, omega))
            if not bona_fide_check(omega, g, gp):
                continue
            env = EnvironmentParams(tau, omega, g, gp)
            expected = math.sqrt((1 + tau - (1 - tau) * g) * (1 + tau + (1 - tau) * gp))
            assert direct_eps_asymptotic(env) == pytest.approx(expected, rel=1e-12)
            done += 1

    def test_rejects_non_bona_fide(self):
        # the params are physical by construction: a forbidden environment is
        # refused when it is built, so no evaluator ever receives one
        with pytest.raises(DomainError, match="not a physical environment"):
            EnvironmentParams(0.5, 2.0, 1.9, 1.9)


class TestDirectSpectrumAsymptotic:
    def test_degenerate_pair(self):
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        nu_plus, nu_minus = direct_spectrum_asymptotic(env, 1e4)
        expected = math.sqrt(6.0 * 0.1875 * 1e4)
        assert nu_plus == pytest.approx(expected, rel=1e-14)
        assert nu_minus == pytest.approx(expected, rel=1e-14)

    def test_memoryless_reduction(self):
        env = EnvironmentParams(0.6, 3.0, 0.0, 0.0)
        nu_plus, nu_minus = direct_spectrum_asymptotic(env, 1e5)
        expected = math.sqrt(2.0 * 3.0 * 0.4 * 0.6 * 1e5)
        assert (nu_plus, nu_minus) == pytest.approx((expected, expected), rel=1e-14)

    def test_product_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            env = random_bona_fide_env(rng)
            mu = float(rng.uniform(10.0, 1e6))
            nu_plus, nu_minus = direct_spectrum_asymptotic(env, mu)
            assert nu_plus * nu_minus == pytest.approx(
                2.0 * env.tau * mu * direct_eps_asymptotic(env), rel=1e-9
            )

    def test_finite_mu_spectrum_converges(self):
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        finite = symplectic_eigenvalues(direct_output_cm(1e8, env))
        asym = direct_spectrum_asymptotic(env, 1e8)
        np.testing.assert_allclose(finite, asym, rtol=1e-3)


class TestCoherentInfoAsymptotic:
    def test_threshold(self):
        assert coherent_info_asymptotic(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_quarter(self):
        assert coherent_info_asymptotic(0.25) == pytest.approx(math.log(4.0) - 1.0,
                                                               rel=1e-14)

    def test_unit_eps(self):
        assert coherent_info_asymptotic(1.0) == -1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            coherent_info_asymptotic(0.0)


class TestSwapNoiseless:
    def test_mu_two_values(self):
        cm = swap_noiseless_pipeline(2.0)
        np.testing.assert_allclose(cm.mode_block(0, 0), 1.25 * np.eye(2))
        np.testing.assert_allclose(cm.mode_block(0, 1), 0.75 * np.diag([1.0, -1.0]))
        assert pts_min_eigenvalue(cm, (1,)) == pytest.approx(0.5, abs=1e-12)

    def test_mu_one_gives_vacua(self):
        cm = swap_noiseless_pipeline(1.0)
        np.testing.assert_array_equal(cm.data, np.eye(4))
        assert pts_min_eigenvalue(cm, (1,)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [1.0, 2.0, 5.0, 10.0, 100.0])
    def test_pipeline_reproduces_closed_form(self, mu):
        # (1/2mu) [[(mu^2+1) I, (mu^2-1) Z], [(mu^2-1) Z, (mu^2+1) I]]
        a, c = (mu * mu + 1.0) / (2.0 * mu), (mu * mu - 1.0) / (2.0 * mu)
        z = np.diag([1.0, -1.0])
        closed = np.block([[a * np.eye(2), c * z], [c * z, a * np.eye(2)]])
        assert_cm_close(swap_noiseless_pipeline(mu).data, closed, rtol=1e-10)

    @pytest.mark.parametrize("mu", [1.5, 3.0, 40.0])
    def test_eps_and_epr_variances_are_reciprocal_mu(self, mu):
        cm = swap_noiseless_pipeline(mu)
        assert pts_min_eigenvalue(cm, (1,)) == pytest.approx(1.0 / mu, abs=1e-12)
        var = epr_variances_from_cm(cm)
        assert var.v_qminus == pytest.approx(1.0 / mu, abs=1e-12)
        assert var.v_pplus == pytest.approx(1.0 / mu, abs=1e-12)


class TestSwapConditional:
    def test_bell_port_variances(self):
        # q of the difference port: tau mu + (1 - tau)(omega - g);
        # p of the sum port: tau mu + (1 - tau)(omega + gp)
        env = EnvironmentParams(0.75, 7.0, 5.0, -5.0)
        var_q, var_p = bell_port_variances(4.0, env)
        assert var_q == pytest.approx(0.75 * 4.0 + 0.25 * 2.0)
        assert var_p == pytest.approx(0.75 * 4.0 + 0.25 * 2.0)
        var_q, var_p = bell_port_variances(4.0, EnvironmentParams(0.6, 7.0, 2.0, 1.0))
        assert (var_q, var_p) == pytest.approx((0.6 * 4.0 + 0.4 * 5.0, 0.6 * 4.0 + 0.4 * 8.0))

    def test_transparent_environment_reduces_to_noiseless(self):
        env = EnvironmentParams(1.0 - 1e-12, 4.0, 1.0, -1.0)
        assert_cm_close(swap_conditional_cm(2.0, env).data,
                        swap_noiseless_pipeline(2.0).data, rtol=1e-9)

    def test_large_mu_pts_reaches_asymptote(self):
        env = EnvironmentParams(0.75, 7.0, 5.0, -5.0)
        eps = pts_min_eigenvalue(swap_conditional_cm(LARGE_MU, env), (1,))
        assert eps == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_memoryless_at_eb_cannot_swap(self):
        env = EnvironmentParams(0.5, eb_threshold(0.5), 0.0, 0.0)
        eps = pts_min_eigenvalue(swap_conditional_cm(LARGE_MU, env), (1,))
        # 1 + 1/tau = 3 at tau = 0.5
        assert eps == pytest.approx(3.0, rel=1e-3)

    def test_pipeline_matches_closed_form(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            mu = float(rng.uniform(1.0, 1e3))
            env = random_bona_fide_env(rng)
            assert_cm_close(swap_conditional_pipeline(mu, env).data,
                            swap_conditional_cm(mu, env).data, rtol=1e-8)

    def test_pipeline_matches_closed_form_at_large_mu(self):
        env = EnvironmentParams(0.75, 7.0, 5.0, -5.0)
        assert_cm_close(swap_conditional_pipeline(LARGE_MU, env).data,
                        swap_conditional_cm(LARGE_MU, env).data, rtol=1e-6)


class TestSwapEpsAsymptotic:
    def test_distillable_separable_point(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        eps = swap_eps_asymptotic(env)
        assert eps == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert eps < math.exp(-1.0)

    def test_memoryless_failure(self):
        env = EnvironmentParams(0.5, 3.0, 0.0, 0.0)
        assert swap_eps_asymptotic(env) == pytest.approx(3.0, rel=1e-14)

    def test_factor_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            env = random_bona_fide_env(rng)
            assert swap_eps_asymptotic(env) == pytest.approx(
                direct_eps_asymptotic(env) / env.tau, rel=1e-12
            )

    def test_low_transmissivity_never_separable_activated(self):
        # dense grid over the physical region at the EB threshold
        for tau in (0.3, 0.4, 0.5):
            omega = eb_threshold(tau)
            gs = np.linspace(-omega, omega, 401)
            g_mesh, gp_mesh = np.meshgrid(gs, gs, indexing="ij")
            bona = ((np.abs(g_mesh) < omega) & (np.abs(gp_mesh) < omega)
                    & (omega * omega + g_mesh * gp_mesh - 1.0
                       >= omega * np.abs(g_mesh + gp_mesh)))
            sep = omega * omega - g_mesh * gp_mesh - 1.0 >= omega * np.abs(g_mesh - gp_mesh)
            with np.errstate(invalid="ignore"):
                eps = (1.0 - tau) / tau * np.sqrt(
                    np.maximum((omega - g_mesh) * (omega + gp_mesh), 0.0))
            assert not np.any(bona & sep & (eps < 1.0))


class TestSwapEprVariances:
    def test_memoryless_at_eb(self):
        env = EnvironmentParams(0.5, eb_threshold(0.5), 0.0, 0.0)
        var = swap_epr_variances_asymptotic(env)
        assert var.v_qminus == pytest.approx(3.0, rel=1e-14)
        assert var.v_pplus == pytest.approx(3.0, rel=1e-14)
        assert not var.epr_correlated()

    def test_reflected_correlations_swap_epr(self):
        env = EnvironmentParams(0.75, 7.0, 5.0, -5.0)
        var = swap_epr_variances_asymptotic(env)
        assert var.v_qminus == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert var.v_pplus == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert var.epr_correlated()

    def test_finite_mu_quadratic_forms_converge(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            env = random_bona_fide_env(rng, omega_range=(1.0, 6.0))
            finite = epr_variances_from_cm(swap_conditional_cm(LARGE_MU, env))
            asym = swap_epr_variances_asymptotic(env)
            assert finite.v_qminus == pytest.approx(asym.v_qminus, rel=1e-3)
            assert finite.v_pplus == pytest.approx(asym.v_pplus, rel=1e-3)


class TestProtocolRunners:
    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_convergence_contract(self, runner):
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        eps_inf = EPS_ASYMPTOTIC[runner](env)
        for mu in (1e5, 1e6):
            assert abs(runner(mu, env).report.pts_min - eps_inf) <= 1e-3 * eps_inf

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_monotone_convergence(self, runner):
        rng = np.random.default_rng(61)
        for _ in range(10):
            env = random_bona_fide_env(rng, omega_range=(1.2, 6.0))
            errors = [abs(runner(mu, env).report.pts_min - EPS_ASYMPTOTIC[runner](env))
                      for mu in (1e2, 1e4, 1e6)]
            assert errors[0] >= errors[1] >= errors[2]

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    @pytest.mark.parametrize("mu", [1e151, 1e200, math.inf, math.nan])
    def test_rejects_mu_beyond_magnitude_limit(self, runner, mu):
        # mu^2 would overflow; the pipelines failed with an AssertionError or a
        # LinAlgError instead of a DomainError
        with pytest.raises(DomainError, match="magnitude"):
            runner(mu, EnvironmentParams(0.5, 7.0, 4.0, -4.0))

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_result_is_the_output_and_its_report(self, runner):
        # the large-mu values are large_mu_eps and coherent_info_asymptotic, not fields
        result = runner(1e3, EnvironmentParams(0.75, 7.0, 4.0, -4.0))
        assert type(result) is ProtocolResult
        assert ProtocolResult._fields == ("output_cm", "report")

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_results_compare_by_value(self, runner):
        # the output matrix's array made tuple's == raise ValueError
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        result = runner(1e3, env)
        assert result == runner(1e3, env) and not result != runner(1e3, env)
        assert result == tuple(result) and tuple(result) == result
        for other in (runner(1e4, env), runner(1e3, env._replace(g=3.0))):
            assert result != other and not result == other
        with pytest.raises(TypeError):
            hash(result)

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_runner_rechecks_nothing_and_diagonalizes_once(self, runner, monkeypatch):
        # the reduced block of mode B, for S(B); the PTS eigenvalue and the
        # full spectrum are closed forms
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append((name, np.shape(args[0])))
                return function(*args)
            return wrapper

        monkeypatch.setattr(entdist.symplectic, "_symplectic_spectrum",
                            counted("eig", entdist.symplectic._symplectic_spectrum))
        monkeypatch.setattr(entdist.environment, "require_bona_fide",
                            counted("check", entdist.environment.require_bona_fide))
        runner(1e3, env)
        assert calls == [("eig", (2, 2))]

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_report_is_the_reference_report(self, runner):
        # every figure against the mpf model: the PTS eigenvalue and the full
        # spectrum within PTS_ULPS of each eigenvalue, the coherent information
        # within COHERENT_INFO_ULPS of the larger of its entropies and 1
        rng = np.random.default_rng(2026)
        for _ in range(200):
            env = random_bona_fide_env(rng, omega_range=(1.0, 50.0))
            mu = float(10.0 ** rng.uniform(1.0, 6.0))
            report = runner(mu, env).report
            with mpmath.workdps(60):
                assert_report_is_the_reference(report, PROTOCOL_NAMES[runner], mu, env)

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    @pytest.mark.parametrize("log10_mu, dps, n", [((0.0, 15.0), 60, 300),
                                                   ((15.0, 150.0), 330, 30)])
    def test_report_is_the_reference_at_every_mu(self, runner, log10_mu, dps, n):
        # the reference loses about 2*log10(mu) of its digits to cancellation
        rng = np.random.default_rng(37)
        for _ in range(n):
            env = random_bona_fide_env(rng)
            mu = float(10.0 ** rng.uniform(*log10_mu))
            report = runner(mu, env).report
            with mpmath.workdps(dps):
                assert_report_is_the_reference(report, PROTOCOL_NAMES[runner], mu, env)

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    @pytest.mark.parametrize("mu, env", [
        # a seeded draw that the eigensolve of the output matrix refused as
        # "not positive-definite"
        (745563078511248.5, EnvironmentParams(0.9227522067266897, 2.416533707215296,
                                              -1.191118440891899, -1.4484676637483087)),
        (1e17, EnvironmentParams(0.5, 7.0, 4.0, -4.0)),
        (1e150, EnvironmentParams(0.9999999999999999, eb_threshold(0.9999999999999999),
                                  1e16, -1e16)),
    ])
    def test_large_mu_is_the_reference(self, runner, mu, env):
        report = runner(mu, env).report
        with mpmath.workdps(330):
            assert_report_is_the_reference(report, PROTOCOL_NAMES[runner], mu, env)

    @pytest.mark.parametrize("point", [
        (272.37711447356196, 0.5463504397133371, 3.408689382915289, 3.074072715731224,
         -1.4352231452314606),
        (172.66979011473583, 0.9253436681835006, 35.906323472058446, 35.053838128356645,
         -7.971240048526166),
        (357.86507761129747, 0.47634189503359586, 2.8192858680728565, 2.4696170639018615,
         -1.4012046660383086),
    ])
    def test_near_zero_coherent_info_meets_the_contract(self, point):
        # finite-mu benchmark pool points (seeds 4007, 3309 and 79) whose
        # coherent information, 8.7e-05, -8.3e-05 and 3.9e-05, the eigensolve of
        # the output matrix got wrong beyond the 9-digit contract (a half unit
        # of 5e-14 at the first)
        report = run_direct(point[0], EnvironmentParams(*point[1:])).report
        expected = oracles.finite_mu_reference("direct", *point)
        assert all(oracles.within_contract((report.pts_min, report.coherent_info), expected))

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_coherent_info_near_mu_one_is_the_reference(self, runner):
        # S(B) once counted mode B's nu as 1 up to a window scaled by its
        # block's entries, 1e-11*M, and S(AB) only up to h's own 1e-12: for mu
        # within about 1e-11 of 1, S(B) read 0 while S(AB) was counted, and the
        # swap's coherent information came out up to twice the reference
        # (1.3e-10 off). h now gives 0 to no nu above 1, where a window up to
        # 1 + 1e-12 cost up to h(1 + 1e-12) = 1.5e-11 per eigenvalue it zeroed.
        # Without any window these reports, 300 per runner, read at most 5.2e-15 off
        rng = np.random.default_rng(11)
        protocol = PROTOCOL_NAMES[runner]
        for _ in range(300):
            env = random_bona_fide_env(rng)
            mu = 1.0 + float(10.0 ** rng.uniform(-15.0, -8.0))
            got = runner(mu, env).report.coherent_info
            _, expected = oracles.finite_mu_reference(protocol, mu, env.tau, env.omega,
                                                      env.g, env.gp)
            assert abs(got - expected) <= 1e-13, (mu, env, got, expected)

    @pytest.mark.parametrize("protocol, mu, env", [
        ("swap", 1.000000000003058, (0.8056029003649895, 79.19769181348528,
                                     -55.59066819946741, 31.4433828610223)),
        ("swap", 1.0000000000148745, (0.3324167007975312, 7.1536828349334955,
                                      -0.5302836879767705, -6.8242598941009645)),
        ("direct", 1.00000000001, (0.3, 1.0, 0.0, 0.0)),
        ("direct", 1.00000000001, (0.7, 1.0, 0.0, 0.0)),
        ("direct", 1.0000000000040716, (0.394179424194733, 1.0, 0.0, 0.0)),
    ])
    def test_coherent_info_near_mu_one_at_points_the_scaled_window_missed(
            self, protocol, mu, env):
        # read -8.35e-11, -2.68e-10, -6.0e-11 and -6.0e-11 against the
        # reference's -4.18e-11, -1.34e-10, -1.77e-11 and +3.58e-11: the fourth
        # with the wrong sign. The fifth read +2.32e-11 against -5.39e-12 when h
        # still zeroed nu up to 1 + 1e-12, each of those costing up to 1.5e-11.
        # Without any window all five read at most 1.0e-15 off
        runner = {"direct": run_direct, "swap": run_swap}[protocol]
        got = runner(mu, EnvironmentParams(*env)).report.coherent_info
        _, expected = oracles.finite_mu_reference(protocol, mu, *env)
        assert abs(got - expected) <= 1e-13, (got, expected)

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_mode_b_eigenvalue_bounds_its_block(self, runner):
        # nu_B >= M/sqrt(2), M the largest entry of mode B's block: direct's
        # block is nu_B*I, and swap's is diag(a_q, a_p) with
        # (mu^2 + 1)/(2mu) <= a_x <= mu, so max/min < 2. A rounding of a few
        # ulps of M is then a few ulps of nu_B, and h's fixed windows fit S(B)
        # as they fit the closed-form S(AB)
        rng = np.random.default_rng(5)
        for _ in range(500):
            env = random_bona_fide_env(rng)
            mu = float(10.0 ** rng.uniform(0.0, 150.0))
            block = runner(mu, env).output_cm.data[2:, 2:]
            assert _symplectic_spectrum(block) >= float(np.abs(block).max()) / math.sqrt(2.0), \
                (mu, env)

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    @pytest.mark.parametrize("log10_mu", [2, 5, 7, 9, 12, 14])
    def test_contract_across_decades(self, runner, log10_mu):
        # 150 seeded points per decade, tau in (0.55, 0.95) at the EB omega,
        # (g, gp) uniform over the bona-fide region, against the 50-digit
        # oracle on the 9-digit output contract. The eigensolve of the output
        # matrix missed most points from mu = 1e9 on
        rng = np.random.default_rng(4000 + log10_mu)
        protocol, missed = PROTOCOL_NAMES[runner], []
        for _ in range(150):
            tau = float(rng.uniform(0.55, 0.95))
            omega = eb_threshold(tau)
            while True:
                g, gp = (float(x) for x in rng.uniform(-omega, omega, size=2))
                if oracles.bona_fide(omega, g, gp):
                    break
            mu = float(10.0 ** rng.uniform(log10_mu, log10_mu + 1))
            report = runner(mu, EnvironmentParams(tau, omega, g, gp)).report
            got = (report.pts_min, report.coherent_info)
            expected = oracles.finite_mu_reference(protocol, mu, tau, omega, g, gp)
            if not all(oracles.within_contract(got, expected)):
                missed.append((mu, tau, omega, g, gp, got, expected))
        assert not missed

    def test_report_sides(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        assert direct_eps_asymptotic(env) == pytest.approx(0.25)
        assert run_direct(LARGE_MU, env).report.pts_min == pytest.approx(0.25, rel=1e-3)
        assert coherent_info_asymptotic(direct_eps_asymptotic(env)) == \
            pytest.approx(math.log(4.0) - 1.0)


class TestCoherentInfoConsistency:
    def test_direct_distillable_point(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        info = reference_report(direct_output_cm(LARGE_MU, env), (1,)).coherent_info
        assert info == pytest.approx(math.log(1.0 / (math.e * 0.25)), abs=1e-2)

    def test_swap_entropy_difference_and_determinant_form(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        cm = swap_conditional_cm(LARGE_MU, env)
        entropy_diff = reference_report(cm, (1,)).coherent_info
        det_form = swap_coherent_info_determinant(cm)
        asym = coherent_info_asymptotic(swap_eps_asymptotic(env))
        assert entropy_diff == pytest.approx(asym, abs=1e-2)
        assert det_form == pytest.approx(asym, abs=1e-2)
        assert det_form == pytest.approx(entropy_diff, abs=1e-3)


class TestDistillableBracket:
    # max(0, I_C) <= E_D, the one-way hashing bound (Devetak and Winter, Proc.
    # R. Soc. A 461, 207 (2005)), and E_D <= E_N (Vidal and Werner, PRA 65,
    # 032314 (2002)): the coherent information never exceeds the log-negativity

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_coherent_info_is_at_most_the_log_negativity(self, runner):
        # each side within its ulp bound: PTS_ULPS of eps for E_N, and
        # COHERENT_INFO_ULPS of the larger of S(B), S(AB) and 1 for I_C
        rng = np.random.default_rng(17)
        for _ in range(400):
            env = random_bona_fide_env(rng)
            mu = float(10.0 ** rng.uniform(0.0, 150.0))
            report = runner(mu, env).report
            s_ab = sum(map(entdist.h, report.symplectic_spectrum))
            s_b = report.coherent_info + s_ab
            eps, e_n = report.pts_min, report.log_negativity
            slack = PTS_ULPS * math.ulp(eps) / eps + math.ulp(e_n) + \
                COHERENT_INFO_ULPS * math.ulp(max(s_b, s_ab, 1.0))
            assert max(0.0, report.coherent_info) <= e_n + slack, (mu, env, report)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_large_mu_bracket_is_one_nat_wide(self, eps):
        # E_N = -ln(eps) against I_C = -1 - ln(eps) at large mu, for eps < 1
        gap = log_negativity(eps) - coherent_info_asymptotic(eps)
        assert abs(gap - 1.0) <= math.ulp(max(log_negativity(eps), 1.0))
