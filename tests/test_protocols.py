import math

import numpy as np
import pytest

import entdist
from entdist import (
    DomainError,
    EnvironmentParams,
    EnvKind,
    classify_environment,
    coherent_info_asymptotic,
    direct_eps_asymptotic,
    direct_output_cm,
    eb_threshold,
    entanglement_report,
    epr_variances_from_cm,
    pts_min_eigenvalue,
    run_direct,
    run_swap,
    swap_coherent_info_determinant,
    swap_conditional_cm,
    swap_epr_variances_asymptotic,
    swap_eps_asymptotic,
    symplectic_eigenvalues,
)

from conftest import random_bona_fide_env
from gaussian_reference import (
    bell_port_variances,
    direct_output_pipeline,
    direct_spectrum_asymptotic,
    make_env_cm,
    make_epr_cm,
    one_mode_output_pipeline,
    swap_conditional_pipeline,
    swap_noiseless_pipeline,
)

LARGE_MU = 1e6


def oracle_draws(rng, n_uniform, n_log_uniform):
    """(mu, env) pairs: mu uniform in [1, 1e3], then log-uniform in [1, 1e15],
    the range that ``point --mu`` and ``converge`` reach."""
    for _ in range(n_uniform):
        yield float(rng.uniform(1.0, 1e3)), random_bona_fide_env(rng)
    for _ in range(n_log_uniform):
        yield float(10.0 ** rng.uniform(0.0, 15.0)), random_bona_fide_env(rng)


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
        for mu in (1e5, 1e6):
            result = runner(mu, env)
            assert abs(result.report.pts_min - result.asymptotic_eps) <= \
                1e-3 * result.asymptotic_eps

    @pytest.mark.parametrize("runner", [run_direct, run_swap])
    def test_monotone_convergence(self, runner):
        rng = np.random.default_rng(61)
        for _ in range(10):
            env = random_bona_fide_env(rng, omega_range=(1.2, 6.0))
            errors = [abs(runner(mu, env).report.pts_min - runner(mu, env).asymptotic_eps)
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
    def test_runner_rechecks_nothing_and_diagonalizes_three_times(self, runner, monkeypatch):
        # the PT spectrum, the reduced spectrum and the full spectrum, which
        # serves both the report and S(AB)
        env = EnvironmentParams(0.75, 7.0, 4.0, -4.0)
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        monkeypatch.setattr(entdist.symplectic, "symplectic_eigenvalues",
                            counted("eig", entdist.symplectic.symplectic_eigenvalues))
        monkeypatch.setattr(entdist.environment, "require_bona_fide",
                            counted("check", entdist.environment.require_bona_fide))
        runner(1e3, env)
        assert calls == ["eig"] * 3

    def test_report_sides(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        result = run_direct(LARGE_MU, env)
        assert result.asymptotic_eps == pytest.approx(0.25)
        assert result.report.pts_min == pytest.approx(0.25, rel=1e-3)
        assert result.asymptotic_coherent_info == pytest.approx(math.log(4.0) - 1.0)


class TestCoherentInfoConsistency:
    def test_direct_distillable_point(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        info = entanglement_report(direct_output_cm(LARGE_MU, env), (1,)).coherent_info
        assert info == pytest.approx(math.log(1.0 / (math.e * 0.25)), abs=1e-2)

    def test_swap_entropy_difference_and_determinant_form(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        cm = swap_conditional_cm(LARGE_MU, env)
        entropy_diff = entanglement_report(cm, (1,)).coherent_info
        det_form = swap_coherent_info_determinant(cm)
        asym = coherent_info_asymptotic(swap_eps_asymptotic(env))
        assert entropy_diff == pytest.approx(asym, abs=1e-2)
        assert det_form == pytest.approx(asym, abs=1e-2)
        assert det_form == pytest.approx(entropy_diff, abs=1e-3)
