import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from entdist import (
    DomainError,
    EnvironmentParams,
    EnvKind,
    bona_fide_check,
    classify_environment,
    eb_threshold,
    eb_threshold_nbar,
    env_pts,
    is_separable,
    make_env_cm,
    pts_min_eigenvalue,
)

from conftest import random_bona_fide_env

omegas = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)
corrs = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)


class TestEnvironmentParams:
    def test_valid(self):
        env = EnvironmentParams(0.5, 2.0, 0.5, -0.5)
        assert env.tau == 0.5

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_tau(self, tau):
        with pytest.raises(DomainError):
            EnvironmentParams(tau, 2.0, 0.0, 0.0)

    def test_rejects_omega(self):
        with pytest.raises(DomainError):
            EnvironmentParams(0.5, 0.99, 0.0, 0.0)

    @pytest.mark.parametrize("omega, g, gp", [(1e151, 0.0, 0.0), (2.0, -1e151, 0.0),
                                              (2.0, 0.0, 1e200), (2.0, float("nan"), 0.0)])
    def test_rejects_magnitudes_whose_products_overflow(self, omega, g, gp):
        with pytest.raises(DomainError, match="magnitude"):
            EnvironmentParams(0.5, omega, g, gp)

    def test_accepts_magnitude_limit(self):
        EnvironmentParams(0.5, 1e150, -1e150, 1e150)


class TestBonaFideCheck:
    def test_uncorrelated_thermal(self):
        assert bona_fide_check(2.0, 0.0, 0.0)

    def test_too_correlated(self):
        check = bona_fide_check(2.0, 1.9, 1.9)
        assert not check
        # 4 + 3.61 - 1 = 6.61 < 2 * 3.8 = 7.6
        assert any("omega^2 + g*gp" in f for f in check.failures)

    def test_anticorrelated_strong_point(self):
        # 49 - 36 - 1 = 12 >= 0
        assert bona_fide_check(7.0, 6.0, -6.0)

    def test_rejects_omega_below_one(self):
        with pytest.raises(DomainError):
            bona_fide_check(0.5, 0.0, 0.0)

    def test_reports_marginal_violations(self):
        check = bona_fide_check(2.0, 2.5, 0.0)
        assert not check
        assert any("|g| < omega" in f for f in check.failures)


class TestEnvPts:
    @given(omegas)
    def test_uncorrelated_gives_omega(self, omega):
        assert env_pts(omega, 0.0, 0.0) == pytest.approx(omega, rel=1e-15)

    def test_separable_boundary_point(self):
        # sqrt(49 + 36 - 7*12) = 1
        assert env_pts(7.0, 6.0, -6.0) == 1.0

    def test_entangled_point(self):
        # sqrt(4 + 2.25 - 6) = 0.5
        assert env_pts(2.0, 1.5, -1.5) == 0.5

    def test_rejects_non_bona_fide(self):
        with pytest.raises(DomainError):
            env_pts(2.0, 1.9, 1.9)

    @pytest.mark.parametrize("a, b", [(5e-5, 5e-5), (1e-4, 2.5e-4), (2.5e-4, 1e-4)])
    def test_no_cancellation_near_corners_at_large_omega(self, a, b):
        # the radicand is (omega - g)(omega + gp) for g >= gp and
        # (omega + g)(omega - gp) otherwise; near the corners the differences are exact
        omega = 1e4
        g, gp = omega - a, -omega + b
        assert env_pts(omega, g, gp) == pytest.approx(math.sqrt((omega - g) * (omega + gp)),
                                                      rel=1e-14)
        assert env_pts(omega, -g, -gp) == pytest.approx(math.sqrt((omega - g) * (omega + gp)),
                                                        rel=1e-14)

    def test_matches_matrix_path(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            env = random_bona_fide_env(rng)
            formula = env_pts(env.omega, env.g, env.gp)
            generic = pts_min_eigenvalue(make_env_cm(env.omega, env.g, env.gp), (1,))
            assert generic == pytest.approx(formula, abs=1e-10, rel=1e-10)


class TestClassifyEnvironment:
    def test_examples(self):
        assert classify_environment(2.0, 0.0, 0.0).kind is EnvKind.SEPARABLE
        assert classify_environment(2.0, 1.5, -1.5).kind is EnvKind.ENTANGLED
        forbidden = classify_environment(2.0, 1.9, 1.9)
        assert forbidden.kind is EnvKind.FORBIDDEN
        assert forbidden.env_pts is None

    @given(omegas, corrs, corrs)
    def test_trichotomy(self, omega, g, gp):
        kind = classify_environment(omega, g, gp).kind
        assert kind in (EnvKind.FORBIDDEN, EnvKind.SEPARABLE, EnvKind.ENTANGLED)
        assert bool(bona_fide_check(omega, g, gp)) == (kind is not EnvKind.FORBIDDEN)

    @given(omegas, corrs, corrs)
    def test_agrees_with_pts_threshold(self, omega, g, gp):
        assume(bona_fide_check(omega, g, gp))
        cls = classify_environment(omega, g, gp)
        assert (cls.kind is EnvKind.SEPARABLE) == (cls.env_pts >= 1.0)

    @given(omegas, corrs, corrs)
    def test_negated_swap_symmetry(self, omega, g, gp):
        # both the bona-fide conditions and eps are invariant under (g, gp) -> (-gp, -g)
        assume(bona_fide_check(omega, g, gp))
        assert bona_fide_check(omega, -gp, -g)
        assert env_pts(omega, g, gp) == pytest.approx(env_pts(omega, -gp, -g), rel=1e-14)
        assert classify_environment(omega, g, gp).kind is classify_environment(omega, -gp, -g).kind

    @pytest.mark.parametrize("omega", [1.5, 2.0, 3.0, 7.0])
    def test_boundary_points_are_separable_with_unit_pts(self, omega):
        # g = omega - 1, gp = -g sits exactly on the separability boundary
        g = omega - 1.0
        cls = classify_environment(omega, g, -g)
        assert cls.kind is EnvKind.SEPARABLE
        assert cls.env_pts == pytest.approx(1.0, abs=1e-12)

    @given(omegas)
    def test_uncorrelated_always_separable(self, omega):
        assert classify_environment(omega, 0.0, 0.0).kind is EnvKind.SEPARABLE

    def test_is_separable_polynomial_form(self):
        assert is_separable(7.0, 6.0, -6.0)
        assert not is_separable(2.0, 1.5, -1.5)


class TestEbThreshold:
    def test_reference_values(self):
        assert eb_threshold(0.3) == pytest.approx(13.0 / 7.0, rel=1e-12)
        assert eb_threshold(0.5) == pytest.approx(3.0, rel=1e-12)
        assert eb_threshold(0.75) == pytest.approx(7.0, rel=1e-12)
        assert eb_threshold(0.9) == pytest.approx(19.0, rel=1e-12)

    def test_nbar_form(self):
        # omega = 2 nbar + 1 ties the two thresholds together
        for tau in (0.3, 0.5, 0.75, 0.9):
            assert eb_threshold(tau) == pytest.approx(2.0 * eb_threshold_nbar(tau) + 1.0,
                                                      rel=1e-12)

    def test_limit_toward_zero_transmissivity(self):
        assert eb_threshold(1e-9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range(self, tau):
        with pytest.raises(DomainError):
            eb_threshold(tau)
        with pytest.raises(DomainError):
            eb_threshold_nbar(tau)
