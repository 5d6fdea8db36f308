import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from entdist import (
    BonaFideResult,
    DomainError,
    EnvironmentParams,
    EnvKind,
    Protocol,
    bona_fide_check,
    classify_environment,
    eb_threshold,
    is_separable,
)
from entdist.environment import (MAX_MAGNITUDE, bona_fide_conditions, env_pts_radicand,
                                 falling, rising)
from entdist.protocols import large_mu_eps

from conftest import random_bona_fide_env
from gaussian_reference import make_env_cm, pts_min_eigenvalue

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
        EnvironmentParams(0.5, 1e150, -5e149, 5e149)

    @pytest.mark.parametrize("omega, g, gp, condition", [
        (2.0, 2.5, 0.0, "|g| < omega"),
        (2.0, 0.0, -2.5, "|gp| < omega"),
        (2.0, 1.9, 1.9, "omega^2 + g*gp - 1 >= omega*|g + gp|"),
    ], ids=["marginal_g", "marginal_gp", "uncertainty"])
    def test_rejects_non_bona_fide(self, omega, g, gp, condition):
        expected = "not a physical environment: " + "; ".join(
            bona_fide_check(omega, g, gp).failures)
        assert condition in expected
        with pytest.raises(DomainError) as built:
            EnvironmentParams(0.5, omega, g, gp)
        assert str(built.value) == expected
        env = EnvironmentParams(0.5, omega, 0.0, 0.0)
        with pytest.raises(DomainError) as replaced:
            dataclasses.replace(env, g=g, gp=gp)
        assert str(replaced.value) == expected


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

    def test_verdict_is_read_from_the_failures(self):
        assert [f.name for f in dataclasses.fields(BonaFideResult)] == ["failures"]
        failed, passed = BonaFideResult(("x",)), BonaFideResult(())
        assert not failed and failed.ok is False
        assert passed and passed.ok is True
        assert bona_fide_check(2.0, 2.5, 0.0).ok is False

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_cancellation_near_corners_at_large_omega(self, sign):
        # (omega - g)(omega - gp) = 0.25 < 1; the expanded form's "- 1" falls
        # below the rounding of omega^2 = 1e16 and accepted the point
        omega = 1e8
        check = bona_fide_check(omega, sign * (omega - 0.5), sign * (omega - 0.5))
        assert not check
        assert any("omega^2 + g*gp" in f for f in check.failures)
        assert bona_fide_check(omega, sign * (omega - 1.0), sign * (omega - 1.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_failure_message_reads_true_at_large_omega(self, sign):
        # the expanded sides omega^2 + g*gp - 1 and omega*|g + gp| both round
        # to 1.99999999e+16 here; the message prints the product that is short
        omega = 1e8
        (failure,) = bona_fide_check(omega, sign * (omega - 0.5), sign * (omega - 0.5)).failures
        assert failure.startswith("omega^2 + g*gp")
        (printed,) = re.findall(r"= (\S+) < 1\b", failure)
        assert float(printed) < 1.0


class TestEnvPts:
    @given(omegas)
    def test_uncorrelated_gives_omega(self, omega):
        assert classify_environment(omega, 0.0, 0.0).env_pts == pytest.approx(omega, rel=1e-15)

    def test_separable_boundary_point(self):
        # sqrt(49 + 36 - 7*12) = 1
        assert classify_environment(7.0, 6.0, -6.0).env_pts == 1.0

    def test_entangled_point(self):
        # sqrt(4 + 2.25 - 6) = 0.5
        assert classify_environment(2.0, 1.5, -1.5).env_pts == 0.5

    def test_rejects_non_bona_fide(self):
        # a Forbidden point has no PTS eigenvalue: None, not a number
        cls = classify_environment(2.0, 1.9, 1.9)
        assert cls.kind is EnvKind.FORBIDDEN
        assert cls.env_pts is None

    @pytest.mark.parametrize("a, b", [(6e-5, 6e-5), (1e-4, 2.5e-4), (2.5e-4, 1e-4)])
    def test_no_cancellation_near_corners_at_large_omega(self, a, b):
        # the radicand is (omega - g)(omega + gp) for g >= gp and
        # (omega + g)(omega - gp) otherwise; near the corners the differences are exact
        omega = 1e4
        g, gp = omega - a, -omega + b
        # each case is physical in exact arithmetic, both as written in decimal
        # and as the floats it is evaluated on
        w, exact_a, exact_b = Fraction(omega), Fraction(repr(a)), Fraction(repr(b))
        for x, y in ((w - exact_a, -w + exact_b), (Fraction(g), Fraction(gp))):
            assert all(bona_fide_conditions(w, x, y)) and all(bona_fide_conditions(w, -x, -y))
        expected = pytest.approx(math.sqrt((omega - g) * (omega + gp)), rel=1e-14)
        assert classify_environment(omega, g, gp).env_pts == expected
        assert classify_environment(omega, -g, -gp).env_pts == expected

    def test_matches_matrix_path(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            env = random_bona_fide_env(rng)
            formula = classify_environment(env.omega, env.g, env.gp).env_pts
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
        cls, negated = classify_environment(omega, g, gp), classify_environment(omega, -gp, -g)
        assert cls.env_pts == pytest.approx(negated.env_pts, rel=1e-14)
        assert cls.kind is negated.kind

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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_is_separable_near_corners_at_large_omega(self, sign):
        # env_pts^2 = 0.25 here, but the expanded form called the point separable
        omega = 1e8
        g, gp = sign * (omega - 0.5), -sign * (omega - 0.5)
        assert not is_separable(omega, g, gp)
        assert classify_environment(omega, g, gp).kind is EnvKind.ENTANGLED
        assert is_separable(omega, sign * (omega - 1.0), -sign * (omega - 1.0))


class TestEbThreshold:
    def test_reference_values(self):
        assert eb_threshold(0.3) == pytest.approx(13.0 / 7.0, rel=1e-12)
        assert eb_threshold(0.5) == pytest.approx(3.0, rel=1e-12)
        assert eb_threshold(0.75) == pytest.approx(7.0, rel=1e-12)
        assert eb_threshold(0.9) == pytest.approx(19.0, rel=1e-12)

    def test_nbar_form(self):
        # omega = 2 nbar + 1 gives the threshold's thermal photon number tau/(1 - tau)
        for tau in (0.3, 0.5, 0.75, 0.9):
            assert (eb_threshold(tau) - 1.0) / 2.0 == pytest.approx(tau / (1.0 - tau),
                                                                    rel=1e-12)

    def test_limit_toward_zero_transmissivity(self):
        assert eb_threshold(1e-9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range(self, tau):
        with pytest.raises(DomainError):
            eb_threshold(tau)


# the signed zeros and NaN that numpy's minimum and sqrt treat in their own way
_special = st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0])
_scalars = st.floats(min_value=-MAX_MAGNITUDE, max_value=MAX_MAGNITUDE) | _special
# points at random magnitudes, nearly all forbidden, and points whose
# correlations are fractions of omega, many of them bona fide
_random_points = st.tuples(_scalars, _scalars, _scalars)
_physical_points = st.tuples(
    st.floats(min_value=1.0, max_value=MAX_MAGNITUDE),
    st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0),
).map(lambda p: (p[0], p[0] * p[1], p[0] * p[2]))


def _same_float(scalar, element):
    """Equal values, NaN at the same inputs, and the same sign of zero."""
    if math.isnan(element):
        return math.isnan(scalar)
    return scalar == element and math.copysign(1.0, scalar) == math.copysign(1.0, element)


class TestScalarPathMatchesArrayPath:
    """Each formula dispatches once: float scalars take math and plain
    comparisons, arrays take numpy. A scalar call must return a Python float
    or bool equal to the same element of an array call: the same value, the
    same sign of zero, and NaN at the same inputs."""

    @staticmethod
    def _columns(points):
        return tuple(np.array(column) for column in zip(*points))

    @given(st.lists(_random_points | _physical_points, min_size=1, max_size=40))
    def test_environment_formulas(self, points):
        omega, g, gp = self._columns(points)
        radicand = env_pts_radicand(omega, g, gp)
        separable = is_separable(omega, g, gp)
        conditions = bona_fide_conditions(omega, g, gp)
        products = [(product, product(omega, g, gp)) for product in (rising, falling)]
        for i, point in enumerate(points):
            for product, array in products:
                value = product(*point)
                assert type(value) is float
                assert _same_float(value, array[i])
            value = env_pts_radicand(*point)
            assert type(value) is float
            assert _same_float(value, radicand[i])
            verdict = is_separable(*point)
            assert type(verdict) is bool and verdict == separable[i]
            for scalar, array in zip(bona_fide_conditions(*point), conditions, strict=True):
                assert type(scalar) is bool and scalar == array[i]

    @given(st.lists(_random_points | _physical_points, min_size=1, max_size=40),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           st.sampled_from([Protocol.DIRECT, Protocol.SWAP]))
    def test_large_mu_eps(self, points, tau, protocol):
        omega, g, gp = self._columns(points)
        with np.errstate(invalid="ignore"):  # negative radicands of forbidden points
            eps = large_mu_eps(tau, omega, g, gp, protocol)
        for i, point in enumerate(points):
            value = large_mu_eps(tau, *point, protocol)
            assert type(value) is float
            assert _same_float(value, eps[i])

    def test_special_values(self):
        # among these, (0, 1, -0) makes the two radicand factors -0.0 and +0.0
        for point in itertools.product([0.0, -0.0, 1.0, -1.0, math.nan], repeat=3):
            arrays = [np.array([x]) for x in point]
            for formula in (rising, falling, env_pts_radicand):
                assert _same_float(formula(*point), formula(*arrays)[0]), (formula, point)
            for protocol in (Protocol.DIRECT, Protocol.SWAP):
                with np.errstate(invalid="ignore"):
                    expected = large_mu_eps(0.5, *arrays, protocol)[0]
                assert _same_float(large_mu_eps(0.5, *point, protocol), expected), point

    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    def test_large_mu_eps_on_a_forbidden_point_is_nan_without_a_warning(self, protocol):
        # (omega - g)(omega + gp) = (2 - 3)(2 + 0) < 0: the scalar call gives
        # NaN itself; np.sqrt's "invalid value" RuntimeWarning, which the test
        # settings turn into an error, is left to the array call
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eps = large_mu_eps(0.5, 2.0, 3.0, 0.0, protocol)
        assert type(eps) is float and math.isnan(eps)
        assert caught == []
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert np.isnan(large_mu_eps(0.5, 2.0, np.array([3.0]), 0.0, protocol)).all()
