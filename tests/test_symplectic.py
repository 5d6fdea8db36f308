import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdist import (
    CovarianceMatrix,
    DomainError,
    EnvironmentParams,
    h,
    log_negativity,
    run_direct,
    run_swap,
)
from entdist.symplectic import _symplectic_spectrum

from conftest import CONSTRUCTION_PATHS, random_physical_cm, random_symplectic
from gaussian_reference import (
    SymplecticTransform,
    apply_symplectic,
    beam_splitter,
    homodyne_condition,
    make_env_cm,
    make_epr_cm,
    mode_block,
    partial_trace,
    partial_transpose,
    pts_min_eigenvalue,
    symplectic_eigenvalues,
    symplectic_eigenvalues_two_mode,
    symplectic_form,
    von_neumann_entropy,
)


class TestCovarianceMatrix:
    def test_rejects_odd_dimension(self):
        with pytest.raises(DomainError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        v = np.eye(4)
        v[0, 1] = 0.5
        with pytest.raises(DomainError):
            CovarianceMatrix(v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # accepted before; symplectic_eigenvalues then raised numpy's LinAlgError
        v = np.eye(4)
        v[0, 2] = v[2, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            CovarianceMatrix(v)

    def test_rejects_entries_whose_symmetrizing_sum_overflows(self):
        # accepted before, as a matrix whose diagonal read inf
        with pytest.raises(DomainError, match="finite and at most 8.988e"):
            CovarianceMatrix(1e308 * np.eye(2))
        assert CovarianceMatrix(8e307 * np.eye(2)).data[0, 0] == 8e307

    def test_data_is_frozen(self):
        cm = make_epr_cm(2.0)
        with pytest.raises(ValueError):
            cm.data[0, 0] = 99.0

    @pytest.mark.parametrize("path", sorted(CONSTRUCTION_PATHS))
    def test_every_construction_path_checks(self, path):
        build, valid = CONSTRUCTION_PATHS[path], CovarianceMatrix(np.eye(2))
        cm = build(CovarianceMatrix, valid, ([[2.0, 0.5], [0.5 + 1e-15, 2.0]],))
        assert type(cm) is CovarianceMatrix and not cm.data.flags.writeable
        assert cm.data[0, 1] == cm.data[1, 0]
        for data in [np.eye(3), [[1.0, 0.5], [0.0, 1.0]], [[math.nan, 0.0], [0.0, 1.0]]]:
            with pytest.raises(DomainError):
                build(CovarianceMatrix, valid, (data,))

    @pytest.mark.parametrize("name", ["data", "extra"])
    def test_attributes_cannot_be_set(self, name):
        cm = CovarianceMatrix(np.eye(2))
        with pytest.raises(AttributeError):
            setattr(cm, name, np.zeros((2, 2)))
        assert (cm.data == np.eye(2)).all()

    def test_equality_compares_values(self):
        # tuple's == asked the arrays for a truth value and raised ValueError
        cm = CovarianceMatrix(np.eye(2))
        assert cm == CovarianceMatrix(np.eye(2)) and not cm != CovarianceMatrix(np.eye(2))
        assert cm == (np.eye(2),) and (np.eye(2),) == cm and not (np.eye(2),) != cm
        assert cm == ([[1.0, 0.0], [0.0, 1.0]],)
        for other in [CovarianceMatrix(2.0 * np.eye(2)), CovarianceMatrix(np.eye(4)),
                      (np.eye(2), np.eye(2)), (), "data", None]:
            assert cm != other and not cm == other and other != cm
        with pytest.raises(TypeError):
            hash(cm)


class TestSymplecticForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_antisymmetric_and_squares_to_minus_identity(self, n):
        omega = symplectic_form(n)
        np.testing.assert_allclose(omega, -omega.T)
        np.testing.assert_allclose(omega @ omega, -np.eye(2 * n))

    def test_built_once_per_mode_count_and_read_only(self):
        assert symplectic_form(3) is symplectic_form(3)
        with pytest.raises(ValueError):
            symplectic_form(3)[0, 1] = 2.0


class TestMakeEprCm:
    def test_mu_one_is_two_vacua(self):
        np.testing.assert_array_equal(make_epr_cm(1.0).data, np.eye(4))

    def test_mu_two_blocks(self):
        cm = make_epr_cm(2.0)
        np.testing.assert_allclose(mode_block(cm, 0, 0), 2.0 * np.eye(2))
        np.testing.assert_allclose(mode_block(cm, 1, 1), 2.0 * np.eye(2))
        np.testing.assert_allclose(
            mode_block(cm, 0, 1), math.sqrt(3.0) * np.diag([1.0, -1.0])
        )

    def test_mu_five_is_pure(self):
        nus = symplectic_eigenvalues(make_epr_cm(5.0))
        np.testing.assert_allclose(nus, [1.0, 1.0], atol=1e-12)

    def test_rejects_mu_below_one(self):
        with pytest.raises(DomainError):
            make_epr_cm(0.999)


class TestMakeEnvCm:
    def test_uncorrelated_vacua(self):
        np.testing.assert_array_equal(make_env_cm(1.0, 0.0, 0.0).data, np.eye(4))

    def test_valid_point_structure_and_pts(self):
        cm = make_env_cm(2.0, 1.0, -1.0)
        np.testing.assert_allclose(mode_block(cm, 0, 1), np.diag([1.0, -1.0]))
        # sqrt(omega^2 - g*gp - omega*|g - gp|) = sqrt(4 + 1 - 4) = 1
        assert pts_min_eigenvalue(cm, (1,)) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unphysical_with_condition_detail(self):
        with pytest.raises(DomainError, match=r"omega\^2 \+ g\*gp"):
            make_env_cm(2.0, 1.9, 1.9)


class TestSymplecticEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vacuum(self, n):
        nus = symplectic_eigenvalues(CovarianceMatrix(np.eye(2 * n)))
        np.testing.assert_allclose(nus, np.ones(n))

    def test_single_mode_thermal(self):
        nus = symplectic_eigenvalues(CovarianceMatrix(3.0 * np.eye(2)))
        np.testing.assert_allclose(nus, [3.0])

    def test_epr_is_pure(self):
        nus = symplectic_eigenvalues(make_epr_cm(3.0))
        np.testing.assert_allclose(nus, [1.0, 1.0], atol=1e-12)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(DomainError):
            symplectic_eigenvalues(CovarianceMatrix(np.diag([1.0, -1.0])))

    def test_two_mode_closed_formula_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            cm = random_physical_cm(rng, 2)
            generic = symplectic_eigenvalues(cm)
            closed = symplectic_eigenvalues_two_mode(cm)
            np.testing.assert_allclose(generic, closed, rtol=1e-10, atol=1e-10)

    def test_invariance_under_symplectics(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            cm = random_physical_cm(rng, n)
            s = random_symplectic(rng, n)
            before = symplectic_eigenvalues(cm)
            after = symplectic_eigenvalues(apply_symplectic(cm, s, tuple(range(n))))
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("mu", [1.0, 1.5, 10.0, 300.0, 1e4])
    def test_epr_purity_and_unit_determinant(self, mu):
        cm = make_epr_cm(mu)
        assert von_neumann_entropy(cm) == pytest.approx(0.0, abs=1e-9)
        assert np.linalg.det(cm.data) == pytest.approx(1.0, rel=1e-6)


class TestPartialTransposeAndPtsMin:
    def test_thermal_product_pts_is_omega(self):
        cm = make_env_cm(2.0, 0.0, 0.0)
        assert pts_min_eigenvalue(cm, (1,)) == pytest.approx(2.0, abs=1e-12)

    def test_epr_pts_matches_closed_value(self):
        # two-mode formula with the transposed correlation block: mu - sqrt(mu^2 - 1)
        assert pts_min_eigenvalue(make_epr_cm(2.0), (1,)) == pytest.approx(
            2.0 - math.sqrt(3.0), abs=1e-12
        )

    def test_env_example(self):
        cm = make_env_cm(3.0, 2.0, -2.0)
        # sqrt(9 + 4 - 3*4) = 1
        assert pts_min_eigenvalue(cm, (1,)) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_empty_and_full_partition(self):
        cm = make_epr_cm(2.0)
        with pytest.raises(DomainError):
            pts_min_eigenvalue(cm, ())
        with pytest.raises(DomainError):
            pts_min_eigenvalue(cm, (0, 1))

    def test_partial_transpose_is_involutive(self):
        rng = np.random.default_rng(3)
        cm = random_physical_cm(rng, 3)
        back = partial_transpose(partial_transpose(cm, (1,)), (1,))
        np.testing.assert_allclose(back.data, cm.data)

    def test_pts_paths_agree(self):
        # eigen-decomposition route vs the closed two-mode formula applied to
        # the transposed matrix
        rng = np.random.default_rng(13)
        for _ in range(60):
            cm = random_physical_cm(rng, 2)
            generic = pts_min_eigenvalue(cm, (1,))
            closed = symplectic_eigenvalues_two_mode(partial_transpose(cm, (1,)))[-1]
            assert generic == pytest.approx(closed, abs=1e-10, rel=1e-10)


class TestEntropy:
    def test_vacuum(self):
        assert von_neumann_entropy(CovarianceMatrix(np.eye(2))) == 0.0

    def test_thermal_nu_three(self):
        assert von_neumann_entropy(CovarianceMatrix(3.0 * np.eye(2))) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-14
        )

    @pytest.mark.parametrize("r", [0.5, 3.0, 5.0])
    def test_entropy_of_a_pure_block_is_exactly_zero(self, r):
        # a rotated squeezed vacuum with entries up to e^(2r): the eigensolve's
        # nu is off 1 by a rounding of the order of the entries, which the
        # reference's scaled nu = 1 window takes as 1
        c, s = math.cos(0.3), math.sin(0.3)
        rotation = np.array([[c, -s], [s, c]])
        v = rotation @ np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)]) @ rotation.T
        assert von_neumann_entropy(CovarianceMatrix(v)) == 0.0

    @staticmethod
    def reference_h(nu):
        """up*ln(up) - dn*ln(dn) at 340 digits, which its cancellation leaves at
        about 340 - log10(nu)."""
        with mpmath.workdps(340):
            up, dn = (mpmath.mpf(nu) + 1) / 2, (mpmath.mpf(nu) - 1) / 2
            return up * mpmath.log(up) - dn * mpmath.log(dn)

    def test_h_at_one_is_zero(self):
        # exactly 0 on [1 - 1e-9, 1] only: just above 1 h is evaluated, not zeroed,
        # since h(1 + 1e-12) = 1.5e-11 can flip the sign of a coherent information
        assert h(1.0) == 0.0
        assert h(1.0 - 1e-10) == 0.0
        for nu in (math.nextafter(1.0, 2.0), 1.0 + 1e-15, 1.0 + 1e-13, 1.0 + 1e-12):
            expected = self.reference_h(nu)
            assert 0.0 < h(nu) and abs(h(nu) - expected) <= 4 * 2.0 ** -53 * expected, nu

    def test_h_monotone(self):
        nus = np.linspace(1.0, 50.0, 200)
        vals = [h(nu) for nu in nus]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_h_rejects_unphysical(self):
        with pytest.raises(DomainError):
            h(0.9)

    @pytest.mark.parametrize("offset, lo, hi", [(1.0, -15.0, 0.3), (0.0, 0.0, 300.0)])
    def test_h_is_the_reference(self, offset, lo, hi):
        # nu - 1 log-uniform in [1e-15, 2], a few ulps of 1 at its low end, then
        # nu log-uniform in [1, 1e300]
        rng = np.random.default_rng(17)
        for nu in (offset + 10.0 ** rng.uniform(lo, hi, 500)).tolist():
            expected = self.reference_h(nu)
            assert abs(h(nu) - expected) <= 4 * 2.0 ** -53 * expected, nu


class TestCoherentInformation:
    # the runners' report: h at its fixed windows over mode B's eigenvalue,
    # diagonalized from its block, less h over the closed-form spectrum

    def test_epr_reduction(self):
        # S(B) - S(AB) for a pure EPR, whose spectrum is (1, 1): entropy of the
        # thermal marginal, h(mu), summed as the runners sum it
        expected = 1.5 * math.log(1.5) - 0.5 * math.log(0.5)
        nu_b = _symplectic_spectrum(make_epr_cm(2.0).data[2:, 2:])
        got = h(nu_b) - sum(map(h, (1.0, 1.0)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9547712524422192, abs=1e-12)

    def test_product_of_vacua(self):
        # mu = 1 through a vacuum environment: both outputs are vacua
        env = EnvironmentParams(0.5, 1.0, 0.0, 0.0)
        for runner in (run_direct, run_swap):
            assert runner(1.0, env).report.coherent_info == 0.0

    # [[1, 2], [2, 1]] has a positive diagonal, but eigenvalues 3 and -1
    @pytest.mark.parametrize("block", [[[1.0, 0.0], [0.0, -1.0]], [[1.0, 2.0], [2.0, 1.0]]],
                             ids=["negative-diagonal", "positive-diagonal"])
    def test_spectrum_refuses_a_block_that_is_not_positive_definite(self, block):
        with pytest.raises(DomainError, match="^covariance matrix is not positive-definite$"):
            _symplectic_spectrum(np.array(block))


class TestLogNegativity:
    @given(st.floats(min_value=1e-6, max_value=100.0, allow_nan=False))
    def test_zero_exactly_when_pts_at_least_one(self, eps):
        value = log_negativity(eps)
        if eps >= 1.0:
            assert value == 0.0
        else:
            assert value == pytest.approx(-math.log(eps))
            assert value > 0.0

    def test_report_consistency(self):
        env = EnvironmentParams(0.75, 7.0, 6.0, -6.0)
        for runner in (run_direct, run_swap):
            report = runner(1e3, env).report
            assert report.pts_min < 1.0
            assert report.log_negativity == -math.log(report.pts_min)
            assert min(report.symplectic_spectrum) >= 1.0


class TestBeamSplitter:
    def test_tau_one_is_identity(self):
        np.testing.assert_allclose(beam_splitter(1.0).matrix, np.eye(4), atol=1e-15)

    def test_balanced(self):
        s = beam_splitter(0.5).matrix
        r = math.sqrt(0.5)
        np.testing.assert_allclose(np.abs(s[:2, :2]), r * np.eye(2))
        np.testing.assert_allclose(s[2:, :2], -r * np.eye(2))

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.0001])
    def test_rejects_out_of_range(self, tau):
        with pytest.raises(DomainError):
            beam_splitter(tau)

    def test_thermal_mixing_variance(self):
        # mu I (x) omega I through the splitter, ancilla traced: (tau mu + (1-tau) omega) I
        mu, omega, tau = 3.0, 2.0, 0.7
        joint = CovarianceMatrix(np.diag([mu, mu, omega, omega]))
        out = partial_trace(apply_symplectic(joint, beam_splitter(tau), (0, 1)), drop=(1,))
        np.testing.assert_allclose(out.data, (tau * mu + (1 - tau) * omega) * np.eye(2),
                                   rtol=1e-14)


class TestApplyAndPartialTrace:
    def test_identity_transform(self):
        cm = make_epr_cm(2.0)
        out = apply_symplectic(cm, SymplecticTransform(np.eye(4)), (0, 1))
        np.testing.assert_array_equal(out.data, cm.data)

    def test_trace_epr_gives_thermal(self):
        out = partial_trace(make_epr_cm(4.0), drop=(0,))
        np.testing.assert_allclose(out.data, 4.0 * np.eye(2))

    def test_mode_out_of_range(self):
        cm = make_epr_cm(2.0)
        with pytest.raises(DomainError):
            apply_symplectic(cm, beam_splitter(0.5), (0, 2))
        with pytest.raises(DomainError):
            partial_trace(cm, drop=(5,))

    def test_embedding_acts_on_selected_modes_only(self):
        rng = np.random.default_rng(5)
        cm = random_physical_cm(rng, 3)
        s = random_symplectic(rng, 2)
        out = apply_symplectic(cm, s, (0, 2))
        np.testing.assert_allclose(mode_block(out, 1, 1), mode_block(cm, 1, 1))


class TestHomodyneCondition:
    def test_product_state_unchanged(self):
        cm = CovarianceMatrix(np.diag([2.0, 2.0, 5.0, 5.0]))
        out = homodyne_condition(cm, mode=1, quadrature="q")
        np.testing.assert_array_equal(out.data, 2.0 * np.eye(2))

    def test_epr_schur_complement(self):
        out = homodyne_condition(make_epr_cm(2.0), mode=1, quadrature="q")
        np.testing.assert_allclose(out.data, np.diag([0.5, 2.0]), atol=1e-14)

    def test_measured_p_flips_squeezed_axis(self):
        out = homodyne_condition(make_epr_cm(2.0), mode=1, quadrature="p")
        np.testing.assert_allclose(out.data, np.diag([2.0, 0.5]), atol=1e-14)

    def test_rejects_zero_variance(self):
        cm = CovarianceMatrix(np.diag([1e-13, 1.0, 1.0, 1.0]))
        with pytest.raises(DomainError):
            homodyne_condition(cm, mode=0, quadrature="q")

    def test_rejects_bad_quadrature(self):
        with pytest.raises(DomainError):
            homodyne_condition(make_epr_cm(2.0), mode=0, quadrature="x")

    def test_disjoint_measurements_commute(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            cm = random_physical_cm(rng, 4)
            a = homodyne_condition(homodyne_condition(cm, 2, "q"), 2, "p")
            b = homodyne_condition(homodyne_condition(cm, 3, "p"), 2, "q")
            np.testing.assert_allclose(a.data, b.data, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_symplectic_transform_validates(seed):
    rng = np.random.default_rng(seed)
    s = random_symplectic(rng, 2)
    omega = symplectic_form(2)
    assert np.abs(s.matrix @ omega @ s.matrix.T - omega).max() < 1e-10


def test_symplectic_transform_rejects_non_symplectic():
    with pytest.raises(DomainError):
        SymplecticTransform(2.0 * np.eye(4))
