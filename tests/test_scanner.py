import numpy as np
import pytest

from entdist import (
    DISTILLABLE_EPS,
    Activation,
    DomainError,
    EnvKind,
    Protocol,
    ScanSpec,
    boundary_curves,
    classify_environment,
    direct_eps_asymptotic,
    eb_threshold,
    env_pts,
    eps_field,
    is_separable,
    scan,
    separable_activation_exists,
    swap_eps_asymptotic,
)
from entdist.environment import EnvironmentParams, bona_fide_check

STANDARD_TAUS = (0.3, 0.5, 0.75, 0.9)


class TestScanSpec:
    def test_default_window_is_physical_bounding_box(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.DIRECT, resolution=11)
        assert spec.omega_value == 7.0
        assert spec.g_range == (-7.0, 7.0)
        assert spec.gp_range == (-7.0, 7.0)

    def test_fixed_omega(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.SWAP, resolution=11, omega=2.0)
        assert spec.omega_value == 2.0
        assert spec.g_range == (-2.0, 2.0)

    def test_rejects_bad_resolution(self):
        with pytest.raises(DomainError):
            ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=1)

    def test_rejects_empty_range(self):
        with pytest.raises(DomainError):
            ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=5, g_range=(1.0, 1.0))

    def test_rejects_bad_tau_and_omega(self):
        with pytest.raises(DomainError):
            ScanSpec(tau=1.0, protocol=Protocol.DIRECT, resolution=5)
        with pytest.raises(DomainError):
            ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=5, omega=0.5)

    @pytest.mark.parametrize("window", [{"omega": 1e151}, {"g_range": (-1e200, 0.0)},
                                        {"gp_range": (0.0, 1e151)}, {"g_range": (-np.inf, 0.0)}])
    def test_rejects_magnitudes_whose_products_overflow(self, window):
        with pytest.raises(DomainError, match="magnitude"):
            ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=5, **window)

    def test_cell_centers(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.SWAP, resolution=7,
                        g_range=(-7.0, 7.0), gp_range=(-7.0, 7.0))
        np.testing.assert_array_equal(spec.g_centers(), [-6, -4, -2, 0, 2, 4, 6])


class TestScan:
    def test_shapes_and_summary_totals(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=41)
        grid = scan(spec)
        assert len(grid.cells) == 41 * 41
        assert sum(grid.summary.values()) == len(grid.cells)
        fracs = grid.summary_fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    def test_cell_invariants(self, protocol):
        grid = scan(ScanSpec(tau=0.75, protocol=protocol, resolution=61))
        for cell in grid.cells:
            if cell.activation is not Activation.NONE:
                assert cell.env_class.kind is not EnvKind.FORBIDDEN
            if cell.activation is Activation.DISTILLABLE:
                assert cell.eps_value < DISTILLABLE_EPS
            if cell.activation is Activation.ENTANGLING:
                assert DISTILLABLE_EPS <= cell.eps_value < 1.0
            if cell.env_class.kind is EnvKind.FORBIDDEN:
                assert cell.eps_value is None
                assert cell.env_class.env_pts is None

    def test_matches_scalar_evaluators_cellwise(self):
        self._assert_matches_scalar(Protocol.SWAP, swap_eps_asymptotic)

    @pytest.mark.parametrize("protocol, scalar_eps", [
        (Protocol.DIRECT, direct_eps_asymptotic),
        (Protocol.ENVIRONMENT_ONLY, lambda env: env_pts(env.omega, env.g, env.gp)),
    ], ids=["DIRECT", "ENVIRONMENT_ONLY"])
    def test_matches_scalar_evaluators_cellwise_other_protocols(self, protocol, scalar_eps):
        self._assert_matches_scalar(protocol, scalar_eps)

    @staticmethod
    def _assert_matches_scalar(protocol, scalar_eps):
        spec = ScanSpec(tau=0.75, protocol=protocol, resolution=31)
        grid = scan(spec)
        gs, gps = spec.g_centers(), spec.gp_centers()
        for i, g in enumerate(gs):
            for j, gp in enumerate(gps):
                cell = grid.cell(i, j)
                expected = classify_environment(spec.omega_value, float(g), float(gp))
                assert cell.env_class.kind is expected.kind
                if expected.kind is not EnvKind.FORBIDDEN:
                    assert cell.env_class.env_pts == expected.env_pts
                    env = EnvironmentParams(spec.tau, spec.omega_value, float(g), float(gp))
                    assert cell.eps_value == scalar_eps(env)

    def test_environment_only_reports_env_pts(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.ENVIRONMENT_ONLY, resolution=21,
                        omega=2.0)
        grid = scan(spec)
        for cell in grid.cells:
            assert cell.activation is Activation.NONE
            if cell.env_class.kind is not EnvKind.FORBIDDEN:
                assert cell.eps_value == cell.env_class.env_pts

    def test_known_distillable_separable_cell(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.SWAP, resolution=7,
                        g_range=(-7.0, 7.0), gp_range=(-7.0, 7.0))
        cell = scan(spec).cell(6, 0)  # center (6, -6)
        assert cell.env_class.kind is EnvKind.SEPARABLE
        assert cell.activation is Activation.DISTILLABLE
        assert cell.eps_value == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("resolution", [51, 101, 333])
    @pytest.mark.parametrize("tau", [0.3, 0.45, 0.5])
    def test_low_tau_swap_never_separable_activated(self, tau, resolution):
        # At tau = 0.5 the swap eps = 1 contour coincides with the separability
        # boundary, so a center landing on the shared curve can round to
        # (Separable, activated) by one ulp. Anything farther from eps = 1 than
        # rounding noise would be a genuine theorem violation.
        grid = scan(ScanSpec(tau=tau, protocol=Protocol.SWAP, resolution=resolution))
        for cell in grid.cells:
            if cell.env_class.kind is EnvKind.SEPARABLE and \
                    cell.activation is not Activation.NONE:
                assert tau == 0.5
                assert cell.eps_value == pytest.approx(1.0, abs=1e-12)

    def test_half_tau_swap_standard_window_is_clean(self):
        # the [-3, 3]^2 window at 201 cells: no separable-activated cell at all
        grid = scan(ScanSpec(tau=0.5, protocol=Protocol.SWAP, resolution=201,
                             g_range=(-3.0, 3.0), gp_range=(-3.0, 3.0)))
        assert grid.summary.get((EnvKind.SEPARABLE, Activation.ENTANGLING), 0) == 0
        assert grid.summary.get((EnvKind.SEPARABLE, Activation.DISTILLABLE), 0) == 0

    def test_high_tau_direct_separable_distillable_exists(self):
        grid = scan(ScanSpec(tau=0.9, protocol=Protocol.DIRECT, resolution=201))
        assert grid.summary.get((EnvKind.SEPARABLE, Activation.DISTILLABLE), 0) > 0

    def test_result_arrays_are_read_only(self):
        grid = scan(ScanSpec(tau=0.75, protocol=Protocol.DIRECT, resolution=11))
        for arr in (grid.kind, grid.activation, grid.env_pts, grid.eps):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    @pytest.mark.parametrize("tau", STANDARD_TAUS)
    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    def test_refinement_stability(self, tau, protocol):
        coarse = scan(ScanSpec(tau=tau, protocol=protocol, resolution=100))
        fine = scan(ScanSpec(tau=tau, protocol=protocol, resolution=200))
        f_coarse = coarse.summary_fractions()
        f_fine = fine.summary_fractions()
        for pair in set(f_coarse) | set(f_fine):
            assert abs(f_coarse.get(pair, 0.0) - f_fine.get(pair, 0.0)) < 0.02

    @pytest.mark.parametrize("tau", STANDARD_TAUS)
    def test_swap_activation_contained_in_direct(self, tau):
        swap_grid = scan(ScanSpec(tau=tau, protocol=Protocol.SWAP, resolution=101))
        direct_grid = scan(ScanSpec(tau=tau, protocol=Protocol.DIRECT, resolution=101))
        for sw, di in zip(swap_grid.cells, direct_grid.cells):
            if sw.activation is not Activation.NONE:
                assert di.activation is not Activation.NONE


class TestSeparableActivationExists:
    def test_high_tau_swap(self):
        found, witness = separable_activation_exists(0.75, Protocol.SWAP)
        assert found
        g, gp = witness
        omega = eb_threshold(0.75)
        assert is_separable(omega, g, gp) and bona_fide_check(omega, g, gp)
        env = EnvironmentParams(0.75, omega, g, gp)
        assert swap_eps_asymptotic(env) < 1.0

    def test_low_tau_swap(self):
        found, witness = separable_activation_exists(0.4, Protocol.SWAP)
        assert not found and witness is None

    def test_low_tau_direct_against_brute_force(self):
        # no stated expectation: the independent coarse grid is the oracle
        found, witness = separable_activation_exists(0.3, Protocol.DIRECT)
        omega = eb_threshold(0.3)
        gs = np.linspace(-omega, omega, 799)
        brute = False
        for g in gs:
            for gp in gs:
                if not bona_fide_check(omega, float(g), float(gp)):
                    continue
                if not is_separable(omega, float(g), float(gp)):
                    continue
                env = EnvironmentParams(0.3, omega, float(g), float(gp))
                if direct_eps_asymptotic(env) < 1.0:
                    brute = True
                    break
            if brute:
                break
        assert found == brute
        if found:
            g, gp = witness
            env = EnvironmentParams(0.3, omega, g, gp)
            assert is_separable(omega, g, gp)
            assert direct_eps_asymptotic(env) < 1.0

    def test_rejects_environment_only(self):
        with pytest.raises(DomainError):
            separable_activation_exists(0.5, Protocol.ENVIRONMENT_ONLY)


class TestBoundaryCurves:
    def test_memoryless_point_never_activated_at_eb(self):
        for tau in STANDARD_TAUS:
            env = EnvironmentParams(tau, eb_threshold(tau), 0.0, 0.0)
            assert direct_eps_asymptotic(env) == pytest.approx(1.0 + tau, rel=1e-12)
            assert swap_eps_asymptotic(env) >= 1.0

    def test_unit_contour_satisfies_analytic_relation(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.DIRECT, resolution=151)
        curves = [c for c in boundary_curves(spec) if c.level == 1.0]
        assert curves
        for curve in curves:
            g, gp = curve.points[:, 0], curve.points[:, 1]
            residual = np.abs(0.25 * np.sqrt((7.0 - g) * (7.0 + gp)) - 1.0)
            assert residual.max() < 1e-6

    def test_distillable_contour_level(self):
        spec = ScanSpec(tau=0.9, protocol=Protocol.DIRECT, resolution=151)
        curves = [c for c in boundary_curves(spec) if c.level == DISTILLABLE_EPS]
        assert curves
        for curve in curves:
            g, gp = curve.points[:, 0], curve.points[:, 1]
            residual = np.abs(0.1 * np.sqrt((19.0 - g) * (19.0 + gp)) - DISTILLABLE_EPS)
            assert residual.max() < 1e-6

    def test_low_tau_swap_contour_strictly_entangled(self):
        spec = ScanSpec(tau=0.4, protocol=Protocol.SWAP, resolution=201)
        curves = [c for c in boundary_curves(spec) if c.level == 1.0]
        assert curves
        omega = spec.omega_value
        for curve in curves:
            for g, gp in curve.points:
                assert classify_environment(omega, float(g), float(gp)).kind \
                    is EnvKind.ENTANGLED

    def test_half_tau_swap_contour_never_inside_separable_region(self):
        # at tau = 0.5 the eps = 1 contour runs along the separability boundary
        # itself, so assert it never enters the separable interior
        spec = ScanSpec(tau=0.5, protocol=Protocol.SWAP, resolution=201)
        curves = [c for c in boundary_curves(spec) if c.level == 1.0]
        assert curves
        omega = spec.omega_value
        for curve in curves:
            for g, gp in curve.points:
                margin = omega * omega - g * gp - 1.0 - omega * abs(g - gp)
                assert margin <= 1e-9

    def test_polylines_are_connected(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.DIRECT, resolution=101)
        cell = 2.0 * spec.omega_value / spec.resolution
        for curve in boundary_curves(spec):
            steps = np.linalg.norm(np.diff(curve.points, axis=0), axis=1)
            assert steps.max() <= 2.0 * cell
            if curve.closed:
                np.testing.assert_array_equal(curve.points[0], curve.points[-1])

    def test_empty_when_no_contour(self):
        # deep in the separable quiet zone every eps is far above both levels
        spec = ScanSpec(tau=0.5, protocol=Protocol.SWAP, resolution=51,
                        g_range=(-0.5, 0.5), gp_range=(-0.5, 0.5))
        assert boundary_curves(spec) == []


class TestEpsField:
    def test_nan_outside_physical_region(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=41)
        field = eps_field(spec)
        gs, gps = spec.g_centers(), spec.gp_centers()
        for i in (0, 40):
            for j in (0, 40):
                assert bool(bona_fide_check(spec.omega_value, gs[i], gps[j])) == \
                    bool(np.isfinite(field[i, j]))

    def test_matches_env_pts_for_environment_protocol(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.ENVIRONMENT_ONLY, resolution=21,
                        omega=2.0)
        field = eps_field(spec)
        gs, gps = spec.g_centers(), spec.gp_centers()
        for i in range(0, 21, 5):
            for j in range(0, 21, 5):
                if bona_fide_check(2.0, gs[i], gps[j]):
                    assert field[i, j] == env_pts(2.0, float(gs[i]), float(gps[j]))
