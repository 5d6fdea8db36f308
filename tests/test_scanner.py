import hashlib
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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
    eps_field,
    is_separable,
    scan,
    separable_activation_exists,
    swap_eps_asymptotic,
)
from entdist import scanner
from entdist.environment import (EnvironmentParams, bona_fide_check, bona_fide_conditions,
                                 env_pts_radicand)
from entdist.protocols import large_mu_eps, large_mu_eps_scale
from entdist.scanner import ScanGrid, _marching_squares_segments, _stitch_segments

from conftest import ACTIVATION_CODE, KIND_CODE

STANDARD_TAUS = (0.3, 0.5, 0.75, 0.9)
FORBIDDEN = KIND_CODE[EnvKind.FORBIDDEN]
SEPARABLE = KIND_CODE[EnvKind.SEPARABLE]
ENTANGLED = KIND_CODE[EnvKind.ENTANGLED]
NONE = ACTIVATION_CODE[Activation.NONE]
ENTANGLING = ACTIVATION_CODE[Activation.ENTANGLING]
DISTILLABLE = ACTIVATION_CODE[Activation.DISTILLABLE]
# env_pts peaks at omega at g = gp = 0, so levels just below omega give
# closed loops around the origin: 181 and 133 vertices
LOOP_SPEC = dict(tau=0.5, protocol=Protocol.ENVIRONMENT_ONLY, resolution=61, omega=5.0,
                 g_range=(-4.0, 4.0), gp_range=(-4.0, 4.0))
LOOP_LEVELS = (4.0, 4.5)


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

    @pytest.mark.parametrize("resolution", [2.5, 3.0, math.nan, math.inf])
    def test_rejects_non_integer_resolution(self, resolution):
        # 2.5 built a 3x3 grid spaced by (hi - lo)/2.5; nan failed later in numpy
        with pytest.raises(DomainError, match="resolution"):
            ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=resolution)

    def test_accepts_numpy_integer_resolution(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=np.int64(5))
        assert len(spec.g_centers()) == 5

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

    @pytest.mark.parametrize("field", ["g_range", "gp_range"])
    @pytest.mark.parametrize("window", [(1,), 5, ("a", "b"), (0, 1, 5), "12", ("1", "2"),
                                        (b"1", b"2"), b"12", (True, 2), (0, np.True_)])
    def test_rejects_a_window_that_is_not_two_numbers(self, field, window):
        with pytest.raises(DomainError, match=f"^{field} must be two numbers"):
            ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=5, **{field: window})

    def test_cell_centers(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.SWAP, resolution=7,
                        g_range=(-7.0, 7.0), gp_range=(-7.0, 7.0))
        np.testing.assert_array_equal(spec.g_centers(), [-6, -4, -2, 0, 2, 4, 6])

    def test_cell_centers_are_made_once_and_read_only(self):
        # the scan's bisection and every row evaluation index the same vectors
        spec = ScanSpec(tau=0.75, protocol=Protocol.SWAP, resolution=7, gp_range=(-1.0, 3.0))
        for centers in (spec.g_centers, spec.gp_centers):
            assert centers() is centers()
            with pytest.raises(ValueError):
                centers()[0] = 0.0
        np.testing.assert_array_equal(spec.gp_centers(), -1.0 + (np.arange(7) + 0.5) * 4.0 / 7)


class TestScan:
    def test_shapes_and_summary_totals(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=41)
        grid = scan(spec)
        for arr in (grid.kind, grid.activation, grid.env_pts, grid.eps):
            assert arr.shape == (41, 41)
        assert sum(grid.summary.values()) == 41 * 41
        fracs = grid.summary_fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    def test_cell_invariants(self, protocol):
        grid = scan(ScanSpec(tau=0.75, protocol=protocol, resolution=61))
        forbidden = grid.kind == FORBIDDEN
        assert (grid.activation[forbidden] == NONE).all()
        assert (grid.eps[grid.activation == DISTILLABLE] < DISTILLABLE_EPS).all()
        entangling = grid.eps[grid.activation == ENTANGLING]
        assert ((DISTILLABLE_EPS <= entangling) & (entangling < 1.0)).all()
        assert np.isnan(grid.eps[forbidden]).all()
        assert np.isnan(grid.env_pts[forbidden]).all()

    def test_matches_scalar_evaluators_cellwise(self):
        self._assert_matches_scalar(Protocol.SWAP, swap_eps_asymptotic)

    @pytest.mark.parametrize("protocol, scalar_eps", [
        (Protocol.DIRECT, direct_eps_asymptotic),
        (Protocol.ENVIRONMENT_ONLY,
         lambda env: classify_environment(env.omega, env.g, env.gp).env_pts),
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
                expected = classify_environment(spec.omega_value, float(g), float(gp))
                assert grid.kind[i, j] == KIND_CODE[expected.kind]
                if expected.kind is not EnvKind.FORBIDDEN:
                    assert grid.env_pts[i, j] == expected.env_pts
                    env = EnvironmentParams(spec.tau, spec.omega_value, float(g), float(gp))
                    assert grid.eps[i, j] == scalar_eps(env)

    def test_environment_only_reports_env_pts(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.ENVIRONMENT_ONLY, resolution=21,
                        omega=2.0)
        grid = scan(spec)
        assert (grid.activation == NONE).all()
        physical = grid.kind != FORBIDDEN
        np.testing.assert_array_equal(grid.eps[physical], grid.env_pts[physical])

    def test_known_distillable_separable_cell(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.SWAP, resolution=7,
                        g_range=(-7.0, 7.0), gp_range=(-7.0, 7.0))
        grid = scan(spec)  # cell (6, 0) has center (6, -6)
        assert grid.kind[6, 0] == SEPARABLE
        assert grid.activation[6, 0] == DISTILLABLE
        assert grid.eps[6, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("resolution", [51, 101, 333])
    @pytest.mark.parametrize("tau", [0.3, 0.45, 0.5])
    def test_low_tau_swap_never_separable_activated(self, tau, resolution):
        # At tau = 0.5 the swap eps = 1 contour coincides with the separability
        # boundary, so a center landing on the shared curve can round to
        # (Separable, activated) by one ulp. Anything farther from eps = 1 than
        # rounding noise would be a genuine theorem violation.
        grid = scan(ScanSpec(tau=tau, protocol=Protocol.SWAP, resolution=resolution))
        activated = grid.eps[(grid.kind == SEPARABLE) & (grid.activation != NONE)]
        if activated.size:
            assert tau == 0.5
            np.testing.assert_allclose(activated, 1.0, rtol=0.0, atol=1e-12)

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

    def test_grid_copies_the_run_arrays_it_is_given(self):
        # the grid keeps read-only copies, so the caller's arrays stay
        # writable and a later write to them changes neither counts nor kind
        spec = ScanSpec(tau=0.75, protocol=Protocol.DIRECT, resolution=11)
        scanned = scan(spec)
        bounds, codes = scanned.run_bounds.copy(), scanned.run_codes.copy()
        grid = ScanGrid(spec, bounds, codes)
        assert bounds.flags.writeable and codes.flags.writeable
        assert not (grid.run_bounds.flags.writeable or grid.run_codes.flags.writeable)
        bounds[0, 0] = 1
        codes[:] = 0
        assert grid.counts == scanned.counts
        np.testing.assert_array_equal(grid.kind, scanned.kind)
        assert sum(grid.counts) == 11 ** 2 and len(set(grid.kind.ravel().tolist())) == 3

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
        assert (direct_grid.activation[swap_grid.activation != NONE] != NONE).all()


def _whole_grid(spec):
    """kind, activation, env_pts and eps by one evaluation of the formula
    functions over the full (g, gp) mesh, with no tiling."""
    w = spec.omega_value
    g, gp = np.meshgrid(spec.g_centers(), spec.gp_centers(), indexing="ij")
    bona = np.logical_and.reduce(bona_fide_conditions(w, g, gp))
    with np.errstate(invalid="ignore"):
        env = np.where(bona, np.sqrt(env_pts_radicand(w, g, gp)), np.nan)
        if spec.protocol is Protocol.ENVIRONMENT_ONLY:
            eps = env
        else:
            eps = np.where(bona, large_mu_eps(spec.tau, w, g, gp, spec.protocol), np.nan)
    kind = np.where(bona, np.where(is_separable(w, g, gp), SEPARABLE, ENTANGLED), FORBIDDEN)
    activation = np.where(eps < DISTILLABLE_EPS, DISTILLABLE,
                          np.where(eps < 1.0, ENTANGLING, NONE))
    if spec.protocol is Protocol.ENVIRONMENT_ONLY:
        activation[:] = NONE
    return kind, activation, env, eps


class TestScanTiles:
    """The lazy eps and env_pts fields are filled one tile of g rows at a time,
    and kind and activation from the scan's runs; with the tile shrunk to a few
    cells, small grids split into many tiles, which must join with no seam."""

    # (resolution, tile cells): one tile, 12 rows as 4 tiles of 3, 12 rows as
    # 5 + 5 + 2, and a tile smaller than one row, which still takes a whole row
    @pytest.mark.parametrize("resolution, tile_cells", [(12, 144), (12, 36), (12, 60), (13, 5)],
                             ids=["one-tile", "even-tiles", "remainder-tile", "row-tiles"])
    @pytest.mark.parametrize("window", [
        {},
        dict(omega=3.0, g_range=(-2.9, 0.7), gp_range=(-0.4, 2.95)),
    ], ids=["default-window", "off-centre-window"])
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.name)
    def test_tiles_join_seamlessly(self, monkeypatch, protocol, window, resolution, tile_cells):
        monkeypatch.setattr(scanner, "_TILE_CELLS", tile_cells)
        spec = ScanSpec(tau=0.75, protocol=protocol, resolution=resolution, **window)
        grid = scan(spec)
        expected = _whole_grid(spec)
        for name, arr, want in zip(("kind", "activation", "env_pts", "eps"),
                                   (grid.kind, grid.activation, grid.env_pts, grid.eps),
                                   expected):
            np.testing.assert_array_equal(arr, want, err_msg=name)
        assert grid.kind.dtype == grid.activation.dtype == np.int8
        # the grid holds every kind code, so none goes unchecked
        assert set(np.unique(grid.kind)) == {FORBIDDEN, SEPARABLE, ENTANGLED}
        counts = np.bincount((expected[0] * 3 + expected[1]).ravel(), minlength=9)
        assert grid.counts == tuple(counts.tolist())


def _float_flip(holds, lo, hi):
    """Adjacent floats x < y in [lo, hi] with holds(x) != holds(y), where
    ``holds`` changes once between lo and hi."""
    first = holds(lo)
    while np.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        mid = mid if lo < mid < hi else np.nextafter(lo, hi)
        lo, hi = (mid, hi) if holds(mid) == first else (lo, mid)
    assert holds(lo) != holds(hi)
    return lo, hi


def _ulps_around(x, n):
    """The floats n ulps below and n ulps above x."""
    lo = hi = x
    for _ in range(n):
        lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
    return float(lo), float(hi)


class TestRuns:
    """scan keeps each g row as at most 7 runs of one pair code, whose ends it
    finds by bisection on predicates monotone in gp; the cells they cover must
    carry the codes of an elementwise evaluation of every cell."""

    @staticmethod
    def assert_matches_the_whole_grid(spec):
        grid = scan(spec)
        kind, activation, _, _ = _whole_grid(spec)
        np.testing.assert_array_equal(grid.kind, kind)
        np.testing.assert_array_equal(grid.activation, activation)
        assert grid.kind.dtype == grid.activation.dtype == np.int8
        pairs = (kind * 3 + activation).ravel()
        assert grid.counts == tuple(np.bincount(pairs, minlength=9).tolist())
        assert grid.run_codes.shape[1] <= 7
        return pairs

    @settings(max_examples=150, deadline=None)
    @given(protocol=st.sampled_from(list(Protocol)), resolution=st.integers(2, 399),
           tau=st.floats(0.01, 0.99), log_omega=st.one_of(st.none(), st.floats(0.0, 4.0)),
           g_window=st.one_of(st.none(), st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))),
           gp_window=st.one_of(st.none(), st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))))
    def test_matches_the_whole_grid(self, protocol, resolution, tau, log_omega, g_window,
                                    gp_window):
        # windows are fractions of omega, so they reach 1.5 omega beyond the
        # physical box on either side
        omega = None if log_omega is None else 10.0 ** log_omega
        w = eb_threshold(tau) if omega is None else omega
        ranges = {}
        for name, window in (("g_range", g_window), ("gp_range", gp_window)):
            if window is not None and window[0] != window[1]:
                ranges[name] = (min(window) * w, max(window) * w)
        self.assert_matches_the_whole_grid(ScanSpec(tau=tau, protocol=protocol,
                                                    resolution=resolution, omega=omega, **ranges))

    # (name, g as a fraction of omega, the predicate along gp at that g,
    # whether the pair code must change where it flips): the bona-fide and
    # separability factors, eps = 1 and eps = 1/e, each where the row is bona
    # fide on at least one side of the flip. At |gp| = omega no cell is bona
    # fide, save where a product's boundary lies within the window too.
    BOUNDARIES = {
        "gp>-omega": (0.0, lambda w, g, gp, eps: gp > -w, False),
        "gp<omega": (0.0, lambda w, g, gp, eps: gp < w, False),
        "(w+g)(w+gp)>=1": (0.0, lambda w, g, gp, eps: (w + g) * (w + gp) >= 1.0, True),
        "(w-g)(w-gp)>=1": (0.0, lambda w, g, gp, eps: (w - g) * (w - gp) >= 1.0, True),
        "(w-g)(w+gp)>=1": (0.5, lambda w, g, gp, eps: (w - g) * (w + gp) >= 1.0, True),
        "(w+g)(w-gp)>=1": (-0.5, lambda w, g, gp, eps: (w + g) * (w - gp) >= 1.0, True),
        "eps<1": (0.0, lambda w, g, gp, eps: eps(g, gp) < 1.0, True),
        "eps<1/e": (2.0 / 3.0, lambda w, g, gp, eps: eps(g, gp) < DISTILLABLE_EPS, True),
    }

    @pytest.mark.parametrize("omega", [3.0, 1e4, 1e8])
    @pytest.mark.parametrize("boundary, protocol", [
        (boundary, protocol) for boundary in sorted(BOUNDARIES) for protocol in Protocol
        if not (boundary.startswith("eps") and protocol is Protocol.ENVIRONMENT_ONLY)
    ], ids=str)
    def test_windows_straddling_a_boundary_by_a_few_ulps(self, boundary, protocol, omega):
        # at tau = 0.6 each boundary lies inside the physical box at these g
        fraction, predicate, code_changes = self.BOUNDARIES[boundary]
        tau, g = 0.6, fraction * omega
        eps = lambda g, gp: float(large_mu_eps(tau, omega, g, gp, protocol))  # noqa: E731
        # eps is NaN, so below both levels, off the physical box
        reach = omega if boundary.startswith("eps") else 1.5 * omega
        below, _ = _float_flip(lambda gp: predicate(omega, g, gp, eps), -reach, reach)
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=13, omega=omega,
                        g_range=_ulps_around(g, 4),
                        gp_range=_ulps_around(below, 6))
        pairs = self.assert_matches_the_whole_grid(spec)
        if code_changes:
            assert len(set(pairs.tolist())) > 1

    def test_grid_beyond_the_physical_memory_is_refused_up_front(self):
        # the runs are O(resolution), so no grid-sized allocation fails at 1e8
        # any more: the scan compares the grid's one-byte cell codes with the
        # physical memory first
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=10**8)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="100000000x100000000"):
                scan(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestLazyFields:
    """scan keeps the runs of class codes only; eps and env_pts are evaluated
    tile by tile on first access and cached, and eps_rows evaluates a slice of
    rows."""

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.name)
    def test_read_only_cached_and_equal_to_the_whole_grid(self, monkeypatch, protocol):
        monkeypatch.setattr(scanner, "_TILE_CELLS", 40)  # 3 rows a tile at 13^2
        spec = ScanSpec(tau=0.75, protocol=protocol, resolution=13)
        grid = scan(spec)
        _, _, env, eps = _whole_grid(spec)
        for name, want in (("eps", eps), ("env_pts", env)):
            field = getattr(grid, name)
            np.testing.assert_array_equal(field, want, err_msg=name)
            assert getattr(grid, name) is field
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0, 0] = 0.0
        # ENVIRONMENT_ONLY reports env_pts as eps: one array for both
        assert (grid.env_pts is grid.eps) == (protocol is Protocol.ENVIRONMENT_ONLY)

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(4, 9), slice(11, 13), slice(None)],
                             ids=["first", "middle", "last", "all"])
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.name)
    def test_eps_rows_are_rows_of_the_whole_grid(self, protocol, rows):
        spec = ScanSpec(tau=0.75, protocol=protocol, resolution=13)
        grid = scan(spec)
        np.testing.assert_array_equal(grid.eps_rows(rows), _whole_grid(spec)[3][rows])
        assert "eps" not in vars(grid)  # the rows do not evaluate the whole field


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


def reference_activation_search(tau, protocol, omega=None, max_resolution=1001):
    """The grid search that answered the activation question before the closed
    form: grids of 101 and then ``max_resolution`` cells a side over the
    bounding box of the physical region; the witness is the separable
    activated cell with the smallest eps found."""
    for res in (101, max_resolution):
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=res, omega=omega)
        grid = scan(spec)
        activated = (grid.kind == SEPARABLE) & (grid.activation != NONE)
        if activated.any():
            masked = np.where(activated, grid.eps, np.inf)
            i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
            return True, (float(spec.g_centers()[i]), float(spec.gp_centers()[j]))
    return False, None


def assert_activating_witness(tau, protocol, omega, witness):
    """The witness is bona fide, separable and activates, by the library's own
    predicates and by the expanded forms of the bona-fide and separability
    conditions, evaluated exactly in rational arithmetic."""
    g, gp = witness
    assert bona_fide_check(omega, g, gp) and is_separable(omega, g, gp)
    assert large_mu_eps(tau, omega, g, gp, protocol) < 1.0
    w, g, gp = Fraction(omega), Fraction(g), Fraction(gp)
    assert abs(g) < w and abs(gp) < w
    assert w * w + g * gp - 1 >= w * abs(g + gp)
    assert w * w - g * gp - 1 >= w * abs(g - gp)


class TestClosedFormActivation:
    """separable_activation_exists against the grid search it replaced, and on
    the cases the grid got wrong."""

    @pytest.mark.parametrize("omega", [None, 2.0, 10.0, 100.0], ids=["eb", "2", "10", "100"])
    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    def test_agrees_with_grid_search(self, protocol, omega):
        # The separable activated region holds the square 1 <= omega - g, omega + gp
        # < min(omega, 1/scale), so where that side is wider than a cell of the
        # finer grid, a cell center lies inside it and the grid must find it.
        # Thinner slivers the grid may miss; the regression tests below hold those.
        for tau in np.linspace(0.05, 0.95, 13):
            tau = float(tau)
            found, witness = separable_activation_exists(tau, protocol, omega=omega)
            grid_found, _ = reference_activation_search(tau, protocol, omega=omega)
            w = eb_threshold(tau) if omega is None else omega
            assert found or not grid_found, tau
            side = min(w, 1.0 / large_mu_eps_scale(tau, protocol)) - 1.0
            if side > 2.0 * w / 1001:
                assert found == grid_found, tau
            if found:
                assert_activating_witness(tau, protocol, w, witness)

    @pytest.mark.parametrize("tau, protocol, omega", [
        (0.2, Protocol.DIRECT, 1000.0),
        (0.5 + 1e-9, Protocol.SWAP, None),
        (1e-6, Protocol.DIRECT, None),
        (0.75, Protocol.SWAP, 1e4),
    ])
    def test_thin_regions_the_grid_missed(self, tau, protocol, omega):
        found, witness = separable_activation_exists(tau, protocol, omega=omega)
        assert found
        assert_activating_witness(tau, protocol, eb_threshold(tau) if omega is None else omega,
                                  witness)

    def test_rejects_direct_tau_where_one_minus_tau_rounds_to_one(self):
        # 1 - 1e-17 is 1.0 in float64, which would read as "no activation"
        with pytest.raises(DomainError, match="tau=1e-17"):
            separable_activation_exists(1e-17, Protocol.DIRECT)

    def test_smallest_direct_taus_still_activate(self):
        for tau in (2.0 ** -52, 2.0 ** -53):
            found, witness = separable_activation_exists(tau, Protocol.DIRECT)
            assert found
            assert_activating_witness(tau, Protocol.DIRECT, eb_threshold(tau), witness)

    def test_rejects_omega_without_float64_witness(self):
        # omega - g must lie in [1, 2); at omega = 1e150 no float64 g gives that
        with pytest.raises(DomainError, match="omega"):
            separable_activation_exists(0.5, Protocol.DIRECT, omega=1e150)

    @given(tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           log_omega=st.floats(0.0, 6.0),
           protocol=st.sampled_from([Protocol.DIRECT, Protocol.SWAP]))
    def test_verdict_is_the_theorem(self, tau, log_omega, protocol):
        omega = 10.0 ** log_omega
        scale = large_mu_eps_scale(tau, protocol)
        if protocol is Protocol.DIRECT and scale == 1.0:
            # every tau activates the direct channel, but where 1 - tau rounds
            # to 1 float64 cannot show it, and the verdict is refused
            with pytest.raises(DomainError, match="tau"):
                separable_activation_exists(tau, protocol, omega=omega)
            return
        found, witness = separable_activation_exists(tau, protocol, omega=omega)
        assert found == (scale < 1.0)
        if found:
            assert_activating_witness(tau, protocol, omega, witness)
        else:
            assert witness is None


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

    @staticmethod
    def _assert_connected(curves, cell):
        for curve in curves:
            steps = np.linalg.norm(np.diff(curve.points, axis=0), axis=1)
            assert steps.max() <= 2.0 * cell
            if curve.closed:
                np.testing.assert_array_equal(curve.points[0], curve.points[-1])

    def test_polylines_are_connected(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.DIRECT, resolution=101)
        cell = 2.0 * spec.omega_value / spec.resolution
        self._assert_connected(boundary_curves(spec), cell)

    def test_closed_loops_are_connected(self):
        spec = ScanSpec(**LOOP_SPEC)
        cell = max(hi - lo for lo, hi in (spec.g_range, spec.gp_range)) / spec.resolution
        curves = boundary_curves(spec, LOOP_LEVELS)
        assert curves and all(c.closed for c in curves)
        self._assert_connected(curves, cell)

    def test_empty_when_no_contour(self):
        # deep in the separable quiet zone every eps is far above both levels
        spec = ScanSpec(tau=0.5, protocol=Protocol.SWAP, resolution=51,
                        g_range=(-0.5, 0.5), gp_range=(-0.5, 0.5))
        assert boundary_curves(spec) == []


SOUTH, EAST, NORTH, WEST = ("h", 0, 0), ("v", 1, 0), ("h", 0, 1), ("v", 0, 0)


class TestStitchSegments:
    """Chains built from hand-made segment lists, most with integer edge ids."""

    @staticmethod
    def _assert_each_segment_used_once(segments, chains):
        links = [frozenset(pair) for chain, _ in chains for pair in zip(chain, chain[1:])]
        assert sorted(links, key=sorted) == sorted(map(frozenset, segments), key=sorted)

    def test_path_given_out_of_order_starts_at_its_smaller_end(self):
        segments = [(7, 5), (9, 2), (5, 9)]
        chains = _stitch_segments(segments)
        assert chains == [([2, 9, 5, 7], False)]
        self._assert_each_segment_used_once(segments, chains)

    def test_loop_repeats_its_smallest_edge(self):
        # the walk leaves the start toward its first-listed neighbor
        segments = [(3, 2), (1, 3), (2, 4), (4, 1)]
        chains = _stitch_segments(segments)
        assert chains == [([1, 3, 2, 4, 1], True)]
        self._assert_each_segment_used_once(segments, chains)

    def test_paths_come_before_loops(self):
        segments = [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12)]
        chains = _stitch_segments(segments)
        assert chains == [([10, 11, 12], False), ([0, 1, 2, 0], True)]
        self._assert_each_segment_used_once(segments, chains)

    def test_two_paths_in_order_of_their_smaller_ends(self):
        segments = [(8, 6), (3, 4), (6, 7), (4, 9)]
        chains = _stitch_segments(segments)
        assert chains == [([3, 4, 9], False), ([7, 6, 8], False)]
        self._assert_each_segment_used_once(segments, chains)

    def test_grid_edge_ids(self):
        # four segments around one inside node: a closed loop over all four of its edges
        segments = [(SOUTH, EAST), (EAST, NORTH), (NORTH, WEST), (WEST, SOUTH)]
        assert _stitch_segments(segments) == [([SOUTH, EAST, NORTH, WEST, SOUTH], True)]


# field[i_g, j_gp] of one square at level 1: code 5 has its below-level
# corners on the main diagonal, code 10 on the anti-diagonal; a center below
# the level joins those corners, and the segments cut off the other two
@pytest.mark.parametrize("field, segments", [
    ([[0.0, 1.5], [1.5, 0.0]], [(SOUTH, EAST), (NORTH, WEST)]),  # code 5, center inside
    ([[0.9, 3.0], [3.0, 0.9]], [(SOUTH, WEST), (NORTH, EAST)]),  # code 5, center outside
    ([[1.5, 0.0], [0.0, 1.5]], [(SOUTH, WEST), (NORTH, EAST)]),  # code 10, center inside
    ([[3.0, 0.9], [0.9, 3.0]], [(SOUTH, EAST), (NORTH, WEST)]),  # code 10, center outside
])
def test_saddle_square_segments(field, segments):
    assert _marching_squares_segments(np.array(field), 1.0) == segments


def reference_boundary_curves(spec, levels):
    """Contours as extracted before the exact edge solve: a Python loop over
    every square of the grid, and each edge crossing polished by ``brentq``
    against the scalar eps."""
    xs, ys = spec.g_centers(), spec.gp_centers()
    w = spec.omega_value
    field = eps_field(spec)

    def scalar_eps(g, gp):
        if spec.protocol is Protocol.ENVIRONMENT_ONLY:
            return math.sqrt(env_pts_radicand(w, g, gp))
        return float(large_mu_eps(spec.tau, w, g, gp, spec.protocol))

    def segments(level):
        out = []
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                f00, f10 = field[i, j], field[i + 1, j]
                f01, f11 = field[i, j + 1], field[i + 1, j + 1]
                if np.isnan([f00, f10, f01, f11]).any():
                    continue
                b00, b10, b11, b01 = f00 < level, f10 < level, f11 < level, f01 < level
                code = b00 + 2 * b10 + 4 * b11 + 8 * b01
                if code in (0, 15):
                    continue
                south, north = ("h", i, j), ("h", i, j + 1)
                west, east = ("v", i, j), ("v", i + 1, j)
                if code in (5, 10):
                    center_inside = (f00 + f10 + f01 + f11) / 4.0 < level
                    if (code == 5) == center_inside:
                        out.extend([(south, east), (north, west)])
                    else:
                        out.extend([(south, west), (north, east)])
                    continue
                crossing = [edge for edge, crossed in ((south, b00 != b10), (east, b10 != b11),
                                                       (north, b01 != b11), (west, b00 != b01))
                            if crossed]
                out.append((crossing[0], crossing[1]))
        return out

    def polish(edge, level):
        kind, i, j = edge
        di, dj = (1, 0) if kind == "h" else (0, 1)
        (x0, y0), (x1, y1) = (xs[i], ys[j]), (xs[i + di], ys[j + dj])
        f0, f1 = field[i, j], field[i + di, j + dj]
        if f0 == level:
            t = 0.0
        elif f1 == level:
            t = 1.0
        else:
            t = brentq(lambda s: scalar_eps(x0 + s * (x1 - x0), y0 + s * (y1 - y0)) - level,
                       0.0, 1.0)
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    return [(level, np.array([polish(edge, level) for edge in chain]), closed)
            for level in levels for chain, closed in _stitch_segments(segments(level))]


class TestExactContours:
    """boundary_curves against the root-finder reference: same contours in the
    same order, vertices within 1e-12 omega."""

    @staticmethod
    def _assert_matches_reference(spec, levels):
        curves = boundary_curves(spec, levels)
        reference = reference_boundary_curves(spec, levels)
        assert [(c.level, len(c.points), c.closed) for c in curves] == \
            [(level, len(points), closed) for level, points, closed in reference]
        for curve, (_, points, _) in zip(curves, reference):
            np.testing.assert_allclose(curve.points, points, rtol=0,
                                       atol=1e-12 * spec.omega_value)
        return curves

    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("resolution", [2, 3, 61])
    def test_distribution_protocols(self, protocol, tau, resolution):
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=resolution)
        self._assert_matches_reference(spec, (1.0, DISTILLABLE_EPS))

    @pytest.mark.parametrize("tau", [0.3, 0.75])
    @pytest.mark.parametrize("resolution", [2, 3, 61])
    def test_environment_only(self, tau, resolution):
        spec = ScanSpec(tau=tau, protocol=Protocol.ENVIRONMENT_ONLY, resolution=resolution)
        curves = self._assert_matches_reference(spec, (1.0, 1.3))
        if resolution == 61:
            # the field rises toward the diagonal g = gp and falls beyond it, so
            # vertices on both sides use both branches of the edge solve
            g, gp = np.concatenate([c.points for c in curves]).T
            assert (g < gp).any() and (g > gp).any()

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_full_resolution(self, protocol):
        spec = ScanSpec(tau=0.8, protocol=protocol, resolution=201)
        levels = (1.0, 1.3) if protocol is Protocol.ENVIRONMENT_ONLY else (1.0, DISTILLABLE_EPS)
        assert self._assert_matches_reference(spec, levels)

    def test_off_threshold_window(self):
        spec = ScanSpec(tau=0.7, protocol=Protocol.ENVIRONMENT_ONLY, resolution=61, omega=3.0,
                        g_range=(-2.5, 1.0), gp_range=(-1.0, 2.9))
        assert self._assert_matches_reference(spec, (0.5, 1.0, 1.3))

    def test_closed_loops(self):
        curves = self._assert_matches_reference(ScanSpec(**LOOP_SPEC), LOOP_LEVELS)
        assert [(c.closed, len(c.points)) for c in curves] == [(True, 181), (True, 133)]

    # SHA-256 over each contour's (level, closed) and vertex bytes, in order:
    # pins chain order, closed flags and every vertex bit, independently of
    # the stitching code that the reference above shares
    GOLDEN = {
        "direct": (dict(tau=0.75, protocol=Protocol.DIRECT, resolution=201),
                   (1.0, DISTILLABLE_EPS),
                   "2f9acb47e1c27a9075a6ee32ff9eb0b9d08aaaea1c50b095a19bd4aa3f88fe9c"),
        "swap": (dict(tau=0.9, protocol=Protocol.SWAP, resolution=61),
                 (1.0, DISTILLABLE_EPS),
                 "336a01212c2327dbbdf20df72738846d51503e3c291098de9e4e211a16fe23f0"),
        "environment": (dict(tau=0.7, protocol=Protocol.ENVIRONMENT_ONLY, resolution=61,
                             omega=3.0, g_range=(-2.5, 1.0), gp_range=(-1.0, 2.9)),
                        (0.5, 1.0, 1.3),
                        "88433b1b98d69a28f2d2951c3006d588240d358b203f2b6cf1d8d27b2900c8f7"),
        "environment-loops": (LOOP_SPEC, LOOP_LEVELS,
                              "9e08e78ab2d7fa74395d47bd8d8d1b054bc2be119612a8d1c73104a43f0188e1"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_digest(self, name):
        spec_args, levels, expected = self.GOLDEN[name]
        digest = hashlib.sha256()
        for curve in boundary_curves(ScanSpec(**spec_args), levels):
            digest.update(struct.pack("<d?", curve.level, curve.closed))
            digest.update(curve.points.tobytes())
        assert digest.hexdigest() == expected


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
                    assert field[i, j] == \
                        classify_environment(2.0, float(gs[i]), float(gps[j])).env_pts
