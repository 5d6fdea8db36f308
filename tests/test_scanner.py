import hashlib
import math
import struct
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    @pytest.mark.parametrize("resolution", [np.int8(100), np.uint8(200), np.int16(300),
                                            np.int32(46341), np.int64(1001)], ids=repr)
    def test_keeps_a_numpy_integer_resolution_as_an_int(self, resolution):
        # kept as given, resolution ** 2 wrapped in its dtype: the fractions of
        # np.int8(100) summed to 625, and the memory check warned of overflow
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=resolution)
        assert type(spec.resolution) is int and spec.resolution == int(resolution)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fractions = scan(spec).summary_fractions()
        assert math.fsum(fractions.values()) == pytest.approx(1.0, rel=1e-12)

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
        np.testing.assert_array_equal(spec.gp_centers(), 1.0 + (np.arange(7) - 3.0) * (4.0 / 7))


class TestScan:
    def test_shapes_and_summary_totals(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=41)
        grid = scan(spec)
        for arr in (grid.kind, grid.activation, eps_field(spec)):
            assert arr.shape == (41, 41)
        assert sum(grid.summary.values()) == 41 * 41
        fracs = grid.summary_fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    def test_cell_invariants(self, protocol):
        spec = ScanSpec(tau=0.75, protocol=protocol, resolution=61)
        grid, eps = scan(spec), eps_field(spec)
        forbidden = grid.kind == FORBIDDEN
        assert (grid.activation[forbidden] == NONE).all()
        assert (eps[grid.activation == DISTILLABLE] < DISTILLABLE_EPS).all()
        entangling = eps[grid.activation == ENTANGLING]
        assert ((DISTILLABLE_EPS <= entangling) & (entangling < 1.0)).all()
        assert np.isnan(eps[forbidden]).all()

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
        grid, eps = scan(spec), eps_field(spec)
        gs, gps = spec.g_centers(), spec.gp_centers()
        for i, g in enumerate(gs):
            for j, gp in enumerate(gps):
                expected = classify_environment(spec.omega_value, float(g), float(gp))
                assert grid.kind[i, j] == KIND_CODE[expected.kind]
                if expected.kind is not EnvKind.FORBIDDEN:
                    env = EnvironmentParams(spec.tau, spec.omega_value, float(g), float(gp))
                    assert eps[i, j] == scalar_eps(env)

    def test_environment_only_reports_env_pts(self):
        spec = ScanSpec(tau=0.5, protocol=Protocol.ENVIRONMENT_ONLY, resolution=21,
                        omega=2.0)
        grid = scan(spec)
        assert (grid.activation == NONE).all()
        # the environment's PTS eigenvalue, NaN exactly on the Forbidden cells
        np.testing.assert_array_equal(eps_field(spec), _whole_grid(spec)[2])

    def test_known_distillable_separable_cell(self):
        spec = ScanSpec(tau=0.75, protocol=Protocol.SWAP, resolution=7,
                        g_range=(-7.0, 7.0), gp_range=(-7.0, 7.0))
        grid = scan(spec)  # cell (6, 0) has center (6, -6)
        assert grid.kind[6, 0] == SEPARABLE
        assert grid.activation[6, 0] == DISTILLABLE
        assert eps_field(spec)[6, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("resolution", [51, 101, 333])
    @pytest.mark.parametrize("tau", [0.3, 0.45, 0.5])
    def test_low_tau_swap_never_separable_activated(self, tau, resolution):
        # At tau = 0.5 the swap eps = 1 contour coincides with the separability
        # boundary, so a center landing on the shared curve can round to
        # (Separable, activated) by one ulp. Anything farther from eps = 1 than
        # rounding noise would be a genuine theorem violation.
        spec = ScanSpec(tau=tau, protocol=Protocol.SWAP, resolution=resolution)
        grid = scan(spec)
        activated = eps_field(spec)[(grid.kind == SEPARABLE) & (grid.activation != NONE)]
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
        for arr in (grid.kind, grid.activation):
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
    """eps_field is evaluated one tile of g rows at a time, and kind and
    activation are spread from the scan's runs; with the tile shrunk to a few
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
        for name, arr, want in zip(("kind", "activation", "eps"),
                                   (grid.kind, grid.activation, eps_field(spec)),
                                   (expected[0], expected[1], expected[3])):
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


def _window(fractions, w):
    """A window given as fractions of omega, or None for the default box."""
    if fractions is None or fractions[0] == fractions[1]:
        return None
    return (min(fractions) * w, max(fractions) * w)


# windows are fractions of omega, so they reach 1.5 omega beyond the physical
# box on either side
_windows = st.one_of(st.none(), st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))


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


@st.composite
def _row_slices(draw):
    """A spec of any protocol, tau and omega up to 1e150 whose window, default,
    off-centre or at a corner, may end on, or a few ulps off, |g| or |gp| = omega;
    and a slice of its g rows."""
    tau = draw(st.floats(1e-150, 0.999))
    omega = draw(st.one_of(st.none(), st.floats(0.0, 150.0).map(lambda e: 10.0 ** e)))
    w = eb_threshold(tau) if omega is None else omega
    edges = [float(np.nextafter(x, to)) for x in (w, -w) for to in (-math.inf, x, math.inf)]
    bound = st.one_of(st.sampled_from(edges), st.floats(-1.5, 1.5).map(lambda f: f * w))
    ranges = {}
    for name in ("g_range", "gp_range"):
        lo, hi = sorted(min(max(x, -1e150), 1e150) for x in draw(st.tuples(bound, bound)))
        if lo < hi:  # else the default box
            ranges[name] = (lo, hi)
    resolution = draw(st.integers(2, 60))
    start = draw(st.integers(0, resolution - 1))
    rows = slice(start, draw(st.integers(start + 1, resolution)))
    protocol = draw(st.sampled_from(list(Protocol)))
    return ScanSpec(tau=tau, protocol=protocol, resolution=resolution, omega=omega,
                    **ranges), rows


class TestLazyFields:
    """scan keeps the runs of class codes only; eps_rows evaluates eps on a
    slice of rows, from the bona-fide mask of the runs."""

    @settings(max_examples=300, deadline=None)
    @given(case=_row_slices())
    def test_eps_rows_are_nan_exactly_on_forbidden_cells(self, case):
        # the renderer writes a cell's eps text from eps_rows alone, empty for
        # NaN: on a bona-fide cell |g|, |gp| < omega, so both factors under
        # eps's square root are positive
        spec, rows = case
        grid = scan(spec)
        forbidden = np.repeat(grid.run_codes[rows] < 3, np.diff(grid.run_bounds[rows]).ravel())
        eps = grid.eps_rows(rows)
        np.testing.assert_array_equal(np.isnan(eps), forbidden.reshape(-1, spec.resolution))
        # the two evaluators of the field, the whole grid's mask from the
        # bona-fide conditions and the rows' from the runs, agree bit for bit
        np.testing.assert_array_equal(eps_field(spec)[rows], eps)

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(4, 9), slice(11, 13), slice(None)],
                             ids=["first", "middle", "last", "all"])
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.name)
    def test_eps_rows_are_rows_of_the_whole_grid(self, protocol, rows):
        spec = ScanSpec(tau=0.75, protocol=protocol, resolution=13)
        grid = scan(spec)
        np.testing.assert_array_equal(grid.eps_rows(rows), _whole_grid(spec)[3][rows])


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
            masked = np.where(activated, eps_field(spec), np.inf)
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

    @given(tau=st.floats(0.0, 1e-150, exclude_max=True),
           protocol=st.sampled_from([Protocol.DIRECT, Protocol.SWAP]))
    def test_refuses_tau_below_the_floor(self, tau, protocol):
        # where the theorem's draws end: below 1e-150 tau is refused, not answered
        with pytest.raises(DomainError, match="transmissivity"):
            separable_activation_exists(tau, protocol)

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

    @given(tau=st.floats(1e-150, 1.0, exclude_max=True),
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


# the edge ids of the one square of a 2x2 field: with n = 2 columns and size = 4
# cells, (i, j)-(i+1, j) is i*n + j and (i, j)-(i, j+1) is size + i*n + j
SOUTH, EAST, NORTH, WEST = 0, 6, 1, 4


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
    # on the grid's border: square (0, 1) of a 3 x 4 field, the one with four
    # known corners, code 5; its edges are south (0, 1)-(1, 1) = 1, north 2,
    # west (0, 1)-(0, 2) = 12 + 1 and east (1, 1)-(1, 2) = 12 + 4 + 1
    ([[math.nan, 0.0, 1.5, math.nan], [math.nan, 1.5, 0.0, math.nan], [math.nan] * 4],
     [(1, 17), (2, 13)]),  # center inside
    ([[math.nan, 0.0, 3.0, math.nan], [math.nan, 3.0, 0.0, math.nan], [math.nan] * 4],
     [(1, 13), (2, 17)]),  # center outside
])
def test_saddle_square_segments(field, segments):
    assert list(_marching_squares_segments(np.array(field), (1.0,))) == [segments]


# each edge of the square with its two corners, "ab" standing for field[a, b]
EDGE_CORNERS = {SOUTH: ("00", "10"), EAST: ("10", "11"), NORTH: ("01", "11"), WEST: ("00", "01")}


@pytest.mark.parametrize("code, center_inside", [
    *((code, None) for code in range(1, 15) if code not in (5, 10)),
    (5, True), (5, False), (10, True), (10, False),
])
def test_square_segments_follow_the_corner_rule(code, center_inside):
    # code bits 1, 2, 4, 8 put corners 00, 10, 11, 01 below level 1; values
    # 0 and 1.5 put the center of a saddle inside, 0.9 and 3 outside
    inside = {corner: bool(code & bit) for corner, bit in (("00", 1), ("10", 2), ("11", 4),
                                                            ("01", 8))}
    low, high = (0.9, 3.0) if center_inside is False else (0.0, 1.5)
    field = np.array([[low if inside[a + b] else high for b in "01"] for a in "01"])
    # an edge is crossed where its corners lie on two sides; a square with two
    # crossed edges joins them, in south, east, north, west order
    crossed = [edge for edge, (p, q) in EDGE_CORNERS.items() if inside[p] != inside[q]]
    if center_inside is None:
        expected = [tuple(crossed)]
    else:
        # a saddle's segments cut off the two corners on the far side from its
        # center, each joining a south or north edge to an east or west one
        expected = [(sn, ew) for sn in (SOUTH, NORTH) for ew in (EAST, WEST)
                    if any(inside[c] != center_inside
                           for c in set(EDGE_CORNERS[sn]) & set(EDGE_CORNERS[ew]))]
    assert len(crossed) == (2 if center_inside is None else 4)
    assert list(_marching_squares_segments(field, (1.0,))) == [expected]


def _edge_nodes(edge, shape):
    """The two nodes of an int edge id of a field of ``shape``."""
    v, cell = divmod(edge, shape[0] * shape[1])
    i, j = divmod(cell, shape[1])
    return (i, j), (i + 1 - v, j + v)


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (3, 4), (6, 6)])
def test_edge_ids_sort_as_the_edge_tuples(shape):
    # a field with one node below the level is crossed on exactly the edges at
    # that node; the contour digests rest on the ids sorting as the tuples
    # ("h", i, j) for (i, j)-(i+1, j) and ("v", i, j) for (i, j)-(i, j+1) did
    ids = set()
    for node in np.ndindex(shape):
        field = np.full(shape, 2.0)
        field[node] = 0.0
        [segments] = _marching_squares_segments(field, (1.0,))
        at_node = {edge for segment in segments for edge in segment}
        assert all(node in _edge_nodes(edge, shape) for edge in at_node)
        assert len(at_node) == sum(0 <= node[0] + di < shape[0] and 0 <= node[1] + dj < shape[1]
                                   for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
        ids |= at_node
    m, n = shape
    tuples = [("hv"[b[1] - a[1]], *a)
              for a, b in (_edge_nodes(edge, shape) for edge in sorted(ids))]
    assert tuples == sorted([*(("h", i, j) for i in range(m - 1) for j in range(n)),
                             *(("v", i, j) for i in range(m) for j in range(n - 1))])


@pytest.mark.parametrize("field", [
    [[0.0, 2.0, 0.0, 2.0]],  # 1 x n: no square
    [[0.0], [2.0], [0.0]],  # n x 1
    [[0.0]],
    [[math.nan] * 3] * 3,
    [[2.0, 2.0, 3.0], [2.0, 1.0, 2.0]],  # no corner below the level
    [[0.0, 0.5], [0.9, 0.0]],  # every corner below it
    [[0.0, 2.0], [math.nan, 2.0]],  # crossed, but touching NaN
])
def test_fields_without_a_crossed_square_have_no_segments(field):
    assert list(_marching_squares_segments(np.array(field), (1.0,))) == [[]]


def test_the_last_square_alone():
    # only node (3, 4) lies below, so only square (2, 3) is crossed, on its
    # east edge (3, 3)-(3, 4), id 20 + 3*5 + 3, and north edge (2, 4)-(3, 4)
    field = np.full((4, 5), 2.0)
    field[3, 4] = 0.0
    assert list(_marching_squares_segments(field, (1.0,))) == [[(38, 14)]]


def reference_segments(field, level):
    """Marching-squares segments by a Python loop over every square, in
    row-major order, each edge a tuple: ("h", i, j) joins nodes (i, j)-(i+1, j)
    and ("v", i, j) joins (i, j)-(i, j+1)."""
    out = []
    for i in range(field.shape[0] - 1):
        for j in range(field.shape[1] - 1):
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


# corner values a level apart and a few ulps apart, so that the drawn fields
# hold every case code, saddle centers on both sides and at the level, corners
# exactly at the level, and squares touching NaN
_CORNER_OFFSETS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


@settings(max_examples=400, deadline=None)
@given(level=st.sampled_from([1.0, DISTILLABLE_EPS, 0.0, -3.25]),
       shape=st.tuples(st.integers(1, 9), st.integers(1, 9)), data=st.data())
def test_segments_match_the_per_square_loop(level, shape, data):
    values = st.sampled_from([math.nan, math.nextafter(level, -math.inf),
                              math.nextafter(level, math.inf), *(level + d for d in _CORNER_OFFSETS)])
    m, n = shape
    field = np.array(data.draw(st.lists(values, min_size=m * n, max_size=m * n))).reshape(shape)
    # the drawn level first, then every level in the same call, sharing one NaN mask;
    # the int id of ("h" | "v", i, j) is i*n + j, plus the field's size for "v"
    levels = (level, 1.0, DISTILLABLE_EPS, 0.0, -3.25)
    expected = [[tuple(field.size * (kind == "v") + i * n + j for kind, i, j in segment)
                 for segment in reference_segments(field, at)] for at in levels]
    assert list(_marching_squares_segments(field, levels)) == expected


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
            for level in levels
            for chain, closed in _stitch_segments(reference_segments(field, level))]


def _edge_point(edge, xs, ys, field, level, omega, radicand):
    """The point of the grid edge with int id ``edge`` at which eps = level,
    with ``radicand`` the squared level over the squared scale of the spec's
    eps map.

    Along an edge one coordinate is fixed, and the map's squared eps over its
    squared scale is the rising factor (omega - fixed)(omega + free), the
    falling factor (omega + fixed)(omega - free), or the smaller of the two,
    which rises, then falls. So an edge whose first corner lies below the
    level is crossed where the rising factor equals ``radicand``, and any
    other crossed edge where the falling one does, each at a free coordinate
    found without iteration.
    """
    v, cell = divmod(edge, field.size)
    i, j = divmod(cell, field.shape[1])
    if not v:
        lo, hi, fixed = xs[i], xs[i + 1], ys[j]
        f0, f1 = field[i, j], field[i + 1, j]
    else:
        lo, hi, fixed = ys[j], ys[j + 1], xs[i]
        f0, f1 = field[i, j], field[i, j + 1]
    if f0 == level:
        free = lo
    elif f1 == level:
        free = hi
    elif f0 < level:
        free = min(max(radicand / (omega - fixed) - omega, lo), hi)
    else:
        free = min(max(omega - radicand / (omega + fixed), lo), hi)
    return (fixed, free) if v else (free, fixed)


def edge_point_curves(spec, levels):
    """(level, points, closed) of boundary_curves before its vectorized solve:
    the same chains, each vertex solved by one scalar ``_edge_point`` call."""
    xs, ys = spec.g_centers().tolist(), spec.gp_centers().tolist()
    field, omega, scale = eps_field(spec), spec.omega_value, spec._eps_map.scale
    curves = []
    for level, segments in zip(levels, _marching_squares_segments(field, levels)):
        radicand = (level / scale) ** 2
        for chain, closed in _stitch_segments(segments):
            points = [_edge_point(e, xs, ys, field, level, omega, radicand) for e in chain]
            curves.append((level, np.array(points), closed))
    return curves


def _hex(points):
    return [[float(x).hex() for x in point] for point in points]


class TestVertexSolve:
    """The vectorized vertex solve of boundary_curves against the scalar one it
    replaced, ``_edge_point``: every vertex bit for bit, the corner branches
    (a corner exactly at the level) included."""

    @settings(max_examples=150, deadline=None)
    @given(protocol=st.sampled_from(list(Protocol)), resolution=st.integers(2, 121),
           tau=st.floats(0.01, 0.99), log_omega=st.one_of(st.none(), st.floats(0.0, 4.0)),
           g_window=_windows, gp_window=_windows, pick=st.floats(0.0, 1.0, exclude_max=True))
    def test_matches_the_scalar_solve_bit_for_bit(self, protocol, resolution, tau, log_omega,
                                                  g_window, gp_window, pick):
        omega = None if log_omega is None else 10.0 ** log_omega
        w = eb_threshold(tau) if omega is None else omega
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=resolution, omega=omega,
                        g_range=_window(g_window, w), gp_range=_window(gp_window, w))
        # a level equal to a field value puts corners exactly at the level
        values = eps_field(spec)[np.isfinite(eps_field(spec))]
        at_a_corner = (float(values[int(pick * values.size)]),) if values.size else ()
        levels = (*spec._eps_map.levels, *LOOP_LEVELS, *at_a_corner)
        curves = boundary_curves(spec, levels)
        reference = edge_point_curves(spec, levels)
        assert [(c.level, c.closed) for c in curves] == [(lv, cl) for lv, _, cl in reference]
        for curve, (_, points, _) in zip(curves, reference):
            assert curve.points.dtype == np.float64 and curve.points.shape == points.shape
            assert curve.points.flags.c_contiguous
            assert _hex(curve.points) == _hex(points)


    def test_a_falling_cut_at_zero_keeps_a_positive_sign(self):
        # at omega 2, tau 1/2 the direct eps = 1 contour crosses the g edge at
        # gp = 0 where w - c/(w + gp) = 2 - 4/2 is +0.0; written as
        # -(c/(w + gp) - w) that vertex would read -0.0
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=5, omega=2.0,
                        g_range=(-0.9, 1.1), gp_range=(-1.0, 1.0))
        assert spec.gp_centers()[2] == 0.0 and spec.g_centers()[1] < 0.0 < spec.g_centers()[2]
        curves = boundary_curves(spec, (1.0,))
        (_, points, _), = edge_point_curves(spec, (1.0,))
        assert _hex(curves[0].points) == _hex(points)
        assert ["0x0.0p+0", "0x0.0p+0"] in _hex(points)


class TestBoundaryTable:
    """The boundary table is two shapes, rising and falling, each a float
    predicate that scan bisects on and its closed-form cut: read at a = -g with
    c = 1 over [lo, hi) they bound a row's bona-fide run, at a = g with c = 1 or
    (level / scale)**2 they are the separability and eps = level boundaries
    within it, as is eps >= level with the rising cut. On every g row each cut
    must lie within one cell of its predicate's flip, both clamped to the run.
    Where cells are ulps wide, the rounding of the cut and of the predicate (up
    to 3 ulps of omega, measured) widens that by 8 ulps of omega."""

    @staticmethod
    def boundaries(spec, levels):
        """(name, holds(a, gp), cut(a), whether a = -g, whether within the bona-fide run)."""
        eps_map = spec._eps_map
        shapes = (("rising", eps_map.rising), ("falling", eps_map.falling))
        found = [(f"{name} at -g", shape.holds, partial(shape.cut, 1.0), True, False)
                 for name, shape in shapes]
        for c in (1.0, *((level / eps_map.scale) ** 2 for level in levels)):
            found += [(f"{name} at g, c={c}", partial(shape.holds, c=c), partial(shape.cut, c),
                       False, True) for name, shape in shapes]
        if eps_map.levels:  # eps rises along gp, save under ENVIRONMENT_ONLY
            found += [(f"eps >= {level}", lambda a, gp, level=level: eps_map.eps(a, gp) >= level,
                       partial(eps_map.rising.cut, (level / eps_map.scale) ** 2), False, True)
                      for level in levels]
        return found

    @classmethod
    def assert_cuts_match_flips(cls, spec, levels):
        eps_map, w, res = spec._eps_map, spec.omega_value, spec.resolution
        g, gp = spec.g_centers(), spec.gp_centers()
        # scan's bona-fide run of each row, from the shapes at a = -g
        lo, hi = np.zeros(res, np.intp), np.where(np.abs(g) < w, res, 0)
        begin = scanner._first_true(eps_map.rising.holds, -g, gp, lo, hi)
        end = np.maximum(begin, scanner._first_true(eps_map.falling.holds, -g, gp, lo, hi))
        slack = 8.0 * np.spacing(w)
        for name, holds, cut, mirrored, within in cls.boundaries(spec, levels):
            a, run = -g if mirrored else g, (begin, end) if within else (lo, hi)
            flip = scanner._first_true(holds, a, gp, *run)
            x = cut(a)
            first = np.clip(np.searchsorted(gp, x - slack), *run) - 1
            last = np.clip(np.searchsorted(gp, x + slack), *run) + 1
            far = (run[0] < run[1]) & ((flip < first) | (flip > last))
            assert not far.any(), (name, g[far], flip[far], x[far])

    @settings(max_examples=150, deadline=None)
    @given(protocol=st.sampled_from(list(Protocol)), resolution=st.integers(2, 399),
           tau=st.floats(0.01, 0.99), log_omega=st.one_of(st.none(), st.floats(0.0, 8.0)),
           g_window=_windows, gp_window=_windows, level=st.floats(0.05, 20.0))
    def test_cut_within_one_cell_of_the_flip(self, protocol, resolution, tau, log_omega,
                                             g_window, gp_window, level):
        omega = None if log_omega is None else 10.0 ** log_omega
        w = eb_threshold(tau) if omega is None else omega
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=resolution, omega=omega,
                        g_range=_window(g_window, w), gp_range=_window(gp_window, w))
        self.assert_cuts_match_flips(spec, (*spec._eps_map.levels, level))

    @settings(max_examples=150, deadline=None)
    @given(protocol=st.sampled_from(list(Protocol)), tau=st.floats(0.05, 0.95),
           log_omega=st.floats(0.0, 8.0), fraction=st.floats(-0.9, 0.9),
           entry=st.integers(0, 6), level=st.sampled_from([1.0, DISTILLABLE_EPS, 1.3]),
           ulps=st.integers(1, 8))
    def test_windows_straddling_a_flip_by_a_few_ulps(self, protocol, tau, log_omega, fraction,
                                                     entry, level, ulps):
        # as in TestRuns::test_windows_straddling_a_boundary_by_a_few_ulps, the
        # windows are a few ulps around one boundary's float flip, so cells are ulps
        omega = 10.0 ** log_omega
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=2, omega=omega)
        found = self.boundaries(spec, (level,))
        _, holds, _, mirrored, _ = found[entry % len(found)]
        g = fraction * omega
        a = np.array([-g if mirrored else g])
        at = lambda gp: bool(holds(a, np.array([gp]))[0])  # noqa: E731
        assume(at(-omega) != at(omega))  # a flip inside the physical box at this g
        below, _ = _float_flip(at, -omega, omega)
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=13, omega=omega,
                        g_range=_ulps_around(g, 4), gp_range=_ulps_around(below, ulps))
        self.assert_cuts_match_flips(spec, (level,))


def _scalar_hex(f, *args):
    try:
        return f(*args).hex()
    except ZeroDivisionError:  # a cut at w -+ a = 0; an array gives inf there
        return "ZeroDivisionError"


@st.composite
def _mirror_inputs(draw):
    """A spec of omega in [1, 1e150] or at EB, and (g, gp) pairs: signed zeros,
    subnormals, +-omega, points of the box and far beyond it."""
    tau = draw(st.floats(1e-150, 0.999))
    omega = draw(st.one_of(st.none(), st.floats(1.0, 1e150)))
    w = eb_threshold(tau) if omega is None else omega
    coordinate = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, -(2.0 ** -1030), w, -w]),
        st.floats(-1.5, 1.5).map(lambda f: f * w), st.floats(-1e150, 1e150))
    pairs = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12))
    return ScanSpec(tau=tau, protocol=Protocol.DIRECT, resolution=2, omega=omega), pairs


class TestBoundaryMirror:
    """The two shapes at a = -g are the uncertainty products, and at a = g the
    separability ones and, at c = level**2, the eps = level boundaries of the
    environment's PTS eigenvalue. w - (-g) is the same float operation as
    w + g, so the shapes must give what those six boundaries give written out
    in g, on scalars and arrays alike: predicates as booleans, cuts bit for bit."""

    @staticmethod
    def reference(eps_map, w, c):
        """name: (shape, whether a = -g, the predicate and the cut at c written out in g)."""
        rising, falling = eps_map.rising, eps_map.falling
        return {
            "uncertainty, rising": (rising, True, lambda g, x: (w + g) * (w + x) >= 1.0,
                                    lambda g: c / (w + g) - w),
            "uncertainty, falling": (falling, True, lambda g, x: (w - g) * (w - x) < 1.0,
                                     lambda g: w - c / (w - g)),
            "separability, rising": (rising, False, lambda g, x: (w - g) * (w + x) >= 1.0,
                                     lambda g: c / (w - g) - w),
            "separability, falling": (falling, False, lambda g, x: (w + g) * (w - x) < 1.0,
                                      lambda g: w - c / (w + g)),
            "eps = level, rising": (rising, False, lambda g, x: (w - g) * (w + x) >= c,
                                    lambda g: c / (w - g) - w),
            "eps = level, falling": (falling, False, lambda g, x: (w + g) * (w - x) < c,
                                     lambda g: w - c / (w + g)),
        }

    @settings(max_examples=300, deadline=None)
    @given(inputs=_mirror_inputs(), level=st.floats(0.05, 20.0))
    def test_shapes_give_the_six_expressions(self, inputs, level):
        spec, pairs = inputs
        g, gp = (np.array(column) for column in zip(*pairs))
        for c in (1.0, level ** 2):
            for name, (shape, mirrored, holds, cut) in \
                    self.reference(spec._eps_map, spec.omega_value, c).items():
                at = (lambda x: -x) if mirrored else (lambda x: x)  # noqa: E731
                extra = (c,) if name.startswith("eps") else ()  # scan leaves c = 1 out
                for gi, gpi in pairs:
                    assert shape.holds(at(gi), gpi, *extra) is holds(gi, gpi), (name, gi, gpi)
                    assert _scalar_hex(shape.cut, c, at(gi)) == _scalar_hex(cut, gi), (name, gi)
                with np.errstate(divide="ignore"):
                    assert shape.holds(at(g), gp, *extra).tolist() == holds(g, gp).tolist(), name
                    assert _hex([shape.cut(c, at(g))]) == _hex([cut(g)]), name


def _mirrored(cells):
    """Cell (i, j) holds what (n - 1 - j, n - 1 - i), its mirror under (g, gp) -> (-gp, -g), held."""
    return cells[::-1, ::-1].T


class TestReflectionSymmetry:
    """(g, gp) -> (-gp, -g) swaps the two factors of rising and of falling, and IEEE
    products commute, so on a window symmetric about 0, whose centers are exactly
    odd, every cell's class is its mirror cell's, ties included, and the contours
    map onto each other vertex for vertex."""

    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(0.05, 0.95), protocol=st.sampled_from(list(Protocol)),
           resolution=st.integers(2, 150), omega=st.one_of(st.none(), st.floats(1.0, 20.0)),
           half_width=st.floats(0.1, 1.5))
    def test_classes_are_their_mirror(self, tau, protocol, resolution, omega, half_width):
        w = eb_threshold(tau) if omega is None else omega
        window = (-half_width * w, half_width * w)
        grid = scan(ScanSpec(tau=tau, protocol=protocol, resolution=resolution, omega=omega,
                             g_range=window, gp_range=window))
        for cells in (grid.kind, grid.activation):
            np.testing.assert_array_equal(cells, _mirrored(cells))

    # at tau 0.75 and 1001^2, centers lo + (k + 0.5)(hi - lo)/n left 12 kind cells
    # and 6 activation cells off their mirror, on exact ties such as (w + g)(w + gp) = 1
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("tau", [0.55, 0.6, 0.75, 0.9])
    @pytest.mark.parametrize("resolution", [200, 201, 1001])
    def test_default_windows(self, protocol, tau, resolution):
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=resolution)
        np.testing.assert_array_equal(spec.g_centers(), -spec.g_centers()[::-1])
        grid = scan(spec)
        for cells in (grid.kind, grid.activation):
            np.testing.assert_array_equal(cells, _mirrored(cells))

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("tau", [0.6, 0.75])
    def test_contours_are_mirrored(self, protocol, tau):
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=201)
        levels = (1.0, 1.3) if protocol is Protocol.ENVIRONMENT_ONLY else (1.0, DISTILLABLE_EPS)
        curves = boundary_curves(spec, levels)
        assert curves

        def vertex_sets(mirror):
            return sorted((c.level, c.closed, sorted({(-gp, -g) if mirror else (g, gp)
                                                      for g, gp in c.points.tolist()}))
                          for c in curves)

        assert vertex_sets(False) == vertex_sets(True)


class TestContourEquality:
    def test_compares_by_value(self):
        # the dataclass == compared the points arrays as a tuple item and raised
        spec = ScanSpec(tau=0.75, protocol=Protocol.DIRECT, resolution=21)
        curves, again = boundary_curves(spec), boundary_curves(spec)
        assert len(curves) >= 2 and curves == again and not curves != again
        first = curves[0]
        assert first == scanner.Contour(first.level, first.points.copy(), first.closed)
        for other in (curves[1], scanner.Contour(first.level, first.points + 1.0, first.closed),
                      scanner.Contour(first.level, first.points, not first.closed),
                      (first.level, first.points, first.closed)):
            assert first != other and not first == other
        with pytest.raises(TypeError):
            hash(first)


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
                   "ad78a1ba3028c177976c13f2f6cc74f9e7549de67f5c7008d7c0fe6803bb8ddd"),
        "swap": (dict(tau=0.9, protocol=Protocol.SWAP, resolution=61),
                 (1.0, DISTILLABLE_EPS),
                 "b149ef342daa8aed5eeb8111bce5b7016326081cf6f3f993d3ea8db292776ca3"),
        "environment": (dict(tau=0.7, protocol=Protocol.ENVIRONMENT_ONLY, resolution=61,
                             omega=3.0, g_range=(-2.5, 1.0), gp_range=(-1.0, 2.9)),
                        (0.5, 1.0, 1.3),
                        "2262d7a1524764ea0c70ce62f27ee21368ac2408bfd675181ca535530c1549b7"),
        "environment-loops": (LOOP_SPEC, LOOP_LEVELS,
                              "1f50c4239f6d1229b98025cba6690a7af48303488ad325fa98a8449362551149"),
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
