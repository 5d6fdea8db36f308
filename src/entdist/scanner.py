"""Correlation-plane rasterization: classify (g, gp) cells and extract iso-contours.

Every cell is evaluated at its center by the same formula functions that the
point evaluators in :mod:`entdist.environment` and :mod:`entdist.protocols`
call, here on arrays over the grid, so the scan and the point evaluators agree
bit for bit by construction. Each spec's ``_eps_map`` alone decides which eps
field a protocol has, the environment's PTS eigenvalue under ENVIRONMENT_ONLY,
and holds the plane's two boundary shapes: :func:`scan` bisects g rows on their
predicates, :func:`boundary_curves` solves vertices from their cuts. The field
has two evaluators: :func:`eps_field` over the whole grid and
:meth:`ScanGrid.eps_rows` over a slice of g rows.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .environment import (EnvKind, bona_fide_conditions, eb_threshold, env_pts_radicand,
                          falling, is_separable, require_magnitude, require_transmissivity,
                          require_variance, rising)
from .errors import DomainError
from .protocols import DISTILLABLE_EPS, Activation, Protocol, large_mu_eps, large_mu_eps_scale

# float() parses strings and takes bools, and bytes iterate as their byte values,
# so none of these is accepted as a window or a window bound
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)

# eps(g, gp), elementwise; its large-mu scale; the levels below which a cell
# activates; the plane's two boundary shapes, each a float predicate and a cut
_EpsMap = namedtuple("_EpsMap", "eps scale levels rising falling")
_Boundary = namedtuple("_Boundary", "holds cut")


@dataclass(frozen=True)
class ScanSpec:
    """One rasterization job over the correlation plane.

    ``omega=None`` places the environment exactly at the entanglement-breaking
    threshold for ``tau``. Ranges default to the bounding box of the physical
    region, (-omega, omega) on both axes.
    """

    tau: float
    protocol: Protocol
    resolution: int
    g_range: tuple[float, float] | None = None
    gp_range: tuple[float, float] | None = None
    omega: float | None = None

    def __post_init__(self) -> None:
        require_transmissivity(self.tau)
        if not isinstance(self.protocol, Protocol):
            raise DomainError(f"protocol must be a Protocol member, got {self.protocol!r}")
        if self.omega is not None:
            require_variance("omega", self.omega)
        # concrete types: isinstance against the numbers.Integral ABC is slow
        if not (isinstance(self.resolution, (int, np.integer)) and self.resolution >= 2):
            raise DomainError(f"resolution must be an integer >= 2, got {self.resolution!r}")
        object.__setattr__(self, "resolution", int(self.resolution))  # a numpy int's ** 2 wraps
        w = self.omega_value
        for name, rng in (("g_range", self.g_range), ("gp_range", self.gp_range)):
            if rng is None:
                object.__setattr__(self, name, (-w, w))
            else:
                try:
                    bounds = tuple(rng)
                    if isinstance(rng, _NOT_NUMBERS) or any(isinstance(b, _NOT_NUMBERS)
                                                            for b in bounds):
                        raise TypeError
                    lo, hi = map(float, bounds)
                except (TypeError, ValueError):  # not iterable, not two items, not numbers
                    raise DomainError(f"{name} must be two numbers, got {rng!r}") from None
                if not lo < hi:
                    raise DomainError(f"{name} must be a nonempty interval, got {rng}")
                require_magnitude(f"{name} bound", lo)
                require_magnitude(f"{name} bound", hi)
                object.__setattr__(self, name, (lo, hi))

    @cached_property
    def omega_value(self) -> float:
        return self.omega if self.omega is not None else eb_threshold(self.tau)

    def g_centers(self) -> np.ndarray:
        """Cell centers along g: one read-only array per spec, made on first use."""
        return self._centers[0]

    def gp_centers(self) -> np.ndarray:
        return self._centers[1]

    @cached_property
    def _eps_map(self) -> _EpsMap:
        """Large-mu eps, or the environment's PTS eigenvalue with no levels, and the boundary
        shapes of the products rising and falling at omega = w: on a row with w -+ a > 0
        holds(a, gp, c) turns true once as gp rises, near cut(c, a), where the product is c;
        (eps / scale)**2 is rising at a = g or, under ENVIRONMENT_ONLY, the lesser of the two."""
        w = self.omega_value
        up = _Boundary(lambda a, gp, c=1.0: rising(w, a, gp) >= c, lambda c, a: c / (w - a) - w)
        down = _Boundary(lambda a, gp, c=1.0: falling(w, a, gp) < c, lambda c, a: w - c / (w + a))
        if self.protocol is Protocol.ENVIRONMENT_ONLY:
            return _EpsMap(lambda g, gp: np.sqrt(env_pts_radicand(w, g, gp)), 1.0, (), up, down)
        return _EpsMap(partial(large_mu_eps, self.tau, w, protocol=self.protocol),
                       large_mu_eps_scale(self.tau, self.protocol), (1.0, DISTILLABLE_EPS),
                       up, down)

    @cached_property
    def _centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo + hi)/2 + (k - (n - 1)/2)*((hi - lo)/n): exactly odd about a midpoint at 0,
        so a symmetric window keeps the plane's mirror (g, gp) -> (-gp, -g) bit for bit."""
        offsets = np.arange(self.resolution) - (self.resolution - 1) / 2.0
        return tuple(_read_only((lo + hi) / 2.0 + offsets * ((hi - lo) / self.resolution))
                     for lo, hi in (self.g_range, self.gp_range))


# the (EnvKind, Activation) of each pair code kind * 3 + activation, in code order
_PAIRS = tuple((kind, act) for kind in EnvKind for act in Activation)


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Scan result as runs along gp: the cells [run_bounds[i, k], run_bounds[i,
    k + 1]) of g row i have the pair code run_codes[i, k] = kind * 3 + activation
    (kind 0 Forbidden, 1 Separable, 2 Entangled; activation 0 None, 1 Entangling,
    2 Distillable), and ``counts`` is the number of cells of each pair code. The
    run arrays are read-only copies of those passed in; the per-cell ``kind`` and
    ``activation`` (int8) are read-only, built on first access and cached.
    ``eps_rows`` gives eps on g rows, NaN exactly on the Forbidden cells; the
    whole field is :func:`eps_field` of ``spec``."""

    spec: ScanSpec
    run_bounds: np.ndarray
    run_codes: np.ndarray
    counts: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        for name in ("run_bounds", "run_codes"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))
        # in integers: each run adds its end to its pair code and takes off its start
        counts = np.zeros(9, np.int64)
        np.add.at(counts, self.run_codes, self.run_bounds[:, 1:])
        np.subtract.at(counts, self.run_codes, self.run_bounds[:, :-1])
        object.__setattr__(self, "counts", tuple(int(n) for n in counts))

    @property
    def summary(self) -> dict[tuple[EnvKind, Activation], int]:
        """Cell count of every (EnvKind, Activation) pair that occurs."""
        return {_PAIRS[c]: n for c, n in enumerate(self.counts) if n}

    def summary_fractions(self) -> dict[tuple[EnvKind, Activation], float]:
        return {pair: count / self.spec.resolution ** 2 for pair, count in self.summary.items()}

    def _cells(self, run_values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Each run's entry of ``run_values`` spread over its cells, on the g rows ``rows``."""
        lengths = np.diff(self.run_bounds[rows]).ravel()
        return np.repeat(run_values[rows], lengths).reshape(-1, self.spec.resolution)

    kind = cached_property(lambda self: _read_only(self._cells(self.run_codes // 3)))
    activation = cached_property(lambda self: _read_only(self._cells(self.run_codes % 3)))

    def eps_rows(self, rows: slice) -> np.ndarray:
        """eps on the g rows ``rows``, NaN on Forbidden cells."""
        return _evaluate_rows(self.spec, rows, self._cells(self.run_codes > 2, rows))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

# bytes of physical memory, where the platform reports them
_MEMORY = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
           if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ()) else math.inf)

# cells per tile of the whole float fields: a float64 temporary of 2**16 cells
# is 512 KiB, so a tile's temporaries stay in cache
_TILE_CELLS = 2 ** 16


def _evaluate_rows(spec: ScanSpec, rows: slice, physical=None):
    """The spec's eps on the g rows ``rows``, NaN off the bona-fide mask ``physical``,
    evaluated where not given. The g column broadcasts against the gp row, and every
    formula is elementwise, so no value depends on the slicing."""
    g, gp = spec.g_centers()[rows, np.newaxis], spec.gp_centers()
    if physical is None:
        marginal_g, marginal_gp, uncertainty = bona_fide_conditions(spec.omega_value, g, gp)
        physical = marginal_g & marginal_gp & uncertainty
    # forbidden cells may have negative radicands; they are masked to NaN in
    # place, in about half the time of an np.where copy
    with np.errstate(invalid="ignore"):
        field = spec._eps_map.eps(g, gp)
    field[~physical] = np.nan
    return field


def eps_field(spec: ScanSpec) -> np.ndarray:
    """eps at every cell center, indexed [i_g, j_gp], NaN outside the physical
    region; the quantity contoured by :func:`boundary_curves`. For
    ENVIRONMENT_ONLY it is the environment PTS eigenvalue itself. Evaluated a
    tile of about ``_TILE_CELLS`` cells (at least a g row) at a time; a grid of
    one tile is returned as evaluated, uncopied."""
    res, step = spec.resolution, max(1, _TILE_CELLS // spec.resolution)
    if step >= res:
        return _evaluate_rows(spec, slice(None))
    field = np.empty((res, res))
    for tile in (slice(start, start + step) for start in range(0, res, step)):
        field[tile] = _evaluate_rows(spec, tile)
    return field


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def _first_true(holds, g, gp, lo, hi):
    """Per g row, the first gp index in [lo, hi) at which ``holds(g, gp)`` is
    true, or hi where there is none; ``holds`` must be false, then true along
    the row. One bisection of all rows with lo < hi, evaluating in [lo, hi) only."""
    first, rows = lo.copy(), np.flatnonzero(lo < hi)
    g, lo, hi = g[rows], lo[rows], hi[rows]
    last = hi - 1  # mid reaches hi only once lo = hi, and stays >= the first lo
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        yes = holds(g, gp[np.minimum(mid, last)])
        lo, hi = np.where(yes, lo, np.minimum(mid + 1, hi)), np.where(yes, mid, hi)
    first[rows] = lo
    return first


def scan(spec: ScanSpec) -> ScanGrid:
    """Classify every cell of the grid; Forbidden cells are recorded, never raised.

    On a g row with a bona-fide cell w -+ g > 0, so the two shapes' predicates
    read at -g and at g are, like the gp centers, monotone in gp in float64, and
    so is eps >= level on the bona-fide run (no NaN there), which those at -g
    bound within |gp| < w. Their flips cut the row into at most 7 runs, each
    coded by where its first cell a lies among them: bona fide from the rising
    flip at -g to the falling one, Entangled below the rising flip at g or from
    the falling one on, and one activation step more per level flip above a. A
    grid whose one-byte cell codes exceed the physical memory raises MemoryError.
    """
    res, w = spec.resolution, spec.omega_value
    if res * res > _MEMORY:
        raise MemoryError(f"a {res}x{res} grid of one-byte codes exceeds the physical memory")
    g, gp = spec.g_centers(), spec.gp_centers()
    lo, hi = np.zeros(res, np.intp), np.where(np.abs(g) < w, res, 0)
    eps_map = spec._eps_map
    up, down = eps_map.rising.holds, eps_map.falling.holds
    begin = _first_true(up, -g, gp, lo, hi)
    end = np.maximum(begin, _first_true(down, -g, gp, lo, hi))
    flips = [up, down, *(lambda g, gp, level=level: eps_map.eps(g, gp) >= level
                         for level in eps_map.levels)]
    cuts = np.array([begin, end, *(_first_true(f, g, gp, begin, end) for f in flips)])
    bounds = np.column_stack([np.zeros(res, np.intp), np.sort(cuts, axis=0).T, np.full(res, res)])
    a, (begin, end, rise, fall, *below) = bounds[:, :-1], cuts[..., np.newaxis]
    physical = (begin <= a) & (a < end)
    codes = 3 * (physical.astype(np.int8) + (physical & ((a < rise) | (fall <= a))))
    codes += sum(physical & (a < cut) for cut in below)
    return ScanGrid(spec, bounds, codes)


def separable_activation_exists(tau: float, protocol: Protocol, omega: float | None = None
                                ) -> tuple[bool, tuple[float, float] | None]:
    """Whether a separable environment activates the protocol, and a witness (g, gp).

    eps = scale * sqrt(rising(omega, g, gp)), and rising >= env_pts_radicand, which is >= 1 on
    separable environments, so eps >= scale there; gp = -g, 1 <= omega - g <= omega is separable
    with eps = scale * (omega - g). So activation exists iff scale < 1. Witness: omega - g halfway
    between 1 and min(omega, 1/scale), or 1 if rounding pushes that out; DomainError where float64
    holds neither, and for the direct protocol where 1 - tau rounds to 1 (tau <= 2**-54), though
    such a tau activates.
    """
    w = eb_threshold(tau)  # refuses tau outside [1e-150, 1); then in [1, 2**54]
    scale = large_mu_eps_scale(tau, protocol)  # refuses all but DIRECT and SWAP
    if omega is not None:
        require_variance("omega", omega)
        w = omega
    if scale >= 1.0:
        if protocol is Protocol.DIRECT:
            raise DomainError(f"1 - tau rounds to 1 in float64 at tau={tau}, so the activating "
                              "direct channel has no float64 witness")
        return False, None
    for d in ((1.0 + min(w, 1.0 / scale)) / 2.0, 1.0):
        g = float(w - d)
        if all(bona_fide_conditions(w, g, -g)) and is_separable(w, g, -g) \
                and large_mu_eps(tau, w, g, -g, protocol) < 1.0:
            return True, (g, -g)
    raise DomainError(f"float64 has no separable activating point at omega={w}, tau={tau}")


# ---------------------------------------------------------------------------
# iso-contour extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """One polyline of the eps field; for closed loops the first point repeats."""

    level: float
    points: np.ndarray
    closed: bool

    def __eq__(self, other):  # the points as one array, not asked for their truth
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.closed) == (other.level, other.closed) and \
            np.array_equal(self.points, other.points)


def boundary_curves(spec: ScanSpec, levels: tuple[float, ...] = (1.0, DISTILLABLE_EPS)) -> list[Contour]:
    """Iso-contours of the eps field over the bona-fide cells.

    Marching squares on the cell-center grid gives segments between crossed
    edges, each edge an int id, for all squares at once from a 16-case table
    of crossed edges. Segments are joined into chains where they share one: open
    paths first, each from its smaller end id, then closed loops, each from
    its least id. The ids decode to their nodes in one numpy pass per level,
    which also solves every crossing from the two boundary shapes: along an
    edge eps**2 / scale**2 is rising(w, fixed, free), falling(w, fixed, free)
    or the lesser, so a crossing whose first corner lies below the level is
    the rising cut of c = (level / scale)**2 at a = fixed, clamped to the
    edge, any other the falling one; a corner at the level is the vertex.
    Squares touching non-physical cells are skipped, truncating contours at
    the physical border.
    """
    xs, ys = spec.g_centers(), spec.gp_centers()
    field, scale = eps_field(spec), spec._eps_map.scale
    up, down = spec._eps_map.rising.cut, spec._eps_map.falling.cut
    contours = []
    for level, segments in zip(levels, _marching_squares_segments(field, levels)):
        chains = _stitch_segments(segments)
        if not chains:
            continue
        v, cell = divmod(np.array([edge for chain, _ in chains for edge in chain]), field.size)
        i, j = divmod(cell, field.shape[1])
        i1, j1 = i + 1 - v, j + v
        (x0, y0), (x1, y1) = (xs[i], ys[j]), (xs[i1], ys[j1])
        lo, hi, fixed = np.where(v, y0, x0), np.where(v, y1, x1), np.where(v, x0, y0)
        f0, f1, c = field[i, j], field[i1, j1], (level / scale) ** 2
        free = np.where(f0 < level, up(c, fixed), down(c, fixed))
        free = np.where(f0 == level, lo, np.where(f1 == level, hi, np.minimum(np.maximum(
            free, lo), hi)))
        points = np.column_stack([np.where(v, x0, free), np.where(v, free, y0)])
        ends = np.cumsum([len(chain) for chain, _ in chains]).tolist()
        contours += [Contour(level=level, points=points[end - len(chain):end], closed=closed)
                     for (chain, closed), end in zip(chains, ends)]
    return contours


# A square's segments by case code, as pairs of edge slots. Bits 1, 2, 4, 8
# of the code put the corners 00, 10, 11, 01 below the level; slots 0-3 are
# the south, east, north and west edges, slot k joining the corners of bits k
# and k + 1 (mod 4), so it is crossed where those bits differ. A square joins
# its first two crossed slots. The saddles, 5 with its inside corners on the
# main diagonal and 10 on the anti-diagonal, have a second segment; their rows
# join the inside corners, as an inside center does.
_SEGMENT_SLOTS = np.array([[[k for k in range(4) if (c >> k ^ c >> (k + 1) % 4) & 1][:2] or [0, 0],
                            [0, 0]] for c in range(16)])
_SEGMENT_SLOTS[5], _SEGMENT_SLOTS[10] = [[0, 1], [2, 3]], [[0, 3], [2, 1]]


def _marching_squares_segments(field: np.ndarray, levels):
    """Yields the segments of each level of ``levels`` in turn, a list per
    level, each segment a pair of edge ids. With n columns and size cells in the
    field, the edge joining nodes (i, j)-(i+1, j) has id i*n + j and the one
    joining (i, j)-(i, j+1) has id size + i*n + j. Corners with f < level count
    as inside; squares with a NaN corner are skipped, by one mask for all levels.

    All squares are done at once: the crossed ones, in row-major order, look
    their segments up in the 16-case table ``_SEGMENT_SLOTS`` by case code, a
    saddle's two one after the other. A saddle whose center lies outside takes
    the other saddle's row: code ^ 15 crosses the same edges and joins the
    outside corners.
    """
    known = ~np.isnan(field)
    valid = known[:-1, :-1] & known[1:, :-1] & known[:-1, 1:] & known[1:, 1:]
    n, size, f = field.shape[1], field.size, field.ravel()
    for level in levels:
        below = (field < level).astype(np.uint8)
        code = below[:-1, :-1] | below[1:, :-1] << 1 | below[1:, 1:] << 2 | below[:-1, 1:] << 3
        crossed_i, crossed_j = np.nonzero(valid & (code != 0) & (code != 15))
        south, case = crossed_i * n + crossed_j, code[crossed_i, crossed_j]
        saddle = (case == 5) | (case == 10)
        s = south[saddle]
        center_inside = (f[s] + f[s + n] + f[s + 1] + f[s + n + 1]) / 4.0 < level
        case[saddle] ^= np.uint8(15) * ~center_inside
        edges = south[:, None, None] + np.array([0, size + n, 1, size])[_SEGMENT_SLOTS[case]]
        segments = edges[np.column_stack([np.ones_like(saddle), saddle])]
        yield list(zip(segments[:, 0].tolist(), segments[:, 1].tolist()))


def _stitch_segments(segments):
    """Join segments sharing an edge into ordered chains.

    Every edge borders at most two squares, so each component of the edge
    graph is a path or a loop and is walked once, leaving each edge for its
    first unvisited neighbor. Paths come first, each from its smaller end;
    the loops left follow, each from its smallest edge, which it repeats at
    the end. Starts are taken in sorted order: by id for the grid's edges.
    """
    adjacency = defaultdict(list)
    for a, b in segments:
        adjacency[a].append(b)
        adjacency[b].append(a)
    starts = sorted(adjacency)
    visited = set()
    chains = []
    for closed in (False, True):
        for start in starts:
            if start in visited or not (closed or len(adjacency[start]) == 1):
                continue
            chain = []
            edge = start
            while edge is not None:
                chain.append(edge)
                visited.add(edge)
                edge = next((nb for nb in adjacency[edge] if nb not in visited), None)
            chains.append((chain + [start] if closed else chain, closed))
    return chains
