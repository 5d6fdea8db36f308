"""Correlation-plane rasterization: classify (g, gp) cells and extract iso-contours.

Every cell is evaluated at its center by the same formula functions that the
point evaluators in :mod:`entdist.environment` and :mod:`entdist.protocols`
call, here on arrays over the grid, so the scan and the point evaluators agree
bit for bit by construction. :func:`scan` keeps each g row as at most 7 runs
of one class pair and evaluates no eps field; ``_evaluate_rows`` gives eps on g
rows. Each spec's ``_eps_map`` alone decides which eps field a protocol has.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .environment import (EnvKind, bona_fide_conditions, eb_threshold, env_pts_radicand,
                          is_separable, require_magnitude, require_transmissivity,
                          require_variance)
from .errors import DomainError
from .protocols import Protocol, large_mu_eps, large_mu_eps_scale

DISTILLABLE_EPS = math.exp(-1.0)

# float() parses strings and takes bools, and bytes iterate as their byte values,
# so none of these is accepted as a window or a window bound
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)


class Activation(Enum):
    NONE = "None"
    ENTANGLING = "Entangling"
    DISTILLABLE = "Distillable"


# eps(g, gp), elementwise; its large-mu scale; the levels below which a cell activates
_EpsMap = namedtuple("_EpsMap", "eps scale levels")


def _env_pts_field(omega, g, gp):
    return np.sqrt(env_pts_radicand(omega, g, gp))  # the environment's PTS eigenvalue


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
        """Large-mu eps; for ENVIRONMENT_ONLY the environment's PTS eigenvalue, no levels."""
        w = self.omega_value
        if self.protocol is Protocol.ENVIRONMENT_ONLY:
            return _EpsMap(partial(_env_pts_field, w), 1.0, ())
        return _EpsMap(partial(large_mu_eps, self.tau, w, protocol=self.protocol),
                       large_mu_eps_scale(self.tau, self.protocol), (1.0, DISTILLABLE_EPS))

    @cached_property
    def _centers(self) -> tuple[np.ndarray, np.ndarray]:
        steps = np.arange(self.resolution) + 0.5
        return tuple(_read_only(lo + steps * (hi - lo) / self.resolution)
                     for lo, hi in (self.g_range, self.gp_range))


# pair codes kind * 3 + activation index these tuples as code // 3 and code % 3
_KINDS = tuple(EnvKind)
_ACTIVATIONS = tuple(Activation)


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Scan result as runs along gp: the cells [run_bounds[i, k], run_bounds[i,
    k + 1]) of g row i have the pair code run_codes[i, k] = kind * 3 + activation
    (kind 0 Forbidden, 1 Separable, 2 Entangled; activation 0 None, 1 Entangling,
    2 Distillable), and ``counts`` is the number of cells of each pair code. The
    run arrays are read-only copies of those passed in; the per-cell ``kind``,
    ``activation`` (int8), ``eps`` and ``env_pts`` (NaN on Forbidden cells, one
    array under ENVIRONMENT_ONLY) are read-only, built on first access and
    cached; ``physical_rows`` and ``eps_rows`` cover g rows only."""

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
        return {(_KINDS[c // 3], _ACTIVATIONS[c % 3]): n for c, n in enumerate(self.counts) if n}

    def summary_fractions(self) -> dict[tuple[EnvKind, Activation], float]:
        return {pair: count / self.spec.resolution ** 2 for pair, count in self.summary.items()}

    def _cells(self, run_values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Each run's entry of ``run_values`` spread over its cells, on the g rows ``rows``."""
        lengths = np.diff(self.run_bounds[rows]).ravel()
        return np.repeat(run_values[rows], lengths).reshape(-1, self.spec.resolution)

    kind = cached_property(lambda self: _read_only(self._cells(self.run_codes // 3)))
    activation = cached_property(lambda self: _read_only(self._cells(self.run_codes % 3)))

    def physical_rows(self, rows: slice) -> np.ndarray:
        """True on the bona-fide cells of the g rows ``rows``."""
        return self._cells(self.run_codes > 2, rows)

    def eps_rows(self, rows: slice) -> np.ndarray:
        """eps on the g rows ``rows``, NaN on Forbidden cells."""
        return _evaluate_rows(self.spec, rows, self.spec._eps_map.eps, self.physical_rows(rows))

    @cached_property
    def eps(self) -> np.ndarray:
        return _read_only(_tiled_field(self.spec, self.spec._eps_map.eps, self.physical_rows))

    @cached_property
    def env_pts(self) -> np.ndarray:
        if not self.spec._eps_map.levels:  # eps is the environment's PTS eigenvalue
            return self.eps
        env_pts = partial(_env_pts_field, self.spec.omega_value)
        return _read_only(_tiled_field(self.spec, env_pts, self.physical_rows))


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


def _evaluate_rows(spec: ScanSpec, rows: slice, field_of, physical=None):
    """``field_of(g, gp)`` on the g rows ``rows``, NaN off the bona-fide mask
    ``physical``, evaluated where not given. The g column broadcasts against the
    gp row, and every formula is elementwise, so no value depends on the slicing."""
    g, gp = spec.g_centers()[rows, np.newaxis], spec.gp_centers()
    if physical is None:
        marginal_g, marginal_gp, uncertainty = bona_fide_conditions(spec.omega_value, g, gp)
        physical = marginal_g & marginal_gp & uncertainty
    # forbidden cells may have negative radicands; they are masked to NaN in
    # place, in about half the time of an np.where copy
    with np.errstate(invalid="ignore"):
        field = field_of(g, gp)
    field[~physical] = np.nan
    return field


def _tiled_field(spec: ScanSpec, field_of, physical_rows=lambda rows: None) -> np.ndarray:
    """The whole grid of :func:`_evaluate_rows`, masked by ``physical_rows(tile)`` where not
    None, a tile of about ``_TILE_CELLS`` cells (at least a g row) at a time; one tile uncopied."""
    res, step = spec.resolution, max(1, _TILE_CELLS // spec.resolution)
    if step >= res:
        return _evaluate_rows(spec, slice(None), field_of, physical_rows(slice(None)))
    field = np.empty((res, res))
    for tile in (slice(start, start + step) for start in range(0, res, step)):
        field[tile] = _evaluate_rows(spec, tile, field_of, physical_rows(tile))
    return field


def eps_field(spec: ScanSpec) -> np.ndarray:
    """eps at every cell center, indexed [i_g, j_gp], NaN outside the physical
    region; the quantity contoured by :func:`boundary_curves`. For
    ENVIRONMENT_ONLY it is the environment PTS eigenvalue itself."""
    return _tiled_field(spec, spec._eps_map.eps)


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

    On a g row with a bona-fide cell w -+ g > 0, so each predicate below is,
    like the gp centers, monotone in gp in float64: the uncertainty products
    (w + g)(w + gp), (w - g)(w - gp) >= 1, which imply |gp| < w, the
    separability factors (w - g)(w + gp), (w + g)(w - gp) < 1 and, on the
    bona-fide run only (no NaN there), eps < each activation level. Their ends
    cut the row into at most 7 runs, each coded by where its first cell a lies
    among them: bona fide for begin <= a < end, Entangled below the rising
    separability cut or from the falling one on, and one activation step more
    per level cut above a. A grid whose one-byte cell codes exceed the physical
    memory raises MemoryError first.
    """
    res, w = spec.resolution, spec.omega_value
    if res * res > _MEMORY:
        raise MemoryError(f"a {res}x{res} grid of one-byte codes exceeds the physical memory")
    g, gp = spec.g_centers(), spec.gp_centers()
    lo, hi = np.zeros(res, np.intp), np.where(np.abs(g) < w, res, 0)
    begin = _first_true(lambda g, x: (w + g) * (w + x) >= 1.0, g, gp, lo, hi)
    end = np.maximum(begin, _first_true(lambda g, x: (w - g) * (w - x) < 1.0, g, gp, lo, hi))
    eps, levels = spec._eps_map.eps, spec._eps_map.levels
    flips = [lambda g, x: (w - g) * (w + x) >= 1.0, lambda g, x: (w + g) * (w - x) < 1.0,
             *(lambda g, x, level=level: eps(g, x) >= level for level in levels)]
    cuts = np.array([begin, end, *(_first_true(f, g, gp, begin, end) for f in flips)])
    bounds = np.column_stack([np.zeros(res, np.intp), np.sort(cuts, axis=0).T, np.full(res, res)])
    a, (begin, end, rise, fall, *below) = bounds[:, :-1], cuts[..., np.newaxis]
    physical = (begin <= a) & (a < end)
    codes = 3 * (physical.astype(np.int8) + (physical & ((a < rise) | (fall <= a))))
    codes += sum(physical & (a < cut) for cut in below)
    return ScanGrid(spec, bounds, codes)


def separable_activation_exists(
    tau: float,
    protocol: Protocol,
    omega: float | None = None,
) -> tuple[bool, tuple[float, float] | None]:
    """Whether a separable environment activates the protocol, and a witness (g, gp).

    eps = scale * sqrt((omega - g)(omega + gp)), scale 1 - tau (direct) or (1 - tau)/tau (swap).
    That product is >= the PTS radicand, which is >= 1 on separable environments, so eps >=
    scale there; gp = -g, 1 <= omega - g <= omega is separable with eps = scale * (omega - g).
    So activation exists iff scale < 1. Witness: omega - g halfway between 1 and min(omega,
    1/scale), or 1 if rounding pushes that out; DomainError where float64 holds neither, and
    for the direct protocol where 1 - tau rounds to 1 (tau <= 2**-54), though such a tau activates.
    """
    omega_eb = eb_threshold(tau)  # refuses tau outside (0, 1)
    scale = large_mu_eps_scale(tau, protocol)  # refuses all but DIRECT and SWAP
    w = omega_eb if omega is None else omega
    require_variance("omega", w)
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


def boundary_curves(spec: ScanSpec, levels: tuple[float, ...] = (1.0, DISTILLABLE_EPS)) -> list[Contour]:
    """Iso-contours of the eps field over the bona-fide cells.

    Marching squares on the cell-center grid gives segments between crossed
    edges, and segments sharing an edge are joined into chains: open paths
    first, then closed loops. Each crossing is then solved exactly on its
    edge, where one coordinate is fixed and eps = level has a closed-form
    solution in the other, so returned vertices satisfy eps = level up to
    floating-point rounding. Squares touching non-physical cells are skipped,
    which truncates contours at the border of the physical region.
    """
    xs, ys = spec.g_centers().tolist(), spec.gp_centers().tolist()
    field, omega, scale = eps_field(spec), spec.omega_value, spec._eps_map.scale

    contours = []
    for level in levels:
        radicand = (level / scale) ** 2
        for chain, closed in _stitch_segments(_marching_squares_segments(field, level)):
            pts = np.array([_edge_point(e, xs, ys, field, level, omega, radicand) for e in chain])
            contours.append(Contour(level=level, points=pts, closed=closed))
    return contours


def _marching_squares_segments(field: np.ndarray, level: float):
    """Segments as pairs of edge ids: ('h', i, j) joins nodes (i, j)-(i+1, j),
    ('v', i, j) joins (i, j)-(i, j+1). Corners with f < level count as inside.

    Case codes are computed for every square at once; only the squares the
    level crosses, in row-major order, are visited one by one.
    """
    below = (field < level).astype(np.uint8)
    code = below[:-1, :-1] | below[1:, :-1] << 1 | below[1:, 1:] << 2 | below[:-1, 1:] << 3
    known = ~np.isnan(field)
    valid = known[:-1, :-1] & known[1:, :-1] & known[:-1, 1:] & known[1:, 1:]
    crossed_i, crossed_j = np.nonzero(valid & (code != 0) & (code != 15))
    segments = []
    for i, j, code_ij in zip(crossed_i.tolist(), crossed_j.tolist(),
                             code[crossed_i, crossed_j].tolist()):
        south = ("h", i, j)
        north = ("h", i, j + 1)
        west = ("v", i, j)
        east = ("v", i + 1, j)
        if code_ij in (5, 10):
            f00, f10 = field[i, j], field[i + 1, j]
            f01, f11 = field[i, j + 1], field[i + 1, j + 1]
            center_inside = (f00 + f10 + f01 + f11) / 4.0 < level
            # code 5 has its inside corners on the main diagonal, 10 on the
            # anti-diagonal; an inside center joins the inside corners
            if (code_ij == 5) == center_inside:
                segments.extend([(south, east), (north, west)])
            else:
                segments.extend([(south, west), (north, east)])
            continue
        b00, b10, b11, b01 = (bool(code_ij & bit) for bit in (1, 2, 4, 8))
        crossing = []
        if b00 != b10:
            crossing.append(south)
        if b10 != b11:
            crossing.append(east)
        if b01 != b11:
            crossing.append(north)
        if b00 != b01:
            crossing.append(west)
        segments.append((crossing[0], crossing[1]))
    return segments


def _stitch_segments(segments):
    """Join segments sharing an edge into ordered chains.

    Every edge borders at most two squares, so each component of the edge
    graph is a path or a loop and is walked once, leaving each edge for its
    first unvisited neighbor. Paths come first, each from its smaller end;
    the loops left follow, each from its smallest edge, which it repeats at
    the end. Starts are taken in sorted order.
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


def _edge_point(edge, xs, ys, field, level, omega, radicand):
    """The point of ``edge`` at which eps = level, with ``radicand`` the squared
    level over the squared scale of the spec's eps map.

    Along an edge one coordinate is fixed, and the map's squared eps over its
    squared scale is the rising factor (omega - fixed)(omega + free), the
    falling factor (omega + fixed)(omega - free), or the smaller of the two,
    which rises, then falls. So an edge whose first corner lies below the
    level is crossed where the rising factor equals ``radicand``, and any
    other crossed edge where the falling one does, each at a free coordinate
    found without iteration.
    """
    kind, i, j = edge
    if kind == "h":
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
    return (free, fixed) if kind == "h" else (fixed, free)
