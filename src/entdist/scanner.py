"""Correlation-plane rasterization: classify (g, gp) cells and extract iso-contours.

Every cell is evaluated at its center by the same formula functions that the
point evaluators in :mod:`entdist.environment` and :mod:`entdist.protocols`
call, here on arrays over the grid, so the scan and the point evaluators agree
bit for bit by construction.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq

from .environment import (EnvClass, EnvKind, bona_fide_conditions, eb_threshold,
                          env_pts_radicand, is_separable, require_magnitude)
from .errors import DomainError
from .protocols import large_mu_eps

DISTILLABLE_EPS = math.exp(-1.0)


class Protocol(Enum):
    DIRECT = "Direct"
    SWAP = "Swap"
    ENVIRONMENT_ONLY = "EnvironmentOnly"


class Activation(Enum):
    NONE = "None"
    ENTANGLING = "Entangling"
    DISTILLABLE = "Distillable"


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
        if not 0.0 < self.tau < 1.0:
            raise DomainError(f"transmissivity must lie in (0, 1), got {self.tau}")
        if self.omega is not None and self.omega < 1.0:
            raise DomainError(f"thermal variance must be >= 1, got {self.omega}")
        if self.omega is not None:
            require_magnitude("omega", self.omega)
        if self.resolution < 2:
            raise DomainError(f"resolution must be >= 2, got {self.resolution}")
        w = self.omega_value
        for name, rng in (("g_range", self.g_range), ("gp_range", self.gp_range)):
            if rng is None:
                object.__setattr__(self, name, (-w, w))
            else:
                lo, hi = float(rng[0]), float(rng[1])
                if not lo < hi:
                    raise DomainError(f"{name} must be a nonempty interval, got {rng}")
                require_magnitude(f"{name} bound", lo)
                require_magnitude(f"{name} bound", hi)
                object.__setattr__(self, name, (lo, hi))

    @property
    def omega_value(self) -> float:
        return self.omega if self.omega is not None else eb_threshold(self.tau)

    def g_centers(self) -> np.ndarray:
        lo, hi = self.g_range
        return lo + (np.arange(self.resolution) + 0.5) * (hi - lo) / self.resolution

    def gp_centers(self) -> np.ndarray:
        lo, hi = self.gp_range
        return lo + (np.arange(self.resolution) + 0.5) * (hi - lo) / self.resolution


@dataclass(frozen=True)
class CellClass:
    """Classification of one cell: environment class plus protocol activation."""

    env_class: EnvClass
    activation: Activation
    eps_value: float | None


# ScanGrid codes index these tuples
_KINDS = tuple(EnvKind)
_ACTIVATIONS = tuple(Activation)


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Scan result as read-only arrays indexed [i_g, j_gp]: int8 codes ``kind``
    (0 Forbidden, 1 Separable, 2 Entangled) and ``activation`` (0 None,
    1 Entangling, 2 Distillable), and ``env_pts``/``eps``, NaN on Forbidden cells."""

    spec: ScanSpec
    kind: np.ndarray
    activation: np.ndarray
    env_pts: np.ndarray
    eps: np.ndarray

    def __post_init__(self) -> None:
        for name in ("kind", "activation", "env_pts", "eps"):
            getattr(self, name).flags.writeable = False

    @property
    def summary(self) -> dict[tuple[EnvKind, Activation], int]:
        """Cell count of every (EnvKind, Activation) pair that occurs."""
        counts = np.bincount((self.kind * 3 + self.activation).ravel(), minlength=9)
        return {(_KINDS[c // 3], _ACTIVATIONS[c % 3]): int(n) for c, n in enumerate(counts) if n}

    @property
    def cells(self) -> Sequence[CellClass]:
        """Row-major cells, index i_g * resolution + j_gp, built on access."""
        return _Cells(self)

    def cell(self, i_g: int, j_gp: int) -> CellClass:
        kind = _KINDS[self.kind[i_g, j_gp]]
        if kind is EnvKind.FORBIDDEN:
            return CellClass(EnvClass(kind, None), Activation.NONE, None)
        env_pts, eps = float(self.env_pts[i_g, j_gp]), float(self.eps[i_g, j_gp])
        return CellClass(EnvClass(kind, env_pts), _ACTIVATIONS[self.activation[i_g, j_gp]], eps)

    def summary_fractions(self) -> dict[tuple[EnvKind, Activation], float]:
        total = self.kind.size
        return {pair: count / total for pair, count in self.summary.items()}


class _Cells(Sequence):
    def __init__(self, grid: ScanGrid) -> None:
        self._grid = grid

    def __len__(self) -> int:
        return self._grid.kind.size

    def __getitem__(self, index: int) -> CellClass:
        # divmod maps negative indices onto numpy's; past the end numpy raises IndexError
        return self._grid.cell(*divmod(index, self._grid.spec.resolution))


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def _eps(spec: ScanSpec, g, gp):
    """Protocol eps (environment PTS eigenvalue for ENVIRONMENT_ONLY) at (g, gp);
    meaningful only at physical points."""
    w = spec.omega_value
    if spec.protocol is Protocol.ENVIRONMENT_ONLY:
        return np.sqrt(env_pts_radicand(w, g, gp))
    return large_mu_eps(spec.tau, w, g, gp, swap=spec.protocol is Protocol.SWAP)


def _field_block(spec: ScanSpec):
    """(bona, separable, env_pts, eps) arrays over the cell centers, indexed
    [i_g, j_gp]; env_pts and eps are NaN outside the physical region."""
    w = spec.omega_value
    g, gp = np.meshgrid(spec.g_centers(), spec.gp_centers(), indexing="ij")
    marginal_g, marginal_gp, uncertainty = bona_fide_conditions(w, g, gp)
    bona = marginal_g & marginal_gp & uncertainty
    # forbidden cells may have negative radicands; they are masked to NaN
    with np.errstate(invalid="ignore"):
        env = np.where(bona, np.sqrt(env_pts_radicand(w, g, gp)), np.nan)
        eps = np.where(bona, _eps(spec, g, gp), np.nan)
    return bona, is_separable(w, g, gp), env, eps


def eps_field(spec: ScanSpec) -> np.ndarray:
    """eps at every cell center, indexed [i_g, j_gp], NaN outside the physical
    region; the quantity contoured by :func:`boundary_curves`."""
    return _field_block(spec)[3]


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def scan(spec: ScanSpec) -> ScanGrid:
    """Classify every cell of the grid; Forbidden cells are recorded, never raised."""
    bona, sep, env, eps = _field_block(spec)
    kind = np.where(bona, np.where(sep, 1, 2), 0).astype(np.int8)
    if spec.protocol is Protocol.ENVIRONMENT_ONLY:
        activation = np.zeros_like(kind)
    else:
        # NaN compares false, so Forbidden cells get code 0 (None)
        activation = (eps < 1.0).astype(np.int8) + (eps < DISTILLABLE_EPS)
    return ScanGrid(spec, kind, activation, env, eps)


def separable_activation_exists(
    tau: float,
    protocol: Protocol,
    omega: float | None = None,
    max_resolution: int = 1001,
) -> tuple[bool, tuple[float, float] | None]:
    """Search the physical region for a separable point that activates the protocol.

    Grids of increasing resolution (up to ``max_resolution``) over the bounding
    box of the physical region; the witness is the separable activated cell
    with the smallest eps found.
    """
    if protocol is Protocol.ENVIRONMENT_ONLY:
        raise DomainError("activation search needs a distribution protocol")
    for res in (101, max_resolution):
        spec = ScanSpec(tau=tau, protocol=protocol, resolution=res, omega=omega)
        bona, sep, _, eps = _field_block(spec)
        activated = bona & sep & (eps < 1.0)
        if activated.any():
            masked = np.where(activated, eps, np.inf)
            i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
            return True, (float(spec.g_centers()[i]), float(spec.gp_centers()[j]))
    return False, None


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

    Marching squares on the cell-center grid provides the topology; each edge
    crossing bracketed by linear interpolation is then polished against the
    analytic field, so returned vertices satisfy eps = level to root-finder
    precision. Squares touching non-physical cells are skipped, which
    truncates contours at the border of the physical region.
    """
    xs = spec.g_centers()
    ys = spec.gp_centers()
    field = eps_field(spec)

    def scalar_eps(g: float, gp: float) -> float:
        return float(_eps(spec, g, gp))

    contours = []
    for level in levels:
        segments = _marching_squares_segments(field, level)
        point_of = {}

        def edge_point(edge):
            if edge not in point_of:
                point_of[edge] = _refine_edge_point(edge, xs, ys, field, level, scalar_eps)
            return point_of[edge]

        for chain, closed in _stitch_segments(segments):
            pts = np.array([edge_point(e) for e in chain])
            contours.append(Contour(level=level, points=pts, closed=closed))
    return contours


def _marching_squares_segments(field: np.ndarray, level: float):
    """Segments as pairs of edge ids: ('h', i, j) joins nodes (i, j)-(i+1, j),
    ('v', i, j) joins (i, j)-(i, j+1). Corners with f < level count as inside."""
    ni, nj = field.shape
    segments = []
    for i in range(ni - 1):
        for j in range(nj - 1):
            f00, f10 = field[i, j], field[i + 1, j]
            f01, f11 = field[i, j + 1], field[i + 1, j + 1]
            if np.isnan(f00) or np.isnan(f10) or np.isnan(f01) or np.isnan(f11):
                continue
            b00, b10 = f00 < level, f10 < level
            b01, b11 = f01 < level, f11 < level
            code = b00 + 2 * b10 + 4 * b11 + 8 * b01
            if code in (0, 15):
                continue
            south = ("h", i, j)
            north = ("h", i, j + 1)
            west = ("v", i, j)
            east = ("v", i + 1, j)
            if code in (5, 10):
                center_inside = (f00 + f10 + f01 + f11) / 4.0 < level
                if code == 5:  # inside corners on the main diagonal
                    pairs = [(south, east), (north, west)] if center_inside \
                        else [(south, west), (north, east)]
                else:  # code 10, inside corners on the anti-diagonal
                    pairs = [(south, west), (north, east)] if center_inside \
                        else [(south, east), (north, west)]
                segments.extend(pairs)
                continue
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
    """Join segments sharing an edge into ordered chains; every edge borders at
    most two squares, so the adjacency degree never exceeds two."""
    adjacency = defaultdict(list)
    for a, b in segments:
        adjacency[a].append(b)
        adjacency[b].append(a)
    used = set()

    def walk(start):
        path = [start]
        current = start
        while True:
            step = None
            for neighbor in adjacency[current]:
                key = (min(current, neighbor), max(current, neighbor))
                if key not in used:
                    step = neighbor
                    used.add(key)
                    break
            if step is None:
                break
            path.append(step)
            current = step
        return path

    chains = []
    for edge in sorted(adjacency):
        if len(adjacency[edge]) == 1 and not all(
            (min(edge, nb), max(edge, nb)) in used for nb in adjacency[edge]
        ):
            chains.append((walk(edge), False))
    for edge in sorted(adjacency):
        if any((min(edge, nb), max(edge, nb)) not in used for nb in adjacency[edge]):
            path = walk(edge)
            chains.append((path, path[0] == path[-1]))
    return chains


def _refine_edge_point(edge, xs, ys, field, level, scalar_eps):
    kind, i, j = edge
    if kind == "h":
        (x0, y0), (x1, y1) = (xs[i], ys[j]), (xs[i + 1], ys[j])
        f0, f1 = field[i, j], field[i + 1, j]
    else:
        (x0, y0), (x1, y1) = (xs[i], ys[j]), (xs[i], ys[j + 1])
        f0, f1 = field[i, j], field[i, j + 1]
    if f0 == level:
        t = 0.0
    elif f1 == level:
        t = 1.0
    else:
        t = brentq(
            lambda s: scalar_eps(x0 + s * (x1 - x0), y0 + s * (y1 - y0)) - level,
            0.0,
            1.0,
        )
    return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
