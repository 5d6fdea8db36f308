"""Symplectic linear algebra on Gaussian covariance matrices.

Conventions used throughout the package:

* quadratures are mode-major, (q1, p1, q2, p2, ...);
* the vacuum variance is 1, so a thermal state has variance omega = 2*nbar + 1;
* entropies and the log-negativity are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .environment import require_bona_fide, require_variance
from .errors import DomainError

SYMMETRY_RTOL = 1e-12
PHYSICAL_NU_TOL = 1e-9     # nu >= 1 - tol counts as physical
NU_ONE_TOL = 1e-12         # nu <= 1 + tol is treated as exactly 1 in entropies
ENTROPY_NU_ONE_TOL = 1e-11  # nu = 1 window per unit of matrix magnitude


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2n x 2n matrix of quadrature second moments.

    The matrix is symmetrized and frozen on construction; non-finite entries
    and asymmetry beyond 1e-12 (relative to the largest entry) are rejected.
    Positive-definiteness and the uncertainty principle are checked by the
    operations that rely on them, not here, so partially transposed and other
    intermediate matrices can be represented too.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
            raise DomainError(f"covariance matrix must be square with even size, got {arr.shape}")
        peak = float(np.abs(arr).max())
        if not peak < math.inf:  # nan fails too
            raise DomainError("covariance matrix entries must be finite")
        if float(np.abs(arr - arr.T).max()) > SYMMETRY_RTOL * max(peak, 1.0):
            raise DomainError("covariance matrix is not symmetric")
        arr = (arr + arr.T) / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2

    def mode_block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling modes i and j."""
        return self.data[2 * i:2 * i + 2, 2 * j:2 * j + 2]

    def magnitude(self) -> float:
        """Largest entry magnitude, floored at 1; the scale for tolerance tests."""
        return max(float(np.abs(self.data).max()), 1.0)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Mode-major symplectic form: direct sum of n blocks [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise DomainError(f"need at least one mode, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement figures of merit for one bipartition of a Gaussian state."""

    pts_min: float
    log_negativity: float
    coherent_info: float
    symplectic_spectrum: tuple[float, ...]


def _qp_cm(a, b, c) -> CovarianceMatrix:
    """Two-mode CM with no q-p correlations, [[diag(a), diag(c)], [diag(c), diag(b)]],
    from the (q, p) pairs a and b of the two modes and c between them."""
    (a_q, a_p), (b_q, b_p), (c_q, c_p) = a, b, c
    return CovarianceMatrix(np.array([[a_q, 0.0, c_q, 0.0],
                                      [0.0, a_p, 0.0, c_p],
                                      [c_q, 0.0, b_q, 0.0],
                                      [0.0, c_p, 0.0, b_p]]))


def make_epr_cm(mu: float) -> CovarianceMatrix:
    """CM of a two-mode squeezed vacuum with quadrature variance mu >= 1.

    Diagonal blocks mu*I, off-diagonal blocks sqrt(mu^2 - 1)*Z with
    Z = diag(1, -1); pure for every mu, maximally correlated as mu grows.
    """
    require_variance("mu", mu)
    c = math.sqrt(mu * mu - 1.0)
    return _qp_cm((mu, mu), (mu, mu), (c, -c))


def make_env_cm(omega: float, g: float, gp: float) -> CovarianceMatrix:
    """CM of the correlated two-mode environment, [[omega*I, G], [G, omega*I]]
    with G = diag(g, gp). Raises DomainError naming the violated bona-fide
    condition for unphysical parameters."""
    require_bona_fide(omega, g, gp)
    return _qp_cm((omega, omega), (omega, omega), (g, gp))


def symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of a positive-definite CM, sorted descending.

    Computed as the moduli of the eigenvalues of i*Omega*V. Those come in
    conjugate pairs (+/- i*nu); the pairs are averaged to wash out the slight
    asymmetry of the nonsymmetric eigensolve.
    """
    v = cm.data
    if float(np.linalg.eigvalsh(v)[0]) <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    moduli = np.sort(np.abs(np.linalg.eigvals(symplectic_form(cm.n_modes) @ v)))
    nus = 0.5 * (moduli[0::2] + moduli[1::2])
    return nus[::-1].copy()


def partial_transpose(cm: CovarianceMatrix, modes: Iterable[int]) -> CovarianceMatrix:
    """Flip p -> -p on the given modes (conjugation by the per-mode reflection)."""
    modes = _checked_modes(modes, cm.n_modes)
    flip = np.ones(2 * cm.n_modes)
    for m in modes:
        flip[2 * m + 1] = -1.0
    return CovarianceMatrix(cm.data * np.outer(flip, flip))


def pts_min_eigenvalue(cm: CovarianceMatrix, partition: Iterable[int]) -> float:
    """Smallest symplectic eigenvalue after partial transposition of `partition`.

    The bipartition must be proper: transposing nothing or everything leaves
    the spectrum unchanged and would certify nothing.
    """
    modes = _checked_modes(partition, cm.n_modes)
    if len(modes) == cm.n_modes:
        raise DomainError("partition must leave at least one mode untransposed")
    return float(symplectic_eigenvalues(partial_transpose(cm, modes))[-1])


def h(nu: float, tol: float = PHYSICAL_NU_TOL, one_tol: float = NU_ONE_TOL) -> float:
    """Entropy contribution of one symplectic eigenvalue, in nats.

    Values in [1 - tol, 1 + one_tol] count as the nu = 1 limit and give 0
    exactly; anything below 1 - tol is rejected as unphysical, and so is a
    non-finite value.
    """
    if not 1.0 - tol <= nu < math.inf:  # nan fails too
        raise DomainError(f"symplectic eigenvalue must be finite and >= 1, got {nu}")
    if nu <= 1.0 + one_tol:
        return 0.0
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    return up * math.log(up) - dn * math.log(dn)


def _entropy(nus, scale: float) -> float:
    """Sum of :func:`h` over a spectrum, with windows scaled by the magnitude
    `scale` of its matrix (see :func:`von_neumann_entropy`)."""
    return float(sum(
        h(float(nu), tol=PHYSICAL_NU_TOL * scale, one_tol=ENTROPY_NU_ONE_TOL * scale)
        for nu in nus
    ))


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """Entropy of a Gaussian state in nats; zero exactly for pure states.

    The physicality and nu = 1 windows are scaled by the matrix magnitude:
    eigenvalues of a covariance matrix with entries of size M carry absolute
    errors of order M (and worse near degeneracies), so a fixed window would
    misclassify large pure states as unphysical.
    """
    return _entropy(symplectic_eigenvalues(cm), cm.magnitude())


def _coherent_information(cm: CovarianceMatrix, keep_modes: list[int], spectrum) -> float:
    """S(B) - S(AB) for the checked modes of B, given the symplectic spectrum of `cm`."""
    reduced = partial_trace(cm, drop=[m for m in range(cm.n_modes) if m not in keep_modes])
    return von_neumann_entropy(reduced) - _entropy(spectrum, cm.magnitude())


def coherent_information(cm: CovarianceMatrix, keep: Iterable[int]) -> float:
    """I(A>B) = S(B) - S(AB) in nats, where `keep` lists the modes of B.

    May be negative; positive values lower-bound the one-way distillable
    entanglement per copy.
    """
    keep_modes = _checked_modes(keep, cm.n_modes)
    if len(keep_modes) == cm.n_modes:
        raise DomainError("keep must be a proper subset of the modes")
    return _coherent_information(cm, keep_modes, symplectic_eigenvalues(cm))


def log_negativity(pts_min: float) -> float:
    """max{0, -ln(pts_min)}: zero exactly when the PTS eigenvalue is >= 1."""
    if not pts_min > 0.0:  # nan fails too
        raise DomainError(f"PTS eigenvalue must be positive, got {pts_min}")
    return max(0.0, -math.log(pts_min))


def entanglement_report(cm: CovarianceMatrix, partition: Iterable[int]) -> EntanglementReport:
    """Report for the bipartition (rest | partition).

    The coherent information is taken toward the partition side, i.e.
    I(rest > partition). The spectrum of `cm` is computed once, for both the
    report and S(AB).
    """
    modes = _checked_modes(partition, cm.n_modes)
    eps = pts_min_eigenvalue(cm, modes)
    spectrum = symplectic_eigenvalues(cm)
    return EntanglementReport(
        pts_min=eps,
        log_negativity=log_negativity(eps),
        coherent_info=_coherent_information(cm, modes, spectrum),
        symplectic_spectrum=tuple(float(nu) for nu in spectrum),
    )


def partial_trace(cm: CovarianceMatrix, drop: Iterable[int]) -> CovarianceMatrix:
    """Discard the listed modes (delete their rows and columns)."""
    drop_modes = _checked_modes(drop, cm.n_modes)
    if len(drop_modes) == cm.n_modes:
        raise DomainError("cannot trace out every mode")
    idx = [i for m in drop_modes for i in (2 * m, 2 * m + 1)]
    v = np.delete(np.delete(cm.data, idx, axis=0), idx, axis=1)
    return CovarianceMatrix(v)


def _checked_modes(modes: Iterable[int], n_modes: int) -> list[int]:
    out = sorted(set(int(m) for m in modes))
    if not out:
        raise DomainError("mode set must be nonempty")
    if out[0] < 0 or out[-1] >= n_modes:
        raise DomainError(f"mode indices {out} out of range for {n_modes} modes")
    return out
