"""Symplectic linear algebra on Gaussian covariance matrices.

Conventions used throughout the package:

* quadratures are mode-major, (q1, p1, q2, p2, ...);
* the vacuum variance is 1, so a thermal state has variance omega = 2*nbar + 1;
* entropies and the log-negativity are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .environment import require_bona_fide
from .errors import DomainError

SYMMETRY_RTOL = 1e-12
PHYSICAL_NU_TOL = 1e-9     # nu >= 1 - tol counts as physical
NU_ONE_TOL = 1e-12         # nu <= 1 + tol is treated as exactly 1 in entropies
ENTROPY_NU_ONE_TOL = 1e-11  # nu = 1 window per unit of matrix magnitude
SYMPLECTIC_ATOL = 1e-10
PINV_CUTOFF = 1e-12

_I2 = np.eye(2)
_Z = np.diag([1.0, -1.0])  # reflection matrix flipping the p quadrature


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2n x 2n matrix of quadrature second moments.

    The matrix is symmetrized and frozen on construction; asymmetry beyond
    1e-12 (relative to the largest entry) is rejected. Positive-definiteness
    and the uncertainty principle are checked by the operations that rely on
    them, not here, so partially transposed and other intermediate matrices
    can be represented too.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
            raise DomainError(f"covariance matrix must be square with even size, got {arr.shape}")
        scale = max(float(np.abs(arr).max()), 1.0)
        if float(np.abs(arr - arr.T).max()) > SYMMETRY_RTOL * scale:
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
class SymplecticTransform:
    """Linear phase-space map S with S Omega S^T = Omega (checked on construction)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.matrix, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise DomainError(f"symplectic matrix must be square with even size, got {s.shape}")
        omega = symplectic_form(s.shape[0] // 2)
        if float(np.abs(s @ omega @ s.T - omega).max()) > SYMPLECTIC_ATOL:
            raise DomainError("matrix does not preserve the symplectic form")
        s.flags.writeable = False
        object.__setattr__(self, "matrix", s)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement figures of merit for one bipartition of a Gaussian state."""

    pts_min: float
    log_negativity: float
    coherent_info: float
    symplectic_spectrum: tuple[float, ...]


def make_epr_cm(mu: float) -> CovarianceMatrix:
    """CM of a two-mode squeezed vacuum with quadrature variance mu >= 1.

    Diagonal blocks mu*I, off-diagonal blocks sqrt(mu^2 - 1)*Z; pure for
    every mu, maximally correlated as mu grows.
    """
    if mu < 1.0:
        raise DomainError(f"EPR variance must be >= 1, got {mu}")
    c = math.sqrt(mu * mu - 1.0)
    return CovarianceMatrix(np.block([[mu * _I2, c * _Z], [c * _Z, mu * _I2]]))


def make_env_cm(omega: float, g: float, gp: float) -> CovarianceMatrix:
    """CM of the correlated two-mode environment, [[omega*I, G], [G, omega*I]]
    with G = diag(g, gp). Raises DomainError naming the violated bona-fide
    condition for unphysical parameters."""
    require_bona_fide(omega, g, gp)
    corr = np.diag([g, gp])
    return CovarianceMatrix(np.block([[omega * _I2, corr], [corr, omega * _I2]]))


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


def symplectic_eigenvalues_two_mode(cm: CovarianceMatrix) -> np.ndarray:
    """Closed-form spectrum of a two-mode CM; cross-check for the generic path.

    With Delta = det A + det B + 2 det C the eigenvalues are
    nu_-^2 = 2 det V / (Delta + sqrt(Delta^2 - 4 det V)) and
    nu_+^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2; the first form avoids the
    cancellation that would otherwise wipe out the small eigenvalue for
    strongly squeezed states.
    """
    if cm.n_modes != 2:
        raise DomainError(f"closed formula needs exactly 2 modes, got {cm.n_modes}")
    det_a = float(np.linalg.det(cm.mode_block(0, 0)))
    det_b = float(np.linalg.det(cm.mode_block(1, 1)))
    det_c = float(np.linalg.det(cm.mode_block(0, 1)))
    det_v = float(np.linalg.det(cm.data))
    if det_v <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    delta = det_a + det_b + 2.0 * det_c
    disc = max(delta * delta - 4.0 * det_v, 0.0)
    big = (delta + math.sqrt(disc)) / 2.0
    return np.array([math.sqrt(big), math.sqrt(det_v / big)])


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
    exactly; anything below 1 - tol is rejected as unphysical.
    """
    if nu < 1.0 - tol:
        raise DomainError(f"symplectic eigenvalue {nu} below 1: state is unphysical")
    if nu <= 1.0 + one_tol:
        return 0.0
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    return up * math.log(up) - dn * math.log(dn)


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """Entropy of a Gaussian state in nats; zero exactly for pure states.

    The physicality and nu = 1 windows are scaled by the matrix magnitude:
    eigenvalues of a covariance matrix with entries of size M carry absolute
    errors of order M (and worse near degeneracies), so a fixed window would
    misclassify large pure states as unphysical.
    """
    scale = cm.magnitude()
    return float(sum(
        h(float(nu), tol=PHYSICAL_NU_TOL * scale, one_tol=ENTROPY_NU_ONE_TOL * scale)
        for nu in symplectic_eigenvalues(cm)
    ))


def coherent_information(cm: CovarianceMatrix, keep: Iterable[int]) -> float:
    """I(A>B) = S(B) - S(AB) in nats, where `keep` lists the modes of B.

    May be negative; positive values lower-bound the one-way distillable
    entanglement per copy.
    """
    keep_modes = _checked_modes(keep, cm.n_modes)
    if len(keep_modes) == cm.n_modes:
        raise DomainError("keep must be a proper subset of the modes")
    reduced = partial_trace(cm, drop=[m for m in range(cm.n_modes) if m not in keep_modes])
    return von_neumann_entropy(reduced) - von_neumann_entropy(cm)


def log_negativity(pts_min: float) -> float:
    """max{0, -ln(pts_min)}: zero exactly when the PTS eigenvalue is >= 1."""
    if pts_min <= 0.0:
        raise DomainError(f"PTS eigenvalue must be positive, got {pts_min}")
    return max(0.0, -math.log(pts_min))


def entanglement_report(cm: CovarianceMatrix, partition: Iterable[int]) -> EntanglementReport:
    """Report for the bipartition (rest | partition).

    The coherent information is taken toward the partition side, i.e.
    I(rest > partition).
    """
    modes = _checked_modes(partition, cm.n_modes)
    eps = pts_min_eigenvalue(cm, modes)
    return EntanglementReport(
        pts_min=eps,
        log_negativity=log_negativity(eps),
        coherent_info=coherent_information(cm, keep=modes),
        symplectic_spectrum=tuple(float(nu) for nu in symplectic_eigenvalues(cm)),
    )


def beam_splitter(tau: float) -> SymplecticTransform:
    """Two-mode beam splitter of transmissivity tau in (0, 1].

    Mode 0 is the transmitted signal: S = [[sqrt(tau) I, sqrt(1-tau) I],
    [-sqrt(1-tau) I, sqrt(tau) I]].
    """
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"transmissivity must lie in (0, 1], got {tau}")
    t = math.sqrt(tau)
    r = math.sqrt(1.0 - tau)
    return SymplecticTransform(np.block([[t * _I2, r * _I2], [-r * _I2, t * _I2]]))


def apply_symplectic(
    cm: CovarianceMatrix, transform: SymplecticTransform, modes: Sequence[int]
) -> CovarianceMatrix:
    """Conjugate the CM by `transform` embedded on the listed modes: V -> S V S^T."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise DomainError(f"modes must be distinct, got {modes}")
    if len(modes) != transform.n_modes:
        raise DomainError(
            f"transform acts on {transform.n_modes} modes but {len(modes)} were given"
        )
    for m in modes:
        if not 0 <= m < cm.n_modes:
            raise DomainError(f"mode index {m} out of range for {cm.n_modes} modes")
    full = np.eye(2 * cm.n_modes)
    s = transform.matrix
    for a, ma in enumerate(modes):
        for b, mb in enumerate(modes):
            full[2 * ma:2 * ma + 2, 2 * mb:2 * mb + 2] = s[2 * a:2 * a + 2, 2 * b:2 * b + 2]
    return CovarianceMatrix(full @ cm.data @ full.T)


def partial_trace(cm: CovarianceMatrix, drop: Iterable[int]) -> CovarianceMatrix:
    """Discard the listed modes (delete their rows and columns)."""
    drop_modes = _checked_modes(drop, cm.n_modes)
    if len(drop_modes) == cm.n_modes:
        raise DomainError("cannot trace out every mode")
    idx = [i for m in drop_modes for i in (2 * m, 2 * m + 1)]
    v = np.delete(np.delete(cm.data, idx, axis=0), idx, axis=1)
    return CovarianceMatrix(v)


def homodyne_condition(cm: CovarianceMatrix, mode: int, quadrature: str) -> CovarianceMatrix:
    """Condition the remaining modes on an ideal homodyne detection of `mode`.

    Gaussian conditioning is outcome-independent, so the result is just the
    Schur complement A - C (Pi B Pi)^+ C^T with Pi projecting onto the
    measured quadrature. The measured block is rank one, so its pseudo-inverse
    reduces to 1/variance, guarded by an absolute 1e-12 cutoff.
    """
    if quadrature not in ("q", "p"):
        raise DomainError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    if not 0 <= mode < cm.n_modes:
        raise DomainError(f"mode index {mode} out of range for {cm.n_modes} modes")
    if cm.n_modes < 2:
        raise DomainError("conditioning needs at least one unmeasured mode")
    i = 2 * mode + (0 if quadrature == "q" else 1)
    var = float(cm.data[i, i])
    if var <= PINV_CUTOFF:
        raise DomainError("measured quadrature has (numerically) zero variance")
    keep = [k for k in range(2 * cm.n_modes) if k not in (2 * mode, 2 * mode + 1)]
    a = cm.data[np.ix_(keep, keep)]
    c = cm.data[np.ix_(keep, [i])]
    return CovarianceMatrix(a - (c @ c.T) / var)


def _checked_modes(modes: Iterable[int], n_modes: int) -> list[int]:
    out = sorted(set(int(m) for m in modes))
    if not out:
        raise DomainError("mode set must be nonempty")
    if out[0] < 0 or out[-1] >= n_modes:
        raise DomainError(f"mode indices {out} out of range for {n_modes} modes")
    return out
