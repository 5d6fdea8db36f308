"""Covariance matrices and the entropies and report of the finite-mu runners.

The runners of :mod:`entdist.protocols` take the PTS eigenvalue and the full
symplectic spectrum of their two-mode outputs in closed form; this module
diagonalizes only mode B's 2x2 block, for S(B), and builds the report. The
generic n-mode algebra (symplectic form, partial transpose and trace, spectra
and the report of any bipartition) is the tests' reference,
``tests/gaussian_reference.py``.

Conventions used throughout the package:

* quadratures are mode-major, (q1, p1, q2, p2, ...);
* the vacuum variance is 1, so a thermal state has variance omega = 2*nbar + 1;
* entropies and the log-negativity are in nats.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:  # numpy loads on first use, in the functions that need it
    import numpy as np

SYMMETRY_RTOL = 1e-12
PHYSICAL_NU_TOL = 1e-9     # nu >= 1 - tol counts as physical
NU_ONE_TOL = 1e-12         # nu <= 1 + tol is treated as exactly 1 in entropies
ENTROPY_NU_ONE_TOL = 1e-11  # nu = 1 window per unit of matrix magnitude
MAX_ENTRY = sys.float_info.max / 2.0  # the symmetrizing sum of two entries stays finite


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2n x 2n matrix of quadrature second moments.

    The matrix is symmetrized and frozen on construction; non-finite entries,
    entries above :data:`MAX_ENTRY` (where symmetrizing would overflow) and
    asymmetry beyond 1e-12 (relative to the largest entry) are rejected.
    Positive-definiteness and the uncertainty principle are checked by the
    operations that rely on them, not here, so partially transposed and other
    intermediate matrices can be represented too.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
            raise DomainError(f"covariance matrix must be square with even size, got {arr.shape}")
        peak = float(np.abs(arr).max())
        if not peak <= MAX_ENTRY:  # nan fails too
            raise DomainError(
                f"covariance matrix entries must be finite and at most {MAX_ENTRY:.4g}")
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


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement figures of merit for one bipartition of a Gaussian state."""

    pts_min: float
    log_negativity: float
    coherent_info: float
    symplectic_spectrum: tuple[float, ...]


@functools.cache
def _one_mode_form() -> np.ndarray:
    """The symplectic form of one mode, [[0, 1], [-1, 0]]; built once, read-only."""
    import numpy as np
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega.flags.writeable = False
    return omega


def _symplectic_spectrum(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum (nu,) of a positive-definite 2x2 array.

    Computed as the modulus of the eigenvalues of i*Omega*V. Those come as a
    conjugate pair (+/- i*nu); the pair is averaged to wash out the slight
    asymmetry of the nonsymmetric eigensolve. It runs once per report, on
    mode B's block (:func:`_report_with_pts`).
    """
    import numpy as np
    if float(np.linalg.eigvalsh(v)[0]) <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    moduli = np.abs(np.linalg.eigvals(_one_mode_form() @ v))
    return 0.5 * (moduli[:1] + moduli[1:])


def h(nu: float, tol: float = PHYSICAL_NU_TOL, one_tol: float = NU_ONE_TOL) -> float:
    """Entropy contribution of one symplectic eigenvalue, in nats.

    Values in [1 - tol, 1 + one_tol] count as the nu = 1 limit and give 0
    exactly; anything below 1 - tol is rejected as unphysical, and so is a
    non-finite value. With up = (nu + 1)/2 = 1 + dn, h = up*ln(up) - dn*ln(dn)
    is evaluated as up*log1p(dn) - dn*ln(dn) below nu = 3, two terms of one
    sign, and as ln(dn) + up*log1p(1/dn) from 3 on, where those two terms
    would cancel more and more as nu grows.
    """
    if not 1.0 - tol <= nu < math.inf:  # nan fails too
        raise DomainError(f"symplectic eigenvalue must be finite and >= 1, got {nu}")
    if nu <= 1.0 + one_tol:
        return 0.0
    up, dn = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    if nu >= 3.0:
        return math.log(dn) + up * math.log1p(1.0 / dn)
    return up * math.log1p(dn) - dn * math.log(dn)


def _entropy(nus, v: np.ndarray) -> float:
    """Entropy in nats of the state of matrix `v` with symplectic spectrum `nus`,
    diagonalized from `v`: the sum of :func:`h`, zero exactly for pure states.

    The physicality and nu = 1 windows are scaled by M, the largest entry
    magnitude of `v` floored at 1: eigenvalues of a covariance matrix with
    entries of size M carry absolute errors of order M (and worse near
    degeneracies), so a fixed window would misclassify large pure states as
    unphysical. So any nu <= 1 + 1e-11*M counts as 1 and contributes 0, and
    any nu below 1 - 1e-9*M is refused. A closed-form spectrum has no such
    error and takes h's own windows instead (:func:`_report_with_pts`).
    """
    scale = max(float(abs(v).max()), 1.0)
    return float(sum(
        h(float(nu), tol=PHYSICAL_NU_TOL * scale, one_tol=ENTROPY_NU_ONE_TOL * scale)
        for nu in nus
    ))


def log_negativity(pts_min: float) -> float:
    """max{0, -ln(pts_min)}: zero exactly when the PTS eigenvalue is >= 1."""
    if not pts_min > 0.0:  # nan fails too
        raise DomainError(f"PTS eigenvalue must be positive, got {pts_min}")
    return max(0.0, -math.log(pts_min))


def _report_with_pts(v: np.ndarray, eps: float, spectrum: tuple[float, float]
                     ) -> EntanglementReport:
    """The report on the two-mode array `v` toward mode B, given its PTS
    eigenvalue `eps` and its symplectic `spectrum`, sorted descending, both
    closed forms.

    S(B) is diagonalized: the symplectic spectrum of mode B's block
    ``v[2:, 2:]``, after its positive-definiteness check, summed at
    :func:`_entropy`'s windows, scaled by that block's largest entry. The
    given `spectrum` is taken to be within a few ulps of each nu, so S(AB)
    sums :func:`h` at h's own fixed windows: at entries of 1e150 the scaled
    nu = 1 window would be 1e139 wide and zero S(AB) out.
    """
    reduced = v[2:, 2:]
    s_b = _entropy(_symplectic_spectrum(reduced), reduced)
    return EntanglementReport(
        pts_min=eps,
        log_negativity=log_negativity(eps),
        coherent_info=s_b - sum(map(h, spectrum)),
        symplectic_spectrum=tuple(float(nu) for nu in spectrum),
    )
