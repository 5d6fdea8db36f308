"""Covariance matrices and the entropies and report of the finite-mu runners.

The runners of :mod:`entdist.protocols` take the PTS eigenvalue and the full
symplectic spectrum of their two-mode outputs in closed form, and mode B's
symplectic eigenvalue from its 2x2 block (:func:`_symplectic_spectrum`); the
report sums :func:`h`, at its fixed windows, over those numbers. The
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
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:  # numpy loads on first use, in the functions that need it
    import numpy as np

SYMMETRY_RTOL = 1e-12
PHYSICAL_NU_TOL = 1e-9     # nu >= 1 - tol counts as physical
MAX_ENTRY = sys.float_info.max / 2.0  # the symmetrizing sum of two entries stays finite


class _CovarianceFields(NamedTuple):
    data: np.ndarray


class CovarianceMatrix(_CovarianceFields):
    """Real symmetric 2n x 2n matrix of quadrature second moments.

    The matrix is symmetrized and frozen on construction; non-finite entries,
    entries above :data:`MAX_ENTRY` (where symmetrizing would overflow) and
    asymmetry beyond 1e-12 (relative to the largest entry) are rejected.
    Positive-definiteness and the uncertainty principle are checked by the
    operations that rely on them, not here, so partially transposed and other
    intermediate matrices can be represented too. Every way to build one,
    ``_make``, ``_replace``, copy and unpickling included, goes through these
    checks.
    """

    __slots__ = ()

    def __new__(cls, data) -> CovarianceMatrix:
        import numpy as np
        arr = np.array(data, dtype=float)
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
        return super().__new__(cls, arr)

    @classmethod
    def _make(cls, fields) -> CovarianceMatrix:
        return cls(*fields)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2

    def mode_block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling modes i and j."""
        return self.data[2 * i:2 * i + 2, 2 * j:2 * j + 2]


class EntanglementReport(NamedTuple):
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


def _symplectic_spectrum(v: np.ndarray) -> float:
    """Symplectic eigenvalue nu of a positive-definite 2x2 array.

    Computed as the modulus of the eigenvalues of i*Omega*V. Those come as a
    conjugate pair (+/- i*nu); the pair is averaged to wash out the slight
    asymmetry of the nonsymmetric eigensolve. It runs once per report, on
    mode B's block (:func:`entdist.protocols._run`).
    """
    import numpy as np
    if float(np.linalg.eigvalsh(v)[0]) <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    moduli = np.abs(np.linalg.eigvals(_one_mode_form() @ v))
    return float(0.5 * (moduli[0] + moduli[1]))


def h(nu: float) -> float:
    """Entropy contribution of one symplectic eigenvalue, in nats.

    Values in [1 - PHYSICAL_NU_TOL, 1] count as the nu = 1 limit and give 0
    exactly; anything below 1 - PHYSICAL_NU_TOL is rejected as unphysical, and
    so is a non-finite value. Above 1, with up = (nu + 1)/2 = 1 + dn,
    h = up*ln(up) - dn*ln(dn) is evaluated as up*log1p(dn) - dn*ln(dn) below
    nu = 3, two terms of one sign, and as ln(dn) + up*log1p(1/dn) from 3 on,
    where those two terms would cancel more and more as nu grows; neither
    cancels, so h is as accurate next to 1 as anywhere.
    """
    if not 1.0 - PHYSICAL_NU_TOL <= nu < math.inf:  # nan fails too
        raise DomainError(f"symplectic eigenvalue must be finite and >= 1, got {nu}")
    if nu <= 1.0:
        return 0.0
    up, dn = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    if nu >= 3.0:
        return math.log(dn) + up * math.log1p(1.0 / dn)
    return up * math.log1p(dn) - dn * math.log(dn)


def log_negativity(pts_min: float) -> float:
    """max{0, -ln(pts_min)}: zero exactly when the PTS eigenvalue is >= 1."""
    if not pts_min > 0.0:  # nan fails too
        raise DomainError(f"PTS eigenvalue must be positive, got {pts_min}")
    return max(0.0, -math.log(pts_min))


def _report_with_pts(eps: float, spectrum: tuple[float, float], nu_b: float
                     ) -> EntanglementReport:
    """The report on a two-mode state toward mode B, given its PTS eigenvalue
    `eps`, its symplectic `spectrum`, sorted descending, and mode B's
    symplectic eigenvalue `nu_b`.

    The coherent information S(B) - S(AB) sums :func:`h` at its own fixed
    windows, one rule for every eigenvalue. A window scaled by the entries of
    mode B's block would buy nothing: on the runners' outputs nu_b is at least
    that block's largest entry over sqrt(2), so the block's rounding is a few
    ulps of nu_b, as the closed-form spectrum's is of each nu.
    """
    return EntanglementReport(
        pts_min=eps,
        log_negativity=log_negativity(eps),
        coherent_info=h(nu_b) - sum(map(h, spectrum)),
        symplectic_spectrum=spectrum,
    )
