"""Generic symplectic algebra and the finite-mu symplectic pipelines.

These are the independent references that the tests compare entdist's closed
forms against: the mode count and the 2x2 blocks of a covariance matrix, the
symplectic form, the symplectic spectrum of a covariance matrix, partial
transposition and trace, the von Neumann entropy and the entanglement report
of any bipartition built from them, beam splitters,
symplectic conjugation, homodyne conditioning and the two-mode closed-form
spectrum, the EPR and environment input states, the pipelines that build each
protocol's output state from them (beam splitters, partial traces, homodyne
conditioning), the leading-order direct spectrum that the finite-mu
spectrum converges to, and the readers that take the remote EPR variances and
the determinant form of the coherent information off a two-mode output. The
package itself never runs them. The module's name keeps pytest from collecting
it; tests import it as they import ``conftest``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from entdist import (
    CovarianceMatrix,
    DomainError,
    EntanglementReport,
    EnvironmentParams,
    EprVariances,
    h,
    log_negativity,
)
from entdist.environment import require_bona_fide, require_variance
from entdist.symplectic import PHYSICAL_NU_TOL

SYMPLECTIC_ATOL = 1e-10
PINV_CUTOFF = 1e-12
ENTROPY_NU_ONE_TOL = 1e-11  # nu = 1 window of von_neumann_entropy per unit of matrix magnitude

_I2 = np.eye(2)
_Z = np.diag([1.0, -1.0])


# ---------------------------------------------------------------------------
# generic symplectic algebra
# ---------------------------------------------------------------------------

def n_modes(cm: CovarianceMatrix) -> int:
    return cm.data.shape[0] // 2


def mode_block(cm: CovarianceMatrix, i: int, j: int) -> np.ndarray:
    """2x2 block coupling modes i and j."""
    return cm.data[2 * i:2 * i + 2, 2 * j:2 * j + 2]


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Mode-major symplectic form: direct sum of n blocks [[0, 1], [-1, 0]].

    Built once per mode count and shared, so the array is read-only.
    """
    if n_modes < 1:
        raise DomainError(f"need at least one mode, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    omega.flags.writeable = False
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


def _checked_modes(modes: Iterable[int], n_modes: int) -> list[int]:
    out = sorted(set(int(m) for m in modes))
    if not out:
        raise DomainError("mode set must be nonempty")
    if out[0] < 0 or out[-1] >= n_modes:
        raise DomainError(f"mode indices {out} out of range for {n_modes} modes")
    return out


def symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of a positive-definite CM, sorted descending.

    Computed as the moduli of the eigenvalues of i*Omega*V. Those come in
    conjugate pairs (+/- i*nu); the pairs are averaged to wash out the slight
    asymmetry of the nonsymmetric eigensolve.
    """
    v = cm.data
    if float(np.linalg.eigvalsh(v)[0]) <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    moduli = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n_modes(cm)) @ v)))
    nus = 0.5 * (moduli[0::2] + moduli[1::2])
    return nus[::-1].copy()


def partial_transpose(cm: CovarianceMatrix, modes: Iterable[int]) -> CovarianceMatrix:
    """Flip p -> -p on the given modes (conjugation by the per-mode reflection)."""
    modes = _checked_modes(modes, n_modes(cm))
    flip = np.ones(2 * n_modes(cm))
    for m in modes:
        flip[2 * m + 1] = -1.0
    return CovarianceMatrix(cm.data * np.outer(flip, flip))


def pts_min_eigenvalue(cm: CovarianceMatrix, partition: Iterable[int]) -> float:
    """Smallest symplectic eigenvalue after partial transposition of `partition`.

    The bipartition must be proper: transposing nothing or everything leaves
    the spectrum unchanged and would certify nothing.
    """
    modes = _checked_modes(partition, n_modes(cm))
    if len(modes) == n_modes(cm):
        raise DomainError("partition must leave at least one mode untransposed")
    return float(symplectic_eigenvalues(partial_transpose(cm, modes))[-1])


def partial_trace(cm: CovarianceMatrix, drop: Iterable[int]) -> CovarianceMatrix:
    """Discard the listed modes (delete their rows and columns)."""
    drop_modes = _checked_modes(drop, n_modes(cm))
    if len(drop_modes) == n_modes(cm):
        raise DomainError("cannot trace out every mode")
    idx = [i for m in drop_modes for i in (2 * m, 2 * m + 1)]
    v = np.delete(np.delete(cm.data, idx, axis=0), idx, axis=1)
    return CovarianceMatrix(v)


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """Entropy of a Gaussian state in nats; zero exactly for pure states.

    The physicality and nu = 1 windows are scaled by M, the largest entry
    magnitude floored at 1: eigenvalues of a covariance matrix with entries of
    size M carry absolute errors of order M (and worse near degeneracies), so
    h's fixed windows would misclassify large pure states as unphysical. So
    any nu <= 1 + 1e-11*M counts as 1 and contributes 0, and any nu below
    1 - 1e-9*M is refused.
    """
    scale = max(float(np.abs(cm.data).max()), 1.0)
    total = 0.0
    for nu in symplectic_eigenvalues(cm).tolist():
        if not nu >= 1.0 - PHYSICAL_NU_TOL * scale:  # nan fails too; h refuses inf
            raise DomainError(f"symplectic eigenvalue must be finite and >= 1, got {nu}")
        if nu > 1.0 + ENTROPY_NU_ONE_TOL * scale:
            total += h(nu)
    return total


def reference_report(cm: CovarianceMatrix, partition: Iterable[int]) -> EntanglementReport:
    """The entanglement report of the bipartition (rest | partition) from the
    matrix operations above: the PTS eigenvalue of the partially transposed
    CM, and the coherent information toward the partition,
    S(partition) - S(all), from the partial trace to the partition."""
    eps = pts_min_eigenvalue(cm, partition)
    keep = _checked_modes(partition, n_modes(cm))
    reduced = partial_trace(cm, drop=[m for m in range(n_modes(cm)) if m not in keep])
    return EntanglementReport(
        pts_min=eps,
        log_negativity=log_negativity(eps),
        coherent_info=von_neumann_entropy(reduced) - von_neumann_entropy(cm),
        symplectic_spectrum=tuple(symplectic_eigenvalues(cm).tolist()),
    )


def symplectic_eigenvalues_two_mode(cm: CovarianceMatrix) -> np.ndarray:
    """Closed-form spectrum of a two-mode CM; cross-check for the generic path.

    With Delta = det A + det B + 2 det C the eigenvalues are
    nu_-^2 = 2 det V / (Delta + sqrt(Delta^2 - 4 det V)) and
    nu_+^2 = (Delta + sqrt(Delta^2 - 4 det V)) / 2; the first form avoids the
    cancellation that would otherwise wipe out the small eigenvalue for
    strongly squeezed states.
    """
    if n_modes(cm) != 2:
        raise DomainError(f"closed formula needs exactly 2 modes, got {n_modes(cm)}")
    det_a = float(np.linalg.det(mode_block(cm, 0, 0)))
    det_b = float(np.linalg.det(mode_block(cm, 1, 1)))
    det_c = float(np.linalg.det(mode_block(cm, 0, 1)))
    det_v = float(np.linalg.det(cm.data))
    if det_v <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    delta = det_a + det_b + 2.0 * det_c
    disc = max(delta * delta - 4.0 * det_v, 0.0)
    big = (delta + math.sqrt(disc)) / 2.0
    return np.array([math.sqrt(big), math.sqrt(det_v / big)])


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
        if not 0 <= m < n_modes(cm):
            raise DomainError(f"mode index {m} out of range for {n_modes(cm)} modes")
    full = np.eye(2 * n_modes(cm))
    s = transform.matrix
    for a, ma in enumerate(modes):
        for b, mb in enumerate(modes):
            full[2 * ma:2 * ma + 2, 2 * mb:2 * mb + 2] = s[2 * a:2 * a + 2, 2 * b:2 * b + 2]
    return CovarianceMatrix(full @ cm.data @ full.T)


def homodyne_condition(cm: CovarianceMatrix, mode: int, quadrature: str) -> CovarianceMatrix:
    """Condition the remaining modes on an ideal homodyne detection of `mode`.

    Gaussian conditioning is outcome-independent, so the result is just the
    Schur complement A - C (Pi B Pi)^+ C^T with Pi projecting onto the
    measured quadrature. The measured block is rank one, so its pseudo-inverse
    reduces to 1/variance, guarded by an absolute 1e-12 cutoff.
    """
    if quadrature not in ("q", "p"):
        raise DomainError(f"quadrature must be 'q' or 'p', got {quadrature!r}")
    if not 0 <= mode < n_modes(cm):
        raise DomainError(f"mode index {mode} out of range for {n_modes(cm)} modes")
    if n_modes(cm) < 2:
        raise DomainError("conditioning needs at least one unmeasured mode")
    i = 2 * mode + (0 if quadrature == "q" else 1)
    var = float(cm.data[i, i])
    if var <= PINV_CUTOFF:
        raise DomainError("measured quadrature has (numerically) zero variance")
    keep = [k for k in range(2 * n_modes(cm)) if k not in (2 * mode, 2 * mode + 1)]
    a = cm.data[np.ix_(keep, keep)]
    c = cm.data[np.ix_(keep, [i])]
    return CovarianceMatrix(a - (c @ c.T) / var)


# ---------------------------------------------------------------------------
# input states
# ---------------------------------------------------------------------------

def make_epr_cm(mu: float) -> CovarianceMatrix:
    """CM of a two-mode squeezed vacuum with quadrature variance mu >= 1.

    Diagonal blocks mu*I, off-diagonal blocks sqrt(mu^2 - 1)*Z with
    Z = diag(1, -1); pure for every mu, maximally correlated as mu grows.
    """
    require_variance("mu", mu)
    c = math.sqrt(mu * mu - 1.0)
    return CovarianceMatrix(np.block([[mu * _I2, c * _Z], [c * _Z, mu * _I2]]))


def make_env_cm(omega: float, g: float, gp: float) -> CovarianceMatrix:
    """CM of the correlated two-mode environment, [[omega*I, G], [G, omega*I]]
    with G = diag(g, gp). Raises DomainError naming the violated bona-fide
    condition for unphysical parameters."""
    require_bona_fide(omega, g, gp)
    corr = np.diag([g, gp])
    return CovarianceMatrix(np.block([[omega * _I2, corr], [corr, omega * _I2]]))


def direct_spectrum_asymptotic(env: EnvironmentParams, mu: float) -> tuple[float, float]:
    """Leading-order symplectic spectrum (nu_plus, nu_minus) of the direct output.

    nu_+- = sqrt((2*omega + gp - g +- |g + gp|) * (1 - tau) * tau * mu); their
    product equals 2*tau*mu times the asymptotic PTS eigenvalue.
    """
    require_variance("mu", mu)
    base = (1.0 - env.tau) * env.tau * mu
    shift = abs(env.g + env.gp)
    mid = 2.0 * env.omega + env.gp - env.g
    return (math.sqrt((mid + shift) * base), math.sqrt((mid - shift) * base))


# ---------------------------------------------------------------------------
# protocol pipelines
# ---------------------------------------------------------------------------

def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Square blocks placed along the diagonal of a zero matrix."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    start = 0
    for b in blocks:
        out[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return out


def direct_output_pipeline(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Finite-mu route: EPR x environment, one beam splitter per arm, trace ancillas."""
    require_variance("mu", mu)
    joint = CovarianceMatrix(_block_diag(
        make_epr_cm(mu).data,
        make_env_cm(env.omega, env.g, env.gp).data,
    ))
    bs = beam_splitter(env.tau)
    out = apply_symplectic(joint, bs, (0, 2))
    out = apply_symplectic(out, bs, (1, 3))
    return partial_trace(out, drop=(2, 3))


def one_mode_output_pipeline(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Keep mode A, send mode B through a single lossy arm (thermal ancilla only)."""
    require_variance("mu", mu)
    joint = CovarianceMatrix(_block_diag(make_epr_cm(mu).data, env.omega * _I2))
    out = apply_symplectic(joint, beam_splitter(env.tau), (1, 2))
    return partial_trace(out, drop=(2,))


def _bell_measure(cm: CovarianceMatrix, modes: tuple[int, int]) -> CovarianceMatrix:
    """Balanced beam splitter on `modes`, then conjugate homodynes.

    The first output port carries the sum quadratures and is measured in p,
    the second carries the (sign-flipped) difference and is measured in q;
    the sign does not matter because the conditional CM is outcome-independent.
    """
    i, j = modes
    if not i < j:
        raise DomainError("bell measurement modes must be given in increasing order")
    mixed = apply_symplectic(cm, beam_splitter(0.5), (i, j))
    conditioned = homodyne_condition(mixed, mode=j, quadrature="q")
    return homodyne_condition(conditioned, mode=i, quadrature="p")


def swap_noiseless_pipeline(mu: float) -> CovarianceMatrix:
    """Oracle route for the noiseless swap: EPR x EPR, Bell measurement on the
    travelling modes (modes a=0, A=1, B=2, b=3)."""
    require_variance("mu", mu)
    epr = make_epr_cm(mu).data
    joint = CovarianceMatrix(_block_diag(epr, epr))
    return _bell_measure(joint, (1, 2))


def _swap_arms(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """6-mode state (a, A, B, b, E1, E2), lossy mixing of the travelling modes
    with the correlated ancillas, ancillas traced out: modes (a, A, B, b)."""
    require_variance("mu", mu)
    epr = make_epr_cm(mu).data
    joint = CovarianceMatrix(_block_diag(
        epr,                                          # a = 0, A = 1
        epr,                                          # B = 2, b = 3
        make_env_cm(env.omega, env.g, env.gp).data,   # E1 = 4, E2 = 5
    ))
    bs = beam_splitter(env.tau)
    out = apply_symplectic(joint, bs, (1, 4))
    out = apply_symplectic(out, bs, (2, 5))
    return partial_trace(out, drop=(4, 5))


def swap_conditional_pipeline(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Oracle route: the lossy arms of :func:`_swap_arms`, then the Bell measurement."""
    return _bell_measure(_swap_arms(mu, env), (1, 2))


def bell_port_variances(mu: float, env: EnvironmentParams) -> tuple[float, float]:
    """Variances that the Bell measurement reads after the balanced beam
    splitter: q of the difference port and p of the sum port, as measured by
    :func:`_bell_measure`."""
    mixed = apply_symplectic(_swap_arms(mu, env), beam_splitter(0.5), (1, 2))
    return float(mixed.data[4, 4]), float(mixed.data[3, 3])


# ---------------------------------------------------------------------------
# readers of a two-mode output
# ---------------------------------------------------------------------------

def epr_variances_from_cm(cm: CovarianceMatrix) -> EprVariances:
    """Read the remote EPR variances off a two-mode CM as quadratic forms."""
    if n_modes(cm) != 2:
        raise DomainError(f"EPR variances need exactly 2 modes, got {n_modes(cm)}")
    v = cm.data
    vq = 0.5 * (v[0, 0] + v[2, 2] - 2.0 * v[0, 2])
    vp = 0.5 * (v[1, 1] + v[3, 3] + 2.0 * v[1, 3])
    return EprVariances(float(vq), float(vp))


def swap_coherent_info_determinant(cm: CovarianceMatrix) -> float:
    """Determinant form ln((2/e) sqrt(det V_b / det V_ab)) of the remote
    coherent information; agrees with the entropy difference at large mu."""
    if n_modes(cm) != 2:
        raise DomainError(f"determinant form needs exactly 2 modes, got {n_modes(cm)}")
    sign_b, logdet_b = np.linalg.slogdet(mode_block(cm, 1, 1))
    sign_ab, logdet_ab = np.linalg.slogdet(cm.data)
    if sign_b <= 0.0 or sign_ab <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    return math.log(2.0) - 1.0 + 0.5 * (float(logdet_b) - float(logdet_ab))
