"""Direct and swap-based entanglement distribution through the correlated environment.

Each protocol is available along two independent routes: a finite-mu
symplectic pipeline (beam splitters, partial traces, homodyne conditioning)
and a closed-form evaluator. The closed forms carry the large-mu asymptotics;
the pipelines are the oracle that keeps them honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .environment import EnvironmentParams, require_bona_fide
from .errors import DomainError
from .symplectic import (
    CovarianceMatrix,
    EntanglementReport,
    apply_symplectic,
    beam_splitter,
    entanglement_report,
    homodyne_condition,
    make_env_cm,
    make_epr_cm,
    partial_trace,
)

_I2 = np.eye(2)
_Z = np.diag([1.0, -1.0])

# closed form and pipeline must agree to this relative tolerance
_ORACLE_RTOL = 1e-10


@dataclass(frozen=True)
class ProtocolResult:
    """Finite-mu output state and report, with large-mu reference values attached."""

    output_cm: CovarianceMatrix
    report: EntanglementReport
    asymptotic_eps: float | None = None
    asymptotic_coherent_info: float | None = None


@dataclass(frozen=True)
class EprVariances:
    """Variances of the remote difference/sum quadratures (q_a - q_b)/sqrt(2)
    and (p_a + p_b)/sqrt(2)."""

    v_qminus: float
    v_pplus: float

    def epr_correlated(self) -> bool:
        """True when both variances beat the vacuum benchmark of 1."""
        return self.v_qminus < 1.0 and self.v_pplus < 1.0


def _require_env(env: EnvironmentParams) -> None:
    require_bona_fide(env.omega, env.g, env.gp)


def _require_mu(mu: float) -> None:
    if mu < 1.0:
        raise DomainError(f"input EPR variance must be >= 1, got {mu}")


def _check_oracle(closed: CovarianceMatrix, piped: CovarianceMatrix, label: str) -> None:
    scale = float(np.abs(closed.data).max())
    gap = float(np.abs(closed.data - piped.data).max())
    assert gap <= _ORACLE_RTOL * scale, (
        f"{label}: pipeline and closed form disagree by {gap} (scale {scale})"
    )


# ---------------------------------------------------------------------------
# direct distribution
# ---------------------------------------------------------------------------

def direct_output_pipeline(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Finite-mu route: EPR x environment, one beam splitter per arm, trace ancillas."""
    _require_mu(mu)
    joint = CovarianceMatrix(block_diag(
        make_epr_cm(mu).data,
        make_env_cm(env.omega, env.g, env.gp).data,
    ))
    bs = beam_splitter(env.tau)
    out = apply_symplectic(joint, bs, (0, 2))
    out = apply_symplectic(out, bs, (1, 3))
    return partial_trace(out, drop=(2, 3))


def direct_output_closed(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Closed form tau * V_in + (1 - tau) * V_env of the two-mode output."""
    _require_mu(mu)
    v_in = make_epr_cm(mu).data
    v_env = make_env_cm(env.omega, env.g, env.gp).data
    return CovarianceMatrix(env.tau * v_in + (1.0 - env.tau) * v_env)


def direct_output_cm(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Two-mode output of the direct protocol, with the two routes cross-checked."""
    closed = direct_output_closed(mu, env)
    piped = direct_output_pipeline(mu, env)
    _check_oracle(closed, piped, "direct output")
    return closed


def one_mode_output_pipeline(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Keep mode A, send mode B through a single lossy arm (thermal ancilla only)."""
    _require_mu(mu)
    joint = CovarianceMatrix(block_diag(make_epr_cm(mu).data, env.omega * _I2))
    out = apply_symplectic(joint, beam_splitter(env.tau), (1, 2))
    return partial_trace(out, drop=(2,))


def one_mode_output_closed(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Closed form [[mu I, mu' sqrt(tau) Z], [mu' sqrt(tau) Z, x I]] with
    x = tau*mu + (1 - tau)*omega."""
    _require_mu(mu)
    x = env.tau * mu + (1.0 - env.tau) * env.omega
    c = math.sqrt(mu * mu - 1.0) * math.sqrt(env.tau)
    return CovarianceMatrix(np.block([[mu * _I2, c * _Z], [c * _Z, x * _I2]]))


def one_mode_output_cm(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Output when only mode B is transmitted, with the two routes cross-checked."""
    closed = one_mode_output_closed(mu, env)
    piped = one_mode_output_pipeline(mu, env)
    _check_oracle(closed, piped, "one-mode output")
    return closed


def large_mu_eps(tau, omega, g, gp, swap: bool = False):
    """Large-mu PTS eigenvalue (1 - tau) * sqrt((omega - g) * (omega + gp)) of the
    direct output, divided by tau for the swapped state; unvalidated, elementwise."""
    scale = (1.0 - tau) / tau if swap else 1.0 - tau
    return scale * np.sqrt((omega - g) * (omega + gp))


def direct_eps_asymptotic(env: EnvironmentParams) -> float:
    """Large-mu PTS eigenvalue of the direct output, :func:`large_mu_eps`."""
    _require_env(env)
    return float(large_mu_eps(env.tau, env.omega, env.g, env.gp))


def direct_spectrum_asymptotic(env: EnvironmentParams, mu: float) -> tuple[float, float]:
    """Leading-order symplectic spectrum (nu_plus, nu_minus) of the direct output.

    nu_+- = sqrt((2*omega + gp - g +- |g + gp|) * (1 - tau) * tau * mu); their
    product equals 2*tau*mu times the asymptotic PTS eigenvalue.
    """
    _require_env(env)
    _require_mu(mu)
    base = (1.0 - env.tau) * env.tau * mu
    shift = abs(env.g + env.gp)
    mid = 2.0 * env.omega + env.gp - env.g
    return (math.sqrt((mid + shift) * base), math.sqrt((mid - shift) * base))


def coherent_info_asymptotic(eps: float) -> float:
    """ln(1/(e * eps)); positive exactly when eps < 1/e."""
    if eps <= 0.0:
        raise DomainError(f"PTS eigenvalue must be positive, got {eps}")
    return -1.0 - math.log(eps)


# ---------------------------------------------------------------------------
# entanglement swapping
# ---------------------------------------------------------------------------

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


def swap_noiseless_cm(mu: float) -> CovarianceMatrix:
    """Remote CM after an ideal Bell measurement on two EPR halves.

    (1/2mu) * [[(mu^2+1) I, (mu^2-1) Z], [(mu^2-1) Z, (mu^2+1) I]]; its PTS
    eigenvalue is 1/mu and both remote EPR variances equal 1/mu.
    """
    _require_mu(mu)
    a = (mu * mu + 1.0) / (2.0 * mu)
    c = (mu * mu - 1.0) / (2.0 * mu)
    return CovarianceMatrix(np.block([[a * _I2, c * _Z], [c * _Z, a * _I2]]))


def swap_noiseless_pipeline(mu: float) -> CovarianceMatrix:
    """Oracle route for the noiseless swap: EPR x EPR, Bell measurement on the
    travelling modes (modes a=0, A=1, B=2, b=3)."""
    _require_mu(mu)
    epr = make_epr_cm(mu).data
    joint = CovarianceMatrix(block_diag(epr, epr))
    return _bell_measure(joint, (1, 2))


def bell_port_variances(mu: float, env: EnvironmentParams) -> tuple[float, float]:
    """Variances of the two homodyned Bell-port quadratures.

    The difference port sees tau*mu + (1 - tau)*(omega - g) in q and the sum
    port tau*mu + (1 - tau)*(omega + gp) in p; both divide the conditioning
    correction of the remote state.
    """
    return (
        env.tau * mu + (1.0 - env.tau) * (env.omega - env.g),
        env.tau * mu + (1.0 - env.tau) * (env.omega + env.gp),
    )


def swap_conditional_cm(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Closed-form remote CM after the Bell measurement through the noisy arms.

    mu*I minus a rank-two correction (mu^2 - 1)*tau/2 scaled by the inverse
    Bell-port variances; q entries anticorrelate the remote modes, p entries
    correlate them.
    """
    _require_mu(mu)
    _require_env(env)
    var_q, var_p = bell_port_variances(mu, env)
    k = np.zeros((4, 4))
    k[0, 0] = k[2, 2] = 1.0 / var_q
    k[0, 2] = k[2, 0] = -1.0 / var_q
    k[1, 1] = k[3, 3] = 1.0 / var_p
    k[1, 3] = k[3, 1] = 1.0 / var_p
    return CovarianceMatrix(mu * np.eye(4) - ((mu * mu - 1.0) * env.tau / 2.0) * k)


def swap_conditional_pipeline(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Oracle route: 6-mode state (a, A, B, b, E1, E2), lossy mixing of the
    travelling modes with the correlated ancillas, then the Bell measurement."""
    _require_mu(mu)
    epr = make_epr_cm(mu).data
    joint = CovarianceMatrix(block_diag(
        epr,                                          # a = 0, A = 1
        epr,                                          # B = 2, b = 3
        make_env_cm(env.omega, env.g, env.gp).data,   # E1 = 4, E2 = 5
    ))
    bs = beam_splitter(env.tau)
    out = apply_symplectic(joint, bs, (1, 4))
    out = apply_symplectic(out, bs, (2, 5))
    out = partial_trace(out, drop=(4, 5))
    return _bell_measure(out, (1, 2))


def swap_eps_asymptotic(env: EnvironmentParams) -> float:
    """Large-mu PTS eigenvalue of the swapped state, :func:`large_mu_eps` with ``swap``."""
    _require_env(env)
    return float(large_mu_eps(env.tau, env.omega, env.g, env.gp, swap=True))


def swap_epr_variances_asymptotic(env: EnvironmentParams) -> EprVariances:
    """Large-mu remote EPR variances ((1 - tau)/tau) * (omega - g, omega + gp)."""
    _require_env(env)
    f = (1.0 - env.tau) / env.tau
    return EprVariances(f * (env.omega - env.g), f * (env.omega + env.gp))


def epr_variances_from_cm(cm: CovarianceMatrix) -> EprVariances:
    """Read the remote EPR variances off a two-mode CM as quadratic forms."""
    if cm.n_modes != 2:
        raise DomainError(f"EPR variances need exactly 2 modes, got {cm.n_modes}")
    v = cm.data
    vq = 0.5 * (v[0, 0] + v[2, 2] - 2.0 * v[0, 2])
    vp = 0.5 * (v[1, 1] + v[3, 3] + 2.0 * v[1, 3])
    return EprVariances(float(vq), float(vp))


def swap_coherent_info_determinant(cm: CovarianceMatrix) -> float:
    """Determinant form ln((2/e) sqrt(det V_b / det V_ab)) of the remote
    coherent information; agrees with the entropy difference at large mu."""
    if cm.n_modes != 2:
        raise DomainError(f"determinant form needs exactly 2 modes, got {cm.n_modes}")
    sign_b, logdet_b = np.linalg.slogdet(cm.mode_block(1, 1))
    sign_ab, logdet_ab = np.linalg.slogdet(cm.data)
    if sign_b <= 0.0 or sign_ab <= 0.0:
        raise DomainError("covariance matrix is not positive-definite")
    return math.log(2.0) - 1.0 + 0.5 * (float(logdet_b) - float(logdet_ab))


# ---------------------------------------------------------------------------
# protocol runners
# ---------------------------------------------------------------------------

def run_direct(mu: float, env: EnvironmentParams) -> ProtocolResult:
    """Direct protocol at finite mu; partition/coherent info toward mode B."""
    cm = direct_output_cm(mu, env)
    eps_inf = direct_eps_asymptotic(env)
    return ProtocolResult(
        output_cm=cm,
        report=entanglement_report(cm, partition=(1,)),
        asymptotic_eps=eps_inf,
        asymptotic_coherent_info=coherent_info_asymptotic(eps_inf),
    )


def run_swap(mu: float, env: EnvironmentParams) -> ProtocolResult:
    """Swapping protocol at finite mu; partition/coherent info toward mode b."""
    cm = swap_conditional_cm(mu, env)
    eps_inf = swap_eps_asymptotic(env)
    return ProtocolResult(
        output_cm=cm,
        report=entanglement_report(cm, partition=(1,)),
        asymptotic_eps=eps_inf,
        asymptotic_coherent_info=coherent_info_asymptotic(eps_inf),
    )
