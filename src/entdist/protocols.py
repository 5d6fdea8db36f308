"""Direct and swap-based entanglement distribution through the correlated environment.

The evaluators are closed forms: the finite-mu output covariance matrices and
their large-mu asymptotics. The symplectic pipelines that build the same
states from beam splitters, partial traces and homodyne conditioning live with
the tests, in ``tests/gaussian_reference.py``, as independent references.

Every evaluator takes an :class:`~entdist.environment.EnvironmentParams`, which
is physical by construction, so none of them re-checks the environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .environment import EnvironmentParams, require_variance
from .errors import DomainError
from .symplectic import CovarianceMatrix, EntanglementReport, entanglement_report


class Protocol(Enum):
    DIRECT = "Direct"
    SWAP = "Swap"
    ENVIRONMENT_ONLY = "EnvironmentOnly"


@dataclass(frozen=True)
class ProtocolResult:
    """Finite-mu output state and report, with large-mu reference values attached."""

    output_cm: CovarianceMatrix
    report: EntanglementReport
    asymptotic_eps: float
    asymptotic_coherent_info: float


@dataclass(frozen=True)
class EprVariances:
    """Variances of the remote difference/sum quadratures (q_a - q_b)/sqrt(2)
    and (p_a + p_b)/sqrt(2)."""

    v_qminus: float
    v_pplus: float

    def epr_correlated(self) -> bool:
        """True when both variances beat the vacuum benchmark of 1."""
        return self.v_qminus < 1.0 and self.v_pplus < 1.0


def _qp_cm(a, b, c) -> CovarianceMatrix:
    """Two-mode CM with no q-p correlations, [[diag(a), diag(c)], [diag(c), diag(b)]],
    from the (q, p) pairs a and b of the two modes and c between them."""
    (a_q, a_p), (b_q, b_p), (c_q, c_p) = a, b, c
    return CovarianceMatrix(np.array([[a_q, 0.0, c_q, 0.0],
                                      [0.0, a_p, 0.0, c_p],
                                      [c_q, 0.0, b_q, 0.0],
                                      [0.0, c_p, 0.0, b_p]]))


# ---------------------------------------------------------------------------
# direct distribution
# ---------------------------------------------------------------------------

def direct_output_cm(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Two-mode output of the direct protocol, tau * V_in + (1 - tau) * V_env:
    [[x I, C], [C, x I]] with x = tau*mu + (1 - tau)*omega and
    C = tau*sqrt(mu^2 - 1)*Z + (1 - tau)*diag(g, gp), Z = diag(1, -1)."""
    require_variance("mu", mu)
    t1 = 1.0 - env.tau
    x = env.tau * mu + t1 * env.omega
    c = env.tau * math.sqrt(mu * mu - 1.0)
    return _qp_cm((x, x), (x, x), (c + t1 * env.g, -c + t1 * env.gp))


_DIRECT, _SWAP = Protocol.DIRECT, Protocol.SWAP


def large_mu_eps_scale(tau, protocol: Protocol):
    """The factor of :func:`large_mu_eps`: 1 - tau for DIRECT, (1 - tau)/tau for SWAP;
    DomainError for any other value, ENVIRONMENT_ONLY included."""
    if protocol is _DIRECT:
        return 1.0 - tau
    if protocol is _SWAP:
        return (1.0 - tau) / tau
    raise DomainError(f"large-mu eps needs the DIRECT or SWAP protocol, got {protocol!r}")


def large_mu_eps(tau, omega, g, gp, protocol: Protocol):
    """Large-mu PTS eigenvalue (1 - tau) * sqrt((omega - g) * (omega + gp)) of the
    direct output, divided by tau for the swapped state; unvalidated, elementwise.
    NaN where the product is negative: float scalars take math.sqrt, with no
    warning; arrays take np.sqrt, which warns there unless np.errstate hides it."""
    scale, radicand = large_mu_eps_scale(tau, protocol), (omega - g) * (omega + gp)
    if isinstance(radicand, float):
        return scale * (math.sqrt(radicand) if not radicand < 0.0 else math.nan)
    return scale * np.sqrt(radicand)


def direct_eps_asymptotic(env: EnvironmentParams) -> float:
    """Large-mu PTS eigenvalue of the direct output, :func:`large_mu_eps`."""
    return float(large_mu_eps(env.tau, env.omega, env.g, env.gp, Protocol.DIRECT))


def coherent_info_asymptotic(eps: float) -> float:
    """ln(1/(e * eps)); positive exactly when eps < 1/e."""
    if not 0.0 < eps < math.inf:  # nan fails too
        raise DomainError(f"PTS eigenvalue must be positive and finite, got {eps}")
    return -1.0 - math.log(eps)


# ---------------------------------------------------------------------------
# entanglement swapping
# ---------------------------------------------------------------------------

def swap_conditional_cm(mu: float, env: EnvironmentParams) -> CovarianceMatrix:
    """Closed-form remote CM after the Bell measurement through the noisy arms.

    mu*I minus a rank-two correction (mu^2 - 1)*tau/2 scaled by the inverse
    variances of the homodyned Bell ports, the difference port in q and the sum
    port in p; q entries anticorrelate the remote modes, p entries correlate them.
    """
    require_variance("mu", mu)
    var_q = env.tau * mu + (1.0 - env.tau) * (env.omega - env.g)
    var_p = env.tau * mu + (1.0 - env.tau) * (env.omega + env.gp)
    s = (mu * mu - 1.0) * env.tau / 2.0
    a = (mu - s * (1.0 / var_q), mu - s * (1.0 / var_p))
    # 0.0 - x, as in mu*I - s*K: +0.0, not -0.0, at mu = 1
    return _qp_cm(a, a, (s * (1.0 / var_q), 0.0 - s * (1.0 / var_p)))


def swap_eps_asymptotic(env: EnvironmentParams) -> float:
    """Large-mu PTS eigenvalue of the swapped state, :func:`large_mu_eps`."""
    return float(large_mu_eps(env.tau, env.omega, env.g, env.gp, Protocol.SWAP))


def swap_epr_variances_asymptotic(env: EnvironmentParams) -> EprVariances:
    """Large-mu remote EPR variances ((1 - tau)/tau) * (omega - g, omega + gp)."""
    f = large_mu_eps_scale(env.tau, Protocol.SWAP)
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

def _run(cm: CovarianceMatrix, eps_inf: float) -> ProtocolResult:
    """Report on `cm` with partition/coherent info toward mode 1, plus the
    large-mu reference values of PTS eigenvalue `eps_inf`."""
    return ProtocolResult(
        output_cm=cm,
        report=entanglement_report(cm, partition=(1,)),
        asymptotic_eps=eps_inf,
        asymptotic_coherent_info=coherent_info_asymptotic(eps_inf),
    )


def run_direct(mu: float, env: EnvironmentParams) -> ProtocolResult:
    """Direct protocol at finite mu; partition/coherent info toward mode B."""
    return _run(direct_output_cm(mu, env), direct_eps_asymptotic(env))


def run_swap(mu: float, env: EnvironmentParams) -> ProtocolResult:
    """Swapping protocol at finite mu; partition/coherent info toward mode b."""
    return _run(swap_conditional_cm(mu, env), swap_eps_asymptotic(env))
