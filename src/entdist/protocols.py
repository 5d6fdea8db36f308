"""Direct and swap-based entanglement distribution through the correlated environment.

The evaluators are closed forms: the finite-mu output covariance matrices, the
PTS eigenvalue of each output, and their large-mu asymptotics. The symplectic
pipelines that build the same states from beam splitters, partial traces and
homodyne conditioning live with the tests, in ``tests/gaussian_reference.py``,
as independent references, beside the readers that take the EPR variances and
the determinant form of the coherent information off a matrix.

Every evaluator takes an :class:`~entdist.environment.EnvironmentParams`, which
is physical by construction, so none of them re-checks the environment.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import symplectic
from .environment import EnvironmentParams, require_variance, rising
from .errors import DomainError
from .symplectic import CovarianceMatrix, EntanglementReport, h, log_negativity


class Protocol(Enum):
    DIRECT = "Direct"
    SWAP = "Swap"
    ENVIRONMENT_ONLY = "EnvironmentOnly"


class Activation(Enum):
    """What the large-mu PTS eigenvalue eps of an output certifies.

    - ``ENTANGLING``, eps < 1: the two-mode Gaussian output has a negative
      partial transpose, so it is distillable with two-way LOCC (Giedke et
      al., Quantum Inf. Comput. 1, 79 (2001));
    - ``DISTILLABLE``, eps < :data:`DISTILLABLE_EPS` = 1/e: the coherent
      information I_C = -1 - ln(eps) is positive, and max(0, I_C) <= E_D is
      the one-way hashing bound (Devetak and Winter, Proc. R. Soc. A 461, 207
      (2005)).

    From above, E_D <= E_N = max(0, -ln(eps)), the log-negativity (Vidal and
    Werner, Phys. Rev. A 65, 032314 (2002)); at large mu the bracket is one
    nat wide.
    """

    NONE = "None"
    ENTANGLING = "Entangling"
    DISTILLABLE = "Distillable"


# a large-mu eps below 1 entangles; below 1/e the coherent information is positive
DISTILLABLE_EPS = math.exp(-1.0)


class ProtocolResult(NamedTuple):
    """Finite-mu output state and its report; the large-mu values are
    :func:`large_mu_eps` and :func:`coherent_info_asymptotic`."""

    output_cm: CovarianceMatrix
    report: EntanglementReport


class EprVariances(NamedTuple):
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
    import numpy as np
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
    """Large-mu PTS eigenvalue (1 - tau) * sqrt(rising(omega, g, gp)) of the direct
    output, divided by tau for the swapped state; unvalidated, elementwise. NaN where
    the product is negative: int and float scalars take math.sqrt, with no warning;
    arrays take np.sqrt, which warns there unless np.errstate hides it."""
    scale, radicand = large_mu_eps_scale(tau, protocol), rising(omega, g, gp)
    if isinstance(radicand, (float, int)):
        return scale * (math.sqrt(radicand) if not radicand < 0.0 else math.nan)
    import numpy as np
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


# ---------------------------------------------------------------------------
# protocol runners
# ---------------------------------------------------------------------------

def _squared_spectra(mu: float, env: EnvironmentParams,
                     protocol: Protocol) -> tuple[float, float, float, float]:
    """(eps^2, eps^2/eps_inf^2 - 1, nu_1^2, nu_2^2) of the finite-mu output of
    `protocol`: its PTS eigenvalue squared, that square's excess over the
    large-mu value, and its two full symplectic eigenvalues squared, unsorted,
    in plain floats from the q/p factors of its covariance matrix.

    Both outputs have decoupled q and p blocks, each a symmetric circulant 2x2
    block whose eigenvectors are the sum (+) and the difference (-) mode, with
    block eigenvalues q_+, q_- and p_+, p_-. So the full symplectic
    eigenvalues squared are q_+ p_+ and q_- p_-, and the PT ones, since
    p -> -p on mode 1 swaps p_+ and p_-, are q_- p_+ and q_+ p_-. With
    t1 = 1 - tau, A = t1(w - g), B = t1(w + gp), C = t1(w + g), D = t1(w - gp):
    - DIRECT, s = mu + sqrt(mu^2 - 1): q_+ = tau*s + C, q_- = tau/s + A,
      p_+ = tau/s + B and p_- = tau*s + D. eps_inf^2 = AB, and the PT product
      q_- p_+ is AB + a(A + B + a), a = tau/s, so its excess needs no
      difference;
    - SWAP: q_+ = p_- = mu, q_- = l_q = (mu*A + tau)/(tau*mu + A) and p_+ = l_p
      likewise with B. eps_inf^2 = AB/tau^2, and l_q*l_p - AB/tau^2 factors
      as (tau^2 - AB)(tau*mu(A + B) + tau^2 + AB)/(tau^2 (tau*mu + A)(tau*mu + B)).
    Every factor is a sum of positive terms, so each result is within a few
    ulps at any mu. `mu` must be validated first: below 1 the DIRECT square
    root raises.
    """
    tau, t1 = env.tau, 1.0 - env.tau
    a, b = t1 * (env.omega - env.g), t1 * (env.omega + env.gp)
    ab = a * b
    if protocol is _DIRECT:
        s = mu + math.sqrt((mu - 1.0) * (mu + 1.0))
        x, y = tau / s, tau * s
        q_minus, p_plus = x + a, x + b
        q_plus, p_minus = y + t1 * (env.omega + env.g), y + t1 * (env.omega - env.gp)
        falling, rising = q_minus * p_plus, q_plus * p_minus
        full = (q_plus * p_plus, q_minus * p_minus)
        if falling <= rising:
            return falling, x * (a + b + x) / ab, *full
        return rising, (rising - ab) / ab, *full
    v_q, v_p = tau * mu + a, tau * mu + b
    l_q, l_p = (mu * a + tau) / v_q, (mu * b + tau) / v_p
    excess = (tau * tau - ab) / ab * ((tau * mu * (a + b) + tau * tau + ab) / (v_q * v_p))
    return min(l_q * l_p, mu * mu), excess, mu * l_p, mu * l_q


def _run(cm: CovarianceMatrix, mu: float, env: EnvironmentParams,
         protocol: Protocol) -> ProtocolResult:
    """Report on `cm`, the output of `protocol` at `mu`, with partition/coherent
    info toward mode 1.

    The PTS eigenvalue and the full symplectic spectrum are
    :func:`_squared_spectra`'s closed forms, so neither `cm` nor its partial
    transpose is diagonalized. For S(B), DIRECT's mode-1 block is x*I, so nu_B
    is its diagonal entry x; SWAP's block is diagonalized by
    :func:`~entdist.symplectic._symplectic_spectrum`, which checks that it is
    positive-definite. The coherent information S(B) - S(AB) sums
    :func:`~entdist.symplectic.h` over those three eigenvalues at h's own fixed
    windows: each is within a few ulps of its nu, nu_B too, being at least its
    block's largest entry over sqrt(2), so windows scaled by entries buy nothing.
    The closed forms and x need no positive-definiteness check: every factor is
    positive on a physical environment, x is a mean of mu and omega, both
    validated >= 1, and h refuses a nu below 1.
    """
    eps2, _, nu2_a, nu2_b = _squared_spectra(mu, env, protocol)
    eps = math.sqrt(eps2)
    spectrum = (math.sqrt(max(nu2_a, nu2_b)), math.sqrt(min(nu2_a, nu2_b)))
    nu_b = (cm.data.item(2, 2) if protocol is _DIRECT
            else symplectic._symplectic_spectrum(cm.data[2:, 2:]))
    return ProtocolResult(cm, EntanglementReport(eps, log_negativity(eps),
                                                 h(nu_b) - sum(map(h, spectrum)), spectrum))


def run_direct(mu: float, env: EnvironmentParams) -> ProtocolResult:
    """Direct protocol at finite mu; partition/coherent info toward mode B."""
    return _run(direct_output_cm(mu, env), mu, env, _DIRECT)


def run_swap(mu: float, env: EnvironmentParams) -> ProtocolResult:
    """Swapping protocol at finite mu; partition/coherent info toward mode b."""
    return _run(swap_conditional_cm(mu, env), mu, env, _SWAP)
