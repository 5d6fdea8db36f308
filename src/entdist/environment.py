"""Correlated two-mode Gaussian environment: physicality, separability, EB threshold.

The environment consists of two thermal ancillas with equal variance omega,
correlated through a diagonal block diag(g, gp). Each travelling mode is mixed
with one ancilla by a beam splitter of transmissivity tau. Whether a given
(omega, g, gp) is a valid quantum state, and whether it is separable, are pure
algebraic conditions handled here; anything involving matrices lives in
:mod:`entdist.symplectic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

# Largest accepted |omega|, |g| and |gp|: every product the plane formulas form
# (omega^2, g*gp, (omega - g)*(omega + gp), ...) then stays below 1e301, so finite.
MAX_MAGNITUDE = 1e150


def require_magnitude(name: str, value: float) -> None:
    """Raise DomainError unless |value| <= :data:`MAX_MAGNITUDE` (nan fails too)."""
    if not abs(value) <= MAX_MAGNITUDE:
        raise DomainError(f"{name} magnitude must be <= {MAX_MAGNITUDE:g}, got {value}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Beam-splitter transmissivity plus the environment normal form (omega, g, gp)."""

    tau: float
    omega: float
    g: float
    gp: float

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise DomainError(f"transmissivity must lie in (0, 1), got {self.tau}")
        if self.omega < 1.0:
            raise DomainError(f"thermal variance must be >= 1, got {self.omega}")
        for name in ("omega", "g", "gp"):
            require_magnitude(name, getattr(self, name))


class EnvKind(Enum):
    FORBIDDEN = "Forbidden"
    SEPARABLE = "Separable"
    ENTANGLED = "Entangled"


@dataclass(frozen=True)
class EnvClass:
    """Classification outcome; env_pts is None exactly when the point is Forbidden."""

    kind: EnvKind
    env_pts: float | None


@dataclass(frozen=True)
class BonaFideResult:
    """Outcome of the three physicality conditions; truthy when all hold."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _uncertainty_sides(omega, g, gp):
    return omega * omega + g * gp - 1.0, omega * abs(g + gp)


def bona_fide_conditions(omega, g, gp):
    """The three physicality conditions |g| < omega, |gp| < omega and
    omega^2 + g*gp - 1 >= omega*|g + gp|, in that order; elementwise on arrays."""
    lhs, rhs = _uncertainty_sides(omega, g, gp)
    return abs(g) < omega, abs(gp) < omega, lhs >= rhs


def bona_fide_check(omega: float, g: float, gp: float) -> BonaFideResult:
    """Check that (omega, g, gp) describes a valid quantum state.

    Violated conditions of :func:`bona_fide_conditions` are reported in
    ``failures`` so callers can surface which one failed.
    """
    if omega < 1.0:
        raise DomainError(f"thermal variance must be >= 1, got {omega}")
    marginal_g, marginal_gp, uncertainty = bona_fide_conditions(omega, g, gp)
    failures = []
    if not marginal_g:
        failures.append(f"|g| < omega violated ({abs(g)} >= {omega})")
    if not marginal_gp:
        failures.append(f"|gp| < omega violated ({abs(gp)} >= {omega})")
    if not uncertainty:
        lhs, rhs = _uncertainty_sides(omega, g, gp)
        failures.append(f"omega^2 + g*gp - 1 >= omega*|g + gp| violated ({lhs} < {rhs})")
    return BonaFideResult(not failures, tuple(failures))


def require_bona_fide(omega: float, g: float, gp: float) -> None:
    """Raise DomainError naming the failed conditions when the check fails."""
    check = bona_fide_check(omega, g, gp)
    if not check:
        raise DomainError("not a physical environment: " + "; ".join(check.failures))


def env_pts_radicand(omega, g, gp):
    """omega^2 - g*gp - omega*|g - gp|, the square of the environment's smallest
    partially-transposed symplectic eigenvalue; elementwise on arrays.

    Evaluated in the equal factored form min((omega - g)(omega + gp),
    (omega + g)(omega - gp)), which keeps its relative precision where the
    expanded one cancels (g -> omega, gp -> -omega at large omega) and is
    positive wherever |g|, |gp| < omega.
    """
    return np.minimum((omega - g) * (omega + gp), (omega + g) * (omega - gp))


def env_pts(omega: float, g: float, gp: float) -> float:
    """Smallest partially-transposed symplectic eigenvalue of the environment.

    Closed form sqrt(:func:`env_pts_radicand`); the generic matrix path in
    :mod:`entdist.symplectic` must reproduce it.
    """
    require_bona_fide(omega, g, gp)
    return math.sqrt(env_pts_radicand(omega, g, gp))


def is_separable(omega, g, gp):
    """Separability in polynomial form: omega^2 - g*gp - 1 >= omega*|g - gp|.

    Equivalent to env_pts >= 1 but free of square-root rounding, so boundary
    points classify exactly; elementwise on arrays.
    """
    return omega * omega - g * gp - 1.0 >= omega * abs(g - gp)


def classify_environment(omega: float, g: float, gp: float) -> EnvClass:
    """Sort (omega, g, gp) into Forbidden / Separable / Entangled."""
    if not bona_fide_check(omega, g, gp):
        return EnvClass(EnvKind.FORBIDDEN, None)
    kind = EnvKind.SEPARABLE if is_separable(omega, g, gp) else EnvKind.ENTANGLED
    return EnvClass(kind, math.sqrt(env_pts_radicand(omega, g, gp)))


def eb_threshold(tau: float) -> float:
    """Thermal variance (1 + tau)/(1 - tau) above which a lossy channel of
    transmissivity tau breaks all input entanglement."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"transmissivity must lie in (0, 1), got {tau}")
    return (1.0 + tau) / (1.0 - tau)


def eb_threshold_nbar(tau: float) -> float:
    """Same threshold expressed as a mean thermal photon number, tau/(1 - tau)."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"transmissivity must lie in (0, 1), got {tau}")
    return tau / (1.0 - tau)
