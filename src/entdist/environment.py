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


def require_transmissivity(tau: float) -> None:
    """Raise DomainError unless 0 < tau < 1 (nan fails too)."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"transmissivity must lie in (0, 1), got {tau}")


def require_variance(name: str, value: float) -> None:
    """Raise DomainError unless 1 <= value <= :data:`MAX_MAGNITUDE` (nan fails too)."""
    require_magnitude(name, value)
    if not value >= 1.0:
        raise DomainError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Beam-splitter transmissivity plus the environment normal form (omega, g, gp).

    Physical by construction: raises DomainError for tau outside (0, 1), for a
    magnitude above :data:`MAX_MAGNITUDE`, for omega below 1, and, naming the
    failed conditions, for an (omega, g, gp) that is not a bona-fide environment.
    """

    tau: float
    omega: float
    g: float
    gp: float

    def __post_init__(self) -> None:
        require_transmissivity(self.tau)
        for name in ("g", "gp"):
            require_magnitude(name, getattr(self, name))
        require_bona_fide(self.omega, self.g, self.gp)


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

    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return not self.failures

    ok = property(__bool__)


def bona_fide_conditions(omega, g, gp):
    """The three physicality conditions |g| < omega, |gp| < omega and
    omega^2 + g*gp - 1 >= omega*|g + gp|, in that order; elementwise on arrays.

    The last is evaluated in the equal factored form
    min((omega - g)(omega - gp), (omega + g)(omega + gp)) >= 1, whose ``- 1``
    does not drop below the rounding of omega^2 at large omega. It is written
    as both products >= 1, which keeps scalar calls free of numpy.
    """
    uncertainty = ((omega - g) * (omega - gp) >= 1.0) & ((omega + g) * (omega + gp) >= 1.0)
    return abs(g) < omega, abs(gp) < omega, uncertainty


def bona_fide_check(omega: float, g: float, gp: float) -> BonaFideResult:
    """Check that (omega, g, gp) describes a valid quantum state.

    Violated conditions of :func:`bona_fide_conditions` are reported in
    ``failures`` so callers can surface which one failed. An omega outside
    [1, :data:`MAX_MAGNITUDE`] raises DomainError (see :func:`require_variance`).
    """
    require_variance("omega", omega)
    marginal_g, marginal_gp, uncertainty = bona_fide_conditions(omega, g, gp)
    failures = []
    if not marginal_g:
        failures.append(f"|g| < omega violated ({abs(g)} >= {omega})")
    if not marginal_gp:
        failures.append(f"|gp| < omega violated ({abs(gp)} >= {omega})")
    if not uncertainty:
        # the factored products that fall short of 1; the expanded sides can
        # round to the same number at large omega
        products = {"(omega-g)(omega-gp)": (omega - g) * (omega - gp),
                    "(omega+g)(omega+gp)": (omega + g) * (omega + gp)}
        short = ", ".join(f"{name} = {value} < 1"
                          for name, value in products.items() if not value >= 1.0)
        failures.append(f"omega^2 + g*gp - 1 >= omega*|g + gp| violated ({short})")
    return BonaFideResult(tuple(failures))


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
    positive wherever |g|, |gp| < omega. Float scalars skip numpy, keeping
    np.minimum's rule: NaN if either is, else the second on ties (+-0.0).
    """
    a, b = (omega - g) * (omega + gp), (omega + g) * (omega - gp)
    if isinstance(a, float):
        return a if a < b or a != a else b
    return np.minimum(a, b)


def is_separable(omega, g, gp):
    """Separability, env_pts >= 1, as :func:`env_pts_radicand` >= 1.

    Free of square-root rounding, and of the cancellation of the expanded
    omega^2 - g*gp - 1 >= omega*|g - gp| at large omega; elementwise on arrays.
    """
    return env_pts_radicand(omega, g, gp) >= 1.0


def classify_environment(omega: float, g: float, gp: float) -> EnvClass:
    """Sort (omega, g, gp) into Forbidden / Separable / Entangled; env_pts is the
    environment's smallest PTS eigenvalue, sqrt(:func:`env_pts_radicand`)."""
    if not bona_fide_check(omega, g, gp):
        return EnvClass(EnvKind.FORBIDDEN, None)
    kind = EnvKind.SEPARABLE if is_separable(omega, g, gp) else EnvKind.ENTANGLED
    return EnvClass(kind, math.sqrt(env_pts_radicand(omega, g, gp)))


def eb_threshold(tau: float) -> float:
    """Thermal variance (1 + tau)/(1 - tau) above which a lossy channel of
    transmissivity tau breaks all input entanglement."""
    require_transmissivity(tau)
    return (1.0 + tau) / (1.0 - tau)
