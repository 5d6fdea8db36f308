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

from .errors import DomainError

# Largest accepted |omega|, |g| and |gp|: :func:`rising` and :func:`falling`, the
# products the plane formulas form, then stay below 1e301, so finite.
MAX_MAGNITUDE = 1e150
# Smallest accepted tau: the swap eps scale (1 - tau)/tau then stays below MAX_MAGNITUDE
_MIN_TRANSMISSIVITY = 1.0 / MAX_MAGNITUDE


def require_magnitude(name: str, value: float) -> None:
    """Raise DomainError unless |value| <= :data:`MAX_MAGNITUDE` (nan fails too)."""
    if not abs(value) <= MAX_MAGNITUDE:
        raise DomainError(f"{name} magnitude must be <= {MAX_MAGNITUDE:g}, got {value}")


def require_transmissivity(tau: float) -> None:
    """Raise DomainError unless 1/:data:`MAX_MAGNITUDE` <= tau < 1 (nan fails too), so
    that every large-mu eps, at most the swap scale (1 - tau)/tau times 2 omega, stays
    below 2e300."""
    if not _MIN_TRANSMISSIVITY <= tau < 1.0:
        raise DomainError(f"transmissivity must lie in [{_MIN_TRANSMISSIVITY:g}, 1), got {tau}")


def require_variance(name: str, value: float) -> None:
    """Raise DomainError unless 1 <= value <= :data:`MAX_MAGNITUDE` (nan fails too)."""
    require_magnitude(name, value)
    if not value >= 1.0:
        raise DomainError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Beam-splitter transmissivity plus the environment normal form (omega, g, gp).

    Physical by construction: raises DomainError for tau outside [1e-150, 1), for a
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


def rising(omega, a, gp):
    """(omega - a)(omega + gp), rising in gp where omega > a; elementwise, numpy-free.

    With :func:`falling` it decides the plane. At a = -g the two are the
    uncertainty products, both >= 1 when bona fide; at a = g those of the
    partial transpose, whose lesser is :func:`env_pts_radicand`, and the rising
    one is the large-mu (eps / scale)**2. Factored, neither cancels at large
    omega as the expanded omega^2 - a*gp -+ omega*(a - gp) does, nor drops its
    test against 1 below the rounding of omega^2; omega - (-g) is omega + g to
    the bit.
    """
    return (omega - a) * (omega + gp)


def falling(omega, a, gp):
    """(omega + a)(omega - gp), :func:`rising` at (-a, -gp): falling in gp where omega > -a."""
    return (omega + a) * (omega - gp)


def bona_fide_conditions(omega, g, gp):
    """The three physicality conditions, in this order: |g| < omega, |gp| < omega and
    omega^2 + g*gp - 1 >= omega*|g + gp|, the last as :func:`falling` and :func:`rising`
    at a = -g both >= 1; elementwise on arrays."""
    uncertainty = (falling(omega, -g, gp) >= 1.0) & (rising(omega, -g, gp) >= 1.0)
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
        products = {"(omega-g)(omega-gp)": falling(omega, -g, gp),
                    "(omega+g)(omega+gp)": rising(omega, -g, gp)}
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
    """omega^2 - g*gp - omega*|g - gp|, the square of the environment's smallest PT
    symplectic eigenvalue, as the lesser of :func:`rising` and :func:`falling` at a = g,
    positive wherever |g|, |gp| < omega; elementwise. Python int and float scalars skip
    numpy, keeping np.minimum's rule: NaN if either is, else the second on ties (+-0.0)."""
    a, b = rising(omega, g, gp), falling(omega, g, gp)
    if isinstance(a, (float, int)):
        return a if a < b or a != a else b
    import numpy as np
    return np.minimum(a, b)


def is_separable(omega, g, gp):
    """Separability, env_pts >= 1, as :func:`env_pts_radicand` >= 1, free of square-root
    rounding; elementwise on arrays."""
    return env_pts_radicand(omega, g, gp) >= 1.0


def classify_environment(omega: float, g: float, gp: float) -> EnvClass:
    """Sort (omega, g, gp) into Forbidden / Separable / Entangled; env_pts is the
    environment's smallest PTS eigenvalue, sqrt(:func:`env_pts_radicand`)."""
    if not bona_fide_check(omega, g, gp):
        return EnvClass(EnvKind.FORBIDDEN, None)
    return EnvClass(*classify_bona_fide(omega, g, gp))


def classify_bona_fide(omega: float, g: float, gp: float) -> tuple[EnvKind, float]:
    """(kind, env_pts) of :func:`classify_environment` for an (omega, g, gp)
    already known to be bona fide, as in an :class:`EnvironmentParams`; the
    conditions are not evaluated again."""
    kind = EnvKind.SEPARABLE if is_separable(omega, g, gp) else EnvKind.ENTANGLED
    return kind, math.sqrt(env_pts_radicand(omega, g, gp))


def eb_threshold(tau: float) -> float:
    """Thermal variance (1 + tau)/(1 - tau) above which a lossy channel of
    transmissivity tau breaks all input entanglement."""
    require_transmissivity(tau)
    return (1.0 + tau) / (1.0 - tau)
