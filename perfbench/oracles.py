"""Independent oracles for the benchmark's output checks.

Nothing here imports entdist. The physicality, separability and eps
conditions and the Gaussian model of both protocols are written out again
from the paper, so a defect in the code path being measured cannot hide in
the reference it is checked against.

Tolerances come from the CLI's output contract (9 significant digits), never
from what a given version of the program happens to reach.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

SIG_DIGITS = 9
DISTILLABLE_EPS = math.exp(-1.0)
REFERENCE_DPS = 50
# predicates whose two sides agree to this relative margin may round either
# way between two correct float evaluations, so both answers are accepted
AMBIGUOUS_RTOL = 1e-12
_EPS64 = np.finfo(float).eps

KIND_CODES = {"Forbidden": 0, "Separable": 1, "Entangled": 2}
ACTIVATION_CODES = {"None": 0, "Entangling": 1, "Distillable": 2}


def half_unit(ref):
    """Half a unit in the last printed digit of ``ref`` at 9 significant digits."""
    mag = np.abs(np.asarray(ref, dtype=float))
    exponent = np.floor(np.log10(np.where(mag > 0.0, mag, 1.0)))
    return np.where(mag > 0.0, 0.5 * 10.0 ** (exponent - (SIG_DIGITS - 1)), 0.0)


def within_contract(value, ref, scale=0.0):
    """True where ``value`` agrees with ``ref`` to the 9-digit output contract.

    ``scale`` is the magnitude of the operands ``ref`` was computed from; a few
    float64 ulps of it cover rounding differences between two correct
    evaluations of the same formula (for instance a grid coordinate near 0).
    """
    value = np.asarray(value, dtype=float)
    slack = 8.0 * _EPS64 * np.maximum(np.abs(ref), scale)
    return np.isfinite(value) & (np.abs(value - ref) <= half_unit(ref) + slack)


# ---------------------------------------------------------------------------
# the paper's conditions on the environment (omega, g, gp)
# ---------------------------------------------------------------------------

def bona_fide(omega, g, gp):
    """|g| < omega, |gp| < omega and omega^2 + g*gp - 1 >= omega*|g + gp|."""
    return (
        (np.abs(g) < omega)
        & (np.abs(gp) < omega)
        & (omega * omega + g * gp - 1.0 >= omega * np.abs(g + gp))
    )


def separable(omega, g, gp):
    """omega^2 - g*gp - 1 >= omega*|g - gp| (PTS eigenvalue of the environment >= 1)."""
    return omega * omega - g * gp - 1.0 >= omega * np.abs(g - gp)


def protocol_eps(protocol: str, tau, omega, g, gp):
    """Large-mu PTS eigenvalue: (1 - tau) sqrt((omega - g)(omega + gp)) for the
    direct protocol, divided by tau for the swap protocol."""
    root = np.sqrt(np.maximum((omega - g) * (omega + gp), 0.0))
    factor = (1.0 - tau) if protocol == "direct" else (1.0 - tau) / tau
    return factor * root


def _ambiguous(lhs, rhs, scale):
    return np.abs(lhs - rhs) <= AMBIGUOUS_RTOL * scale


# ---------------------------------------------------------------------------
# correlation-plane maps
# ---------------------------------------------------------------------------

class PlaneReference:
    """Expected cell values of an at-EB scan over the physical bounding box.

    Cells are row-major over (g, gp) cell centers. ``*_either`` masks mark
    cells within rounding of a class boundary, where both answers pass.
    """

    def __init__(self, tau: float, protocol: str, resolution: int):
        w = (1.0 + tau) / (1.0 - tau)
        centers = -w + (np.arange(resolution) + 0.5) * (2.0 * w / resolution)
        g = np.repeat(centers, resolution)
        gp = np.tile(centers, resolution)
        scale = w * w + np.abs(g * gp) + w * (np.abs(g) + np.abs(gp)) + 1.0
        self.omega = w
        self.g, self.gp = g, gp
        self.physical = bona_fide(w, g, gp)
        # cell centers stay half a cell inside |g|, |gp| < omega
        self.physical_either = _ambiguous(w * w + g * gp - 1.0, w * np.abs(g + gp), scale)
        self.separable = separable(w, g, gp)
        self.separable_either = _ambiguous(w * w - g * gp - 1.0, w * np.abs(g - gp), scale)
        self.eps = protocol_eps(protocol, tau, w, g, gp)
        self.activation = np.where(
            self.eps < DISTILLABLE_EPS, 2, np.where(self.eps < 1.0, 1, 0)
        )
        self.activation_either = (
            _ambiguous(self.eps, 1.0, 1.0) | _ambiguous(self.eps, DISTILLABLE_EPS, 1.0)
        )

    def bad_cells(self, g, gp, kind, activation, eps) -> np.ndarray:
        """Mask of cells whose printed values disagree with the reference.

        ``kind``/``activation`` are integer codes, ``eps`` is NaN where the
        file prints no value.
        """
        ok_g = within_contract(g, self.g, self.omega)
        ok_gp = within_contract(gp, self.gp, self.omega)
        forbidden = kind == KIND_CODES["Forbidden"]
        ok_phys = (forbidden != self.physical) | self.physical_either
        expected_kind = np.where(self.separable, 1, 2)
        ok_kind = forbidden | (kind == expected_kind) | self.separable_either
        ok_forbidden_row = ~forbidden | ((activation == 0) & np.isnan(eps))
        ok_act = forbidden | (activation == self.activation) | self.activation_either
        ok_eps = forbidden | within_contract(eps, self.eps, 1.0)
        return ~(ok_g & ok_gp & ok_phys & ok_kind & ok_forbidden_row & ok_act & ok_eps)


def parse_scan_csv(text: str):
    """Columns (g, gp, kind, activation, eps) of a ``scan --format csv`` file."""
    lines = text.split("\n")
    if lines[0] != "g,gp,env_class,activation,eps" or lines[-1] != "":
        raise ValueError("unexpected CSV layout")
    g, gp, kind, act, eps = zip(*(line.split(",") for line in lines[1:-1]))
    return (
        np.array(g, dtype=float),
        np.array(gp, dtype=float),
        np.array([KIND_CODES[k] for k in kind]),
        np.array([ACTIVATION_CODES[a] for a in act]),
        np.array([float(e) if e else math.nan for e in eps]),
    )


def scan_json_columns(cells: list):
    """The same columns from the ``cells`` list of a ``scan --format json`` file."""
    return (
        np.array([c["g"] for c in cells], dtype=float),
        np.array([c["gp"] for c in cells], dtype=float),
        np.array([KIND_CODES[c["env_class"]] for c in cells]),
        np.array([ACTIVATION_CODES[c["activation"]] for c in cells]),
        np.array([math.nan if c["eps"] is None else c["eps"] for c in cells], dtype=float),
    )


# ---------------------------------------------------------------------------
# activation witnesses
# ---------------------------------------------------------------------------

def witness_errors(tau: float, protocol: str, found: bool, witness) -> list[str]:
    """Reasons a separable-activation search result breaks the paper's claims."""
    errors = []
    if protocol == "swap" and tau <= 0.5 and (found or witness is not None):
        errors.append(f"swap at tau={tau} <= 1/2 returned a witness {witness}")
    if found:
        w = (1.0 + tau) / (1.0 - tau)
        g, gp = witness
        if not bona_fide(w, g, gp):
            errors.append(f"witness {witness} at tau={tau} is not bona fide")
        elif not separable(w, g, gp):
            errors.append(f"witness {witness} at tau={tau} is not separable")
        elif not protocol_eps(protocol, tau, w, g, gp) < 1.0:
            errors.append(f"witness {witness} at tau={tau} does not activate")
    elif witness is not None:
        errors.append(f"search reported no witness but returned {witness}")
    return errors


# ---------------------------------------------------------------------------
# finite-mu reference in 50-digit arithmetic
# ---------------------------------------------------------------------------

def _entropy_term(nu):
    """Entropy of one symplectic eigenvalue, in nats."""
    if nu <= 1:
        return mpmath.mpf(0)
    up, dn = (nu + 1) / 2, (nu - 1) / 2
    return up * mpmath.log(up) - dn * mpmath.log(dn)


def _covariance(q, u, v):
    """u^T Q v for sparse vectors given as {index: coefficient}."""
    return sum(cu * q.get((i, j), 0) * cv for i, cu in u.items() for j, cv in v.items())


def _quadrature_block(protocol: str, sign: int, mu, tau, omega, corr):
    """2x2 q (sign +1, corr g) or p (sign -1, corr gp) block of the remote state.

    Modes are linear functionals over the input quadratures: two-mode squeezed
    pairs (a, A) and (B, b) with correlation sign*sqrt(mu^2 - 1), and the
    environment (e1, e2) with correlation ``corr``. Each lossy arm sends
    X -> sqrt(tau) X + sqrt(1 - tau) e. The swap conditions the kept modes on
    the homodyned Bell port (A' - sign*B')/sqrt(2).
    """
    c = sign * mpmath.sqrt(mu * mu - 1)
    t, r = mpmath.sqrt(tau), mpmath.sqrt(1 - tau)
    if protocol == "direct":
        # inputs a=0, b=1 (one squeezed pair), e1=2, e2=3
        q = {(0, 0): mu, (1, 1): mu, (0, 1): c, (1, 0): c,
             (2, 2): omega, (3, 3): omega, (2, 3): corr, (3, 2): corr}
        a, b = {0: t, 2: r}, {1: t, 3: r}
        return [[_covariance(q, x, y) for y in (a, b)] for x in (a, b)]
    # inputs a=0, A=1, B=2, b=3, e1=4, e2=5
    q = {(0, 0): mu, (1, 1): mu, (2, 2): mu, (3, 3): mu,
         (0, 1): c, (1, 0): c, (2, 3): c, (3, 2): c,
         (4, 4): omega, (5, 5): omega, (4, 5): corr, (5, 4): corr}
    s = 1 / mpmath.sqrt(2)
    port = {1: s * t, 4: s * r, 2: -sign * s * t, 5: -sign * s * r}
    a, b = {0: 1}, {3: 1}
    var = _covariance(q, port, port)
    return [[_covariance(q, x, y) - _covariance(q, x, port) * _covariance(q, port, y) / var
             for y in (a, b)] for x in (a, b)]


def finite_mu_reference(protocol: str, mu: float, tau: float, omega: float, g: float, gp: float,
                        dps: int = REFERENCE_DPS) -> tuple[float, float]:
    """(pts_min, coherent_info) of the finite-mu remote state in ``dps`` digits.

    The partial transpose and the kept side of the coherent information
    I(A > B) = S(B) - S(AB) are both the second remote mode.
    """
    with mpmath.workdps(dps):
        mu, tau, omega, g, gp = (mpmath.mpf(x) for x in (mu, tau, omega, g, gp))
        vq = _quadrature_block(protocol, 1, mu, tau, omega, g)
        vp = _quadrature_block(protocol, -1, mu, tau, omega, gp)
        det_a = vq[0][0] * vp[0][0]
        det_b = vq[1][1] * vp[1][1]
        det_c = vq[0][1] * vp[0][1]
        det_v = (vq[0][0] * vq[1][1] - vq[0][1] ** 2) * (vp[0][0] * vp[1][1] - vp[0][1] ** 2)

        def spectrum(delta):
            big = (delta + mpmath.sqrt(delta * delta - 4 * det_v)) / 2
            return mpmath.sqrt(big), mpmath.sqrt(det_v / big)

        _, pts_min = spectrum(det_a + det_b - 2 * det_c)
        nu_plus, nu_minus = spectrum(det_a + det_b + 2 * det_c)
        coherent = _entropy_term(mpmath.sqrt(det_b)) - _entropy_term(nu_plus) - _entropy_term(nu_minus)
        return float(pts_min), float(coherent)
