"""Expected values of the `point`/`converge` digest cases, from the reference model.

The golden digests in test_cli.py pin the program's own output byte for byte,
so they show a change, not an error. This table pins what those outputs should
say: each value they print, rounded to the 9 significant digits of the output
contract, from perfbench/oracles.py's Gaussian model and the paper's large-mu
closed forms at 60 digits. ``test_table_is_the_reference`` recomputes it.

A value within ``HALF_WAY_MARGIN`` of a half-way point between two 9-digit
numbers could print either way after a few roundings, so it is marked
undecidable and not asserted. The failure text of the Forbidden case prints
its inputs with ``repr`` and is left to the digest.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import mpmath
import pytest

from entdist.cli import main

import test_cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402  (perfbench/oracles.py imports no entdist)

DPS = 60
# relative distance from a half-way point below which a value is undecidable:
# about 45 float64 ulps, more than a closed form's few roundings
HALF_WAY_MARGIN = 1e-14
UNDECIDABLE = "undecidable"

# the inputs of the digest cases: --tau 0.75 --at-eb --g 5 --gp=-5, the
# point cases with --mu 1e3 and converge with its default mu ladder
TAU, OMEGA, G, GP = 0.75, 7.0, 5.0, -5.0
POINT_MU = 1e3
CONVERGE_MUS = (1e2, 1e4, 1e6)
FORBIDDEN = (0.5, 2.0, 3.0, 0.0)  # tau, omega, g, gp of point-forbidden

# case -> key -> 9-digit text; a converge key is "<column>[<row>]"
TABLE = {
    "point": {
        "tau": "0.75",
        "omega": "7",
        "omega_eb": "7",
        "g": "5",
        "gp": "-5",
        "env_class": "Separable",
        "env_pts": "2",
        "direct_eps": "0.5",
        "direct_coherent_info": "-0.306852819",
        "direct_entangling": True,
        "direct_distillable": False,
        "swap_eps": "0.666666667",
        "swap_coherent_info": "-0.594534892",
        "swap_entangling": True,
        "swap_distillable": False,
        "mu": "1000",
        "direct_eps_finite": "0.500375",
        "direct_eps_rel_error": "0.000750000188",
        "direct_coherent_info_finite": "-0.306826569",
        "swap_eps_finite": "0.667221852",
        "swap_eps_rel_error": "0.000832778148",
        "swap_coherent_info_finite": "-0.594201181",
    },
    "point-forbidden": {
        "tau": "0.5",
        "omega": "2",
        "omega_eb": "3",
        "g": "3",
        "gp": "0",
        "env_class": "Forbidden",
    },
    "converge-direct": {
        "mu[0]": "100",
        "eps_finite[0]": "0.503750094",
        "eps_asymptotic[0]": "0.5",
        "rel_error[0]": "0.00750018751",
        "mu[1]": "10000",
        "eps_finite[1]": "0.5000375",
        "eps_asymptotic[1]": "0.5",
        "rel_error[1]": "7.50000002e-05",
        "mu[2]": "1000000",
        "eps_finite[2]": "0.500000375",
        "eps_asymptotic[2]": "0.5",
        "rel_error[2]": "7.5e-07",
    },
    "converge-swap": {
        "mu[0]": "100",
        "eps_finite[0]": "0.67218543",
        "eps_asymptotic[0]": "0.666666667",
        "rel_error[0]": "0.0082781457",
        "mu[1]": "10000",
        "eps_finite[1]": "0.666722219",
        "eps_asymptotic[1]": "0.666666667",
        "rel_error[1]": "8.33277781e-05",
        "mu[2]": "1000000",
        "eps_finite[2]": "0.666667222",
        "eps_asymptotic[2]": "0.666666667",
        "rel_error[2]": "8.33332778e-07",
    },
}

# the digest case that prints each table
CASES = {"point-csv": "point", "point-json": "point", "point-forbidden": "point-forbidden",
         "converge-direct": "converge-direct", "converge-swap": "converge-swap"}

# Rows that the program prints wrong today. |eps - eps_inf| / eps_inf is
# taken by subtracting two rounded eps values, which loses about log10(mu)
# digits; the closed-form difference of ROADMAP item 2 is the fix.
WRONG_TODAY = {("point", "direct_eps_rel_error"), ("converge-direct", "rel_error[1]"),
               ("converge-direct", "rel_error[2]"), ("converge-swap", "rel_error[1]"),
               ("converge-swap", "rel_error[2]")}


# ---------------------------------------------------------------------------
# the reference, at DPS digits
# ---------------------------------------------------------------------------

def _finite_mu(protocol, mu, tau, omega, g, gp):
    """(pts_min, coherent_info) of oracles.finite_mu_reference, kept as mpf.

    The two blocks and the entropy are the oracle's; the spectrum is the one
    that finite_mu_reference takes of them, before it rounds to float.
    """
    mu, tau, omega, g, gp = (mpmath.mpf(x) for x in (mu, tau, omega, g, gp))
    vq = oracles._quadrature_block(protocol, 1, mu, tau, omega, g)
    vp = oracles._quadrature_block(protocol, -1, mu, tau, omega, gp)
    det_a, det_b, det_c = vq[0][0] * vp[0][0], vq[1][1] * vp[1][1], vq[0][1] * vp[0][1]
    det_v = (vq[0][0] * vq[1][1] - vq[0][1] ** 2) * (vp[0][0] * vp[1][1] - vp[0][1] ** 2)

    def spectrum(delta):
        big = (delta + mpmath.sqrt(delta * delta - 4 * det_v)) / 2
        return mpmath.sqrt(big), mpmath.sqrt(det_v / big)

    _, pts_min = spectrum(det_a + det_b - 2 * det_c)
    nu_plus, nu_minus = spectrum(det_a + det_b + 2 * det_c)
    coherent = (oracles._entropy_term(mpmath.sqrt(det_b)) - oracles._entropy_term(nu_plus)
                - oracles._entropy_term(nu_minus))
    return pts_min, coherent


def _large_mu_eps(protocol, tau, omega, g, gp):
    """(1 - tau) sqrt((omega - g)(omega + gp)), over tau for the swap protocol."""
    scale = (1 - tau) / tau if protocol == "swap" else 1 - tau
    return scale * mpmath.sqrt((omega - g) * (omega + gp))


def _reference_point(tau, omega, g, gp, mu=None):
    tau, omega, g, gp = (mpmath.mpf(x) for x in (tau, omega, g, gp))
    omega_eb = (1 + tau) / (1 - tau)
    row = {"tau": tau, "omega": omega, "omega_eb": omega_eb, "g": g, "gp": gp}
    if not (abs(g) < omega and abs(gp) < omega
            and omega ** 2 + g * gp - 1 >= omega * abs(g + gp)):
        row["env_class"] = "Forbidden"
        return row
    radicand = omega ** 2 - g * gp - omega * abs(g - gp)
    row["env_class"] = "Separable" if radicand >= 1 else "Entangled"
    row["env_pts"] = mpmath.sqrt(radicand)
    finite = {}
    for protocol in ("direct", "swap"):
        eps = _large_mu_eps(protocol, tau, omega, g, gp)
        row.update({f"{protocol}_eps": eps, f"{protocol}_coherent_info": -1 - mpmath.log(eps),
                    f"{protocol}_entangling": eps < 1,
                    f"{protocol}_distillable": eps < mpmath.exp(-1)})
        if mu is not None:
            pts_min, coherent = _finite_mu(protocol, mu, tau, omega, g, gp)
            finite.update({f"{protocol}_eps_finite": pts_min,
                           f"{protocol}_eps_rel_error": abs(pts_min - eps) / eps,
                           f"{protocol}_coherent_info_finite": coherent})
    if mu is not None:
        row["mu"] = mpmath.mpf(mu)
    row.update(finite)
    return row


def _reference_converge(protocol, tau, omega, g, gp, mus):
    row = {}
    eps = _large_mu_eps(protocol, *(mpmath.mpf(x) for x in (tau, omega, g, gp)))
    for i, mu in enumerate(mus):
        pts_min, _ = _finite_mu(protocol, mu, tau, omega, g, gp)
        row.update({f"mu[{i}]": mpmath.mpf(mu), f"eps_finite[{i}]": pts_min,
                    f"eps_asymptotic[{i}]": eps, f"rel_error[{i}]": abs(pts_min - eps) / eps})
    return row


def nine_digits(value):
    """``value`` at 9 significant digits as ``%.9g`` prints it, or UNDECIDABLE
    within HALF_WAY_MARGIN of a half-way point; bools and text pass through."""
    if not isinstance(value, mpmath.mpf):
        return value
    if value == 0:
        return "0"
    unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(value))) - 8)
    scaled = value / unit
    if abs(scaled - mpmath.floor(scaled) - mpmath.mpf(0.5)) * unit < HALF_WAY_MARGIN * abs(value):
        return UNDECIDABLE
    return format(float(mpmath.nint(scaled) * unit), ".9g")


def reference_table():
    """TABLE, computed from the reference."""
    with mpmath.workdps(DPS):
        rows = {
            "point": _reference_point(TAU, OMEGA, G, GP, POINT_MU),
            "point-forbidden": _reference_point(*FORBIDDEN),
            "converge-direct": _reference_converge("direct", TAU, OMEGA, G, GP, CONVERGE_MUS),
            "converge-swap": _reference_converge("swap", TAU, OMEGA, G, GP, CONVERGE_MUS),
        }
        return {case: {key: nine_digits(v) for key, v in row.items()}
                for case, row in rows.items()}


def test_table_is_the_reference():
    assert reference_table() == TABLE


def test_digest_cases_are_the_tabled_ones():
    assert sorted(CASES) == sorted(test_cli.TestPointAndConvergeGolden.GOLDEN)
    # each row the program is known to print wrong is decidable
    assert all(TABLE[case][key] != UNDECIDABLE for case, key in WRONG_TODAY)


# ---------------------------------------------------------------------------
# the program against the table
# ---------------------------------------------------------------------------

def _printed(case):
    """key -> printed value of a digest case: CSV text, or the JSON value."""
    argv, _, _ = test_cli.TestPointAndConvergeGolden.GOLDEN[case]
    out = io.StringIO()
    with redirect_stdout(out):
        main([*argv, "--output", "-"])
    text = out.getvalue()
    if "--format" in argv:
        return json.loads(text)
    if argv[0] == "point":
        return dict(line.split(",", 1) for line in text.splitlines()[1:])
    header, *rows = (line.split(",") for line in text.splitlines())
    return {f"{column}[{i}]": value for i, row in enumerate(rows)
            for column, value in zip(header, row)}


def _matches(expected, printed):
    """Whether ``printed`` says ``expected``: CSV bools are true/false, and
    JSON numbers are the floats of the 9-digit text."""
    if isinstance(expected, bool):
        return printed is expected or printed == str(expected).lower()
    if isinstance(printed, float):
        return printed == float(expected)
    return printed == expected


def _program_cases():
    for case, table in CASES.items():
        for key, expected in TABLE[table].items():
            if expected == UNDECIDABLE:
                continue
            marks = ()
            if (table, key) in WRONG_TODAY:
                marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                    f"{key} is printed from a difference of two rounded eps values; "
                    f"the reference value is {expected}"))
            yield pytest.param(case, key, expected, marks=marks, id=f"{case}-{key}")


@pytest.mark.parametrize("case, key, expected", _program_cases())
def test_program_prints_the_reference(case, key, expected):
    printed = _printed(case)
    assert key in printed
    assert _matches(expected, printed[key]), f"{key}: printed {printed[key]!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_printed_value_is_tabled(case):
    # the failure text of the Forbidden case is the one value left to the digest
    untabled = set(_printed(case)) - set(TABLE[CASES[case]])
    assert untabled == ({"bona_fide_failures"} if case == "point-forbidden" else set())


def test_half_way_values_are_undecidable():
    with mpmath.workdps(DPS):
        assert nine_digits(mpmath.mpf("0.1234567885")) == UNDECIDABLE
        assert nine_digits(mpmath.mpf("0.12345678850001")) == "0.123456789"
        assert nine_digits(mpmath.mpf("-0.12345678849999")) == "-0.123456788"
        assert nine_digits(mpmath.mpf("9.9999999996")) == "10"
