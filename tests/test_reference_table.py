"""Expected values of the golden digest cases, from the reference model.

The golden digests in test_cli.py and test_scanner.py pin the program's own
output byte for byte, so they show a change, not an error. These tables pin
what those outputs should say, rounded to the 9 significant digits of the
output contract, from perfbench/oracles.py's Gaussian model, conditions and
large-mu closed forms at 60 digits:
- TABLE: each value that the `point`/`converge` digest cases print;
- SCAN_CELLS: the pair code and eps of every 97th cell of each scan digest case;
- CONTOURS: every vertex of the `swap` and `environment` contour digest cases.
``test_*_is_the_reference`` recomputes each table. The `point`/`converge`
command lines of BEYOND_DIGESTS, at large mu and at the magnitude limits, are
checked against the same model at the digits each needs.

A value within ``HALF_WAY_MARGIN`` of a half-way point between two 9-digit
numbers could print either way after a few roundings, so it is marked
undecidable and not asserted; so is a class whose condition holds within that
margin of equality. The failure text of the Forbidden case prints its inputs
with ``repr`` and is left to the digest.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import mpmath
import pytest

from entdist import Protocol, ScanSpec, boundary_curves, eb_threshold
from entdist.cli import build_parser, main

import test_cli
import test_scanner

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

# command lines beyond the digest cases, at large mu or at the magnitude
# limits -> (digits of the reference, printed keys left out). A relative error
# from the difference of two rounded eps values lost about log10(mu) digits,
# an entropy from two cancelling terms lost all of them at nu = 1e150, and a
# coherent information from an eigensolve of the output matrix was off in the
# second digit at mu = 1e16 and refused from mu = 1e17 ("not
# positive-definite"). Left out: at `point-1e150` the direct rel_error of
# 5e-451, which float64 prints as 0.
BEYOND_DIGESTS = {
    "converge-direct-1e16": (("converge", "--protocol", "direct", "--tau", "0.75", "--at-eb",
                              "--g", "0.5", "--gp", "0.3", "--mu", "1e6", "1e10", "1e14",
                              "1e16"), 120, ()),
    "point-swap-1e16": (("point", "--tau", "0.5", "--omega", "7", "--g", "4", "--gp=-4",
                         "--mu", "1e16"), 120, ()),
    "point-swap-1e17": (("point", "--tau", "0.5", "--omega", "7", "--g", "4", "--gp=-4",
                         "--mu", "1e17"), 330, ()),
    "point-1e150": (("point", "--tau", "1e-150", "--omega", "1e150", "--g", "0", "--gp", "0",
                     "--mu", "1e150"), 330, ("direct_eps_rel_error",)),
    "point-at-eb-1e150": (("point", "--tau", "0.9999999999999999", "--at-eb", "--g", "1e16",
                           "--gp=-1e16", "--mu", "1e150"), 330, ()),
}


# ---------------------------------------------------------------------------
# the reference, at DPS digits
# ---------------------------------------------------------------------------

def _finite_mu_spectra(protocol, mu, tau, omega, g, gp):
    """(pts_min, nu_plus, nu_minus, nu_b) of oracles.finite_mu_reference, kept
    as mpf: the PTS eigenvalue, the full symplectic spectrum and that of the
    kept mode b.

    The two blocks are the oracle's; the spectra are the ones that
    finite_mu_reference takes of them, before it rounds to float.
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
    return (pts_min, *spectrum(det_a + det_b + 2 * det_c), mpmath.sqrt(det_b))


def _finite_mu(protocol, mu, tau, omega, g, gp):
    """(pts_min, coherent_info) of oracles.finite_mu_reference, kept as mpf;
    the entropy is the oracle's."""
    pts_min, nu_plus, nu_minus, nu_b = _finite_mu_spectra(protocol, mu, tau, omega, g, gp)
    return pts_min, (oracles._entropy_term(nu_b) - oracles._entropy_term(nu_plus)
                     - oracles._entropy_term(nu_minus))


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


def nine_digits(value, scale=0):
    """``value`` at 9 significant digits as ``%.9g`` prints it, or UNDECIDABLE
    within HALF_WAY_MARGIN of a half-way point, relative to the larger of
    |value| and ``scale``, the size of the operands that the program computes
    it from; bools and text pass through."""
    if not isinstance(value, mpmath.mpf):
        return value
    if value == 0:
        return "0"
    unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(value))) - 8)
    scaled = value / unit
    margin = HALF_WAY_MARGIN * max(abs(value), scale)
    if abs(scaled - mpmath.floor(scaled) - mpmath.mpf(0.5)) * unit < margin:
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


# ---------------------------------------------------------------------------
# the program against the table
# ---------------------------------------------------------------------------

def _printed(case):
    """key -> printed value of a digest case: CSV text, or the JSON value."""
    return _printed_by(test_cli.TestPointAndConvergeGolden.GOLDEN[case][0])


def _printed_by(argv):
    """key -> printed value of a `point` or `converge` command line."""
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
            yield pytest.param(case, key, expected, id=f"{case}-{key}")


@pytest.mark.parametrize("case, key, expected", _program_cases())
def test_program_prints_the_reference(case, key, expected):
    printed = _printed(case)
    assert key in printed
    assert _matches(expected, printed[key]), f"{key}: printed {printed[key]!r}"


@pytest.mark.parametrize("case", sorted(BEYOND_DIGESTS))
def test_program_prints_the_reference_beyond_the_digests(case):
    argv, dps, left_out = BEYOND_DIGESTS[case]
    args = build_parser().parse_args(argv)
    omega = eb_threshold(args.tau) if args.at_eb else args.omega
    with mpmath.workdps(dps):
        if args.command == "point":
            row = _reference_point(args.tau, omega, args.g, args.gp, args.mu)
        else:
            row = _reference_converge(args.protocol, args.tau, omega, args.g, args.gp, args.mu)
        expected = {key: nine_digits(value) for key, value in row.items()}
    printed = _printed_by(argv)
    assert sorted(printed) == sorted(expected)
    wrong = {key: (printed[key], value) for key, value in expected.items()
             if key not in left_out and not _matches(value, printed[key])}
    assert not wrong


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


# ---------------------------------------------------------------------------
# scan cells and contour vertices
# ---------------------------------------------------------------------------

SCAN_STRIDE = 97  # every 97th cell, row-major, of each 61x61 scan digest case
SCAN_RESOLUTION = 61
PROTOCOL_NAMES = {Protocol.DIRECT: "direct", Protocol.SWAP: "swap",
                  Protocol.ENVIRONMENT_ONLY: "environment"}
CONTOUR_CASES = ("swap", "environment")

# "<protocol>-<window>" -> "<cell index>:<pair code>:<eps>" for each sampled
# cell; the code is kind * 3 + activation, and a Forbidden cell prints no eps
SCAN_CELLS = {
    "direct-eb": (
        "0:0:", "97:3:2.67388746", "194:3:1.4754383", "291:3:2.97241359",
        "388:3:2.00922105", "485:6:3.20991131", "582:3:2.38322051", "679:3:1.17692902",
        "776:3:2.66556381", "873:3:1.72775434", "970:3:2.88330377", "1067:3:2.0899349",
        "1164:4:0.866849299", "1261:3:2.35228408", "1358:3:1.44614069",
        "1455:3:2.54585401", "1552:3:1.79274588", "1649:4:0.525086215",
        "1746:3:2.02959907", "1843:3:1.1642735", "1940:3:2.19256167", "2037:3:1.48931855",
        "2134:0:", "2231:3:1.69213663", "2328:4:0.881909697", "2425:3:1.81419479",
        "2522:3:1.17482923", "2619:3:1.87136282", "2716:3:1.32868448", "2813:4:0.59834662",
        "2910:3:1.3904319", "3007:4:0.836898894", "3104:3:1.37255928",
        "3201:4:0.908570601", "3298:5:0.310313839", "3395:4:0.856341647",
        "3492:4:0.422608357", "3589:4:0.65104623", "3686:0:",
    ),
    "swap-eb": (
        "0:0:", "97:3:3.56518328", "194:3:1.96725106", "291:3:3.96321812",
        "388:3:2.6789614", "485:6:4.27988175", "582:3:3.17762734", "679:3:1.56923869",
        "776:3:3.55408509", "873:3:2.30367245", "970:3:3.84440502", "1067:3:2.78657986",
        "1164:3:1.15579907", "1261:3:3.13637877", "1358:3:1.92818759", "1455:3:3.39447201",
        "1552:3:2.39032784", "1649:4:0.700114954", "1746:3:2.70613209",
        "1843:3:1.55236467", "1940:3:2.92341555", "2037:3:1.98575806", "2134:0:",
        "2231:3:2.25618218", "2328:3:1.1758796", "2425:3:2.41892639", "2522:3:1.56643898",
        "2619:3:2.49515042", "2716:3:1.77157931", "2813:4:0.797795493", "2910:3:1.8539092",
        "3007:3:1.11586519", "3104:3:1.83007904", "3201:3:1.21142747",
        "3298:4:0.413751786", "3395:3:1.14178886", "3492:4:0.563477809",
        "3589:4:0.86806164", "3686:0:",
    ),
    "environment-eb": (
        "0:0:", "97:3:1.3913195", "194:3:3.02088938", "291:3:1.78883936",
        "388:3:3.63065718", "485:6:0.993799644", "582:3:3.70959374", "679:3:4.70771608",
        "776:3:3.29606053", "873:3:5.6299722", "970:3:2.11907045", "1067:3:5.30233478",
        "1164:3:3.4673972", "1261:3:4.58872928", "1358:3:5.78456276", "1455:3:3.24370683",
        "1552:3:6.70796356", "1649:3:2.10034486", "1746:3:5.81181645", "1843:3:4.65709401",
        "1940:3:4.36819883", "2037:3:5.95727419", "2134:0:", "2231:3:6.76854654",
        "2328:3:3.52763879", "2425:3:5.49263512", "2522:3:4.69931694", "2619:3:2.79915333",
        "2716:3:5.31473792", "2813:3:2.39338648", "2910:3:5.56172759", "3007:3:3.34759557",
        "3104:3:4.15815398", "3201:3:3.63428241", "3298:3:1.24125536", "3395:3:3.42536659",
        "3492:3:1.69043343", "3589:3:2.60418492", "3686:0:",
    ),
    "direct-window": (
        "0:0:", "97:3:1.33699595", "194:0:", "291:3:1.49513374", "388:4:0.974705077",
        "485:6:1.6180293", "582:3:1.17688569", "679:0:", "776:3:1.32468755",
        "873:4:0.820458639", "970:3:1.43501271", "1067:3:1.01490531", "1164:0:",
        "1261:3:1.14962621", "1358:4:0.666127525", "1455:3:1.24417655",
        "1552:4:0.849986326", "1649:0:", "1746:4:0.967447596", "1843:4:0.511635116",
        "1940:3:1.04123012", "2037:4:0.679993993", "2134:3:1.08032065",
        "2231:4:0.773136723", "2328:8:0.356771935", "2425:4:0.817200207",
        "2522:4:0.499777967", "2619:0:", "2716:4:0.554073139", "2813:8:0.200681451",
        "2910:4:0.546757071", "3007:8:0.29092149", "3104:0:", "3201:0:", "3298:0:",
        "3395:0:", "3492:0:", "3589:0:", "3686:0:",
    ),
    "swap-window": (
        "0:0:", "97:3:2.22832659", "194:0:", "291:3:2.49188956", "388:3:1.62450846",
        "485:6:2.6967155", "582:3:1.96147615", "679:0:", "776:3:2.20781258",
        "873:3:1.36743107", "970:3:2.39168786", "1067:3:1.69150885", "1164:0:",
        "1261:3:1.91604368", "1358:3:1.11021254", "1455:3:2.07362758", "1552:3:1.41664388",
        "1649:0:", "1746:3:1.61241266", "1843:4:0.852725193", "1940:3:1.73538354",
        "2037:3:1.13332332", "2134:3:1.80053442", "2231:3:1.2885612", "2328:7:0.594619891",
        "2425:3:1.36200035", "2522:4:0.832963279", "2619:0:", "2716:4:0.923455232",
        "2813:8:0.334469085", "2910:4:0.911261785", "3007:7:0.484869149", "3104:0:",
        "3201:0:", "3298:0:", "3395:0:", "3492:0:", "3589:0:", "3686:0:",
    ),
    "environment-window": (
        "0:0:", "97:3:1.23478648", "194:0:", "291:3:1.18567777", "388:3:1.90214097",
        "485:6:0.937555875", "582:3:1.84903208", "679:0:", "776:3:1.67682562",
        "873:3:2.0511466", "970:3:1.34037824", "1067:3:2.36850925", "1164:0:",
        "1261:3:2.12470021", "1358:3:1.66531881", "1455:3:1.7351977", "1552:3:2.12496581",
        "1649:0:", "1746:3:2.41861899", "1843:3:1.27908779", "1940:3:2.1264766",
        "2037:3:1.69998498", "2134:3:1.45677669", "2231:3:1.93284181",
        "2328:6:0.891929837", "2425:3:2.04300052", "2522:3:1.24944492", "2619:0:",
        "2716:3:1.38518285", "2813:6:0.501703628", "2910:3:1.36689268",
        "3007:6:0.727303724", "3104:0:", "3201:0:", "3298:0:", "3395:0:", "3492:0:",
        "3589:0:", "3686:0:",
    ),
}

# case -> (index into the case's levels, closed, vertices) per contour, in
# order; a vertex "<edge>:<i>:<j>:<free>" lies on the grid edge ('h', i, j)
# from node (i, j) to (i + 1, j), whose g is free, or ('v', i, j) from (i, j)
# to (i, j + 1), whose gp is free. The edges, their order and the closed flags
# are the program's, which the contour digests pin; each free coordinate is
# the reference's root of eps = level on its edge
CONTOURS = {
    "swap": [
        (0, False, """
            h:56:59:16.8146838 h:56:58:16.7773279 h:56:57:16.7386728 h:56:56:16.6986493
            h:56:55:16.6571835 h:56:54:16.614196 h:56:53:16.5696016 h:56:52:16.5233083
            h:56:51:16.4752172 h:56:50:16.4252215 h:56:49:16.3732057 h:56:48:16.319045
            h:56:47:16.2626039 h:56:46:16.2037351 v:56:45:9.89473684 h:55:45:16.1422788
            h:55:44:16.0780603 h:55:43:16.0108893 h:55:42:15.9405573 h:55:41:15.8668358
            h:55:40:15.7894737 h:55:39:15.7081945 h:55:38:15.6226931 v:55:37:4.64114833
            h:54:37:15.5326316 h:54:36:15.4376352 h:54:35:15.3372869 h:54:34:15.2311213
            h:54:33:15.1186174 h:54:32:14.9991903 v:54:31:1.00404858 h:53:31:14.8721805
            h:53:30:14.7368421 h:53:29:14.5923283 h:53:28:14.4376731 v:53:27:-1.66315789
            h:52:27:14.2717703 h:52:26:14.0933466 h:52:25:13.9009288 v:52:24:-3.70278638
            h:51:24:13.6928034 h:51:23:13.4669653 h:51:22:13.2210526 v:51:21:-5.31301939
            h:50:21:12.9522644 h:50:20:12.6572529 v:50:19:-6.61654135 h:49:19:12.3319838
            h:49:18:11.9715505 v:49:17:-7.69336384 h:48:17:11.5699248 v:48:16:-8.59789474
            h:47:16:11.1196172 h:47:15:10.6112054 v:47:14:-9.36842105 h:46:14:10.0326679
            v:46:13:-10.0326679 h:45:13:9.36842105 v:45:12:-10.6112054 v:44:12:-11.1196172
            h:43:12:8.59789474 v:43:11:-11.5699248 h:42:11:7.69336384 v:42:10:-11.9715505
            v:41:10:-12.3319838 h:40:10:6.61654135 v:40:9:-12.6572529 v:39:9:-12.9522644
            h:38:9:5.31301939 v:38:8:-13.2210526 v:37:8:-13.4669653 v:36:8:-13.6928034
            h:35:8:3.70278638 v:35:7:-13.9009288 v:34:7:-14.0933466 v:33:7:-14.2717703
            h:32:7:1.66315789 v:32:6:-14.4376731 v:31:6:-14.5923283 v:30:6:-14.7368421
            v:29:6:-14.8721805 h:28:6:-1.00404858 v:28:5:-14.9991903 v:27:5:-15.1186174
            v:26:5:-15.2311213 v:25:5:-15.3372869 v:24:5:-15.4376352 v:23:5:-15.5326316
            h:22:5:-4.64114833 v:22:4:-15.6226931 v:21:4:-15.7081945 v:20:4:-15.7894737
            v:19:4:-15.8668358 v:18:4:-15.9405573 v:17:4:-16.0108893 v:16:4:-16.0780603
            v:15:4:-16.1422788 h:14:4:-9.89473684 v:14:3:-16.2037351 v:13:3:-16.2626039
            v:12:3:-16.319045 v:11:3:-16.3732057 v:10:3:-16.4252215 v:9:3:-16.4752172
            v:8:3:-16.5233083 v:7:3:-16.5696016 v:6:3:-16.614196 v:5:3:-16.6571835
            v:4:3:-16.6986493 v:3:3:-16.7386728 v:2:3:-16.7773279 v:1:3:-16.8146838
        """),
        (1, False, """
            h:59:55:18.6829343 h:59:54:18.6771165 h:59:53:18.6710813 h:59:52:18.6648162
            h:59:51:18.6583078 h:59:50:18.6515416 h:59:49:18.6445021 h:59:48:18.6371722
            h:59:47:18.6295337 h:59:46:18.6215667 h:59:45:18.6132495 h:59:44:18.6045585
            h:59:43:18.5954679 h:59:42:18.5859495 h:59:41:18.5759723 h:59:40:18.5655025
            h:59:39:18.5545026 h:59:38:18.5429312 h:59:37:18.5307427 h:59:36:18.5178863
            h:59:35:18.5043057 h:59:34:18.4899377 h:59:33:18.474712 h:59:32:18.4585493
            h:59:31:18.4413604 h:59:30:18.4230443 h:59:29:18.4034865 h:59:28:18.3825562
            h:59:27:18.3601037 h:59:26:18.3359567 h:59:25:18.3099158 h:59:24:18.281749
            h:59:23:18.2511852 h:59:22:18.2179045 h:59:21:18.181528 h:59:20:18.1416025
            h:59:19:18.0975821 v:59:18:-7.26856782 h:58:18:18.0488028 h:58:17:17.9944487
            h:58:16:17.9335062 h:58:15:17.8647001 h:58:14:17.7864036 h:58:13:17.6965075
            h:58:12:17.5922281 h:58:11:17.4698132 v:58:10:-11.9611407 h:57:10:17.3240811
            h:57:9:17.1476686 h:57:8:16.9297473 v:57:7:-13.9722433 h:56:7:16.6537136
            h:56:6:16.2927464 v:56:5:-15.0895226 h:55:5:15.8005185 v:55:4:-15.8005185
            h:54:4:15.0895226 v:54:3:-16.2927464 v:53:3:-16.6537136 h:52:3:13.9722433
            v:52:2:-16.9297473 v:51:2:-17.1476686 v:50:2:-17.3240811 h:49:2:11.9611407
            v:49:1:-17.4698132 v:48:1:-17.5922281 v:47:1:-17.6965075 v:46:1:-17.7864036
            v:45:1:-17.8647001 v:44:1:-17.9335062 v:43:1:-17.9944487 v:42:1:-18.0488028
            h:41:1:7.26856782 v:41:0:-18.0975821 v:40:0:-18.1416025 v:39:0:-18.181528
            v:38:0:-18.2179045 v:37:0:-18.2511852 v:36:0:-18.281749 v:35:0:-18.3099158
            v:34:0:-18.3359567 v:33:0:-18.3601037 v:32:0:-18.3825562 v:31:0:-18.4034865
            v:30:0:-18.4230443 v:29:0:-18.4413604 v:28:0:-18.4585493 v:27:0:-18.474712
            v:26:0:-18.4899377 v:25:0:-18.5043057 v:24:0:-18.5178863 v:23:0:-18.5307427
            v:22:0:-18.5429312 v:21:0:-18.5545026 v:20:0:-18.5655025 v:19:0:-18.5759723
            v:18:0:-18.5859495 v:17:0:-18.5954679 v:16:0:-18.6045585 v:15:0:-18.6132495
            v:14:0:-18.6215667 v:13:0:-18.6295337 v:12:0:-18.6371722 v:11:0:-18.6445021
            v:10:0:-18.6515416 v:9:0:-18.6583078 v:8:0:-18.6648162 v:7:0:-18.6710813
            v:6:0:-18.6771165 v:5:0:-18.6829343
        """),
    ],
    "environment": [
        (0, False, """
            h:7:58:-2.03785489 v:7:57:2.73127753 v:6:57:2.71361502 v:5:57:2.69346734
            h:4:57:-2.2278481 v:4:56:2.67027027 v:3:56:2.64327485 h:2:56:-2.3551797
            v:2:55:2.61146497 v:1:55:2.57342657 h:0:55:-2.44646098 v:0:54:2.52713178
        """),
        (1, False, """
            v:0:32:1.10852713 h:0:33:-2.46184385 h:0:34:-2.44266788 h:0:35:-2.42207485
            v:1:35:1.29370629 h:1:36:-2.39990162 h:1:37:-2.37595908 v:2:37:1.44585987
            h:2:38:-2.35002664 h:2:39:-2.32184547 v:3:39:1.57309942 h:3:40:-2.29110982
            h:3:41:-2.25745587 v:4:41:1.68108108 h:4:42:-2.22044728 v:5:42:1.77386935
            h:5:43:-2.17955615 h:5:44:-2.13413769 v:6:44:1.85446009 h:6:45:-2.08339594
            v:7:45:1.92511013 h:7:46:-2.02633679 v:8:46:1.98755187 h:8:47:-1.96170213
            v:9:47:2.04313725 v:10:47:2.0929368 h:10:48:-1.88787603 v:11:48:2.13780919
            h:11:49:-1.80274779 v:12:49:2.17845118 v:13:49:2.21543408 h:13:50:-1.70350691
            v:14:50:2.24923077 v:15:50:2.28023599 h:15:51:-1.58632677 v:16:51:2.30878187
            v:17:51:2.33514986 h:17:52:-1.44585987 v:18:52:2.35958005 v:19:52:2.38227848
            v:20:52:2.40342298 h:20:53:-1.27439887 v:21:53:2.42316785 v:22:53:2.4416476
            v:23:53:2.45898004 v:24:53:2.47526882 h:24:54:-1.06041335 v:25:54:2.49060543
            v:26:54:2.50507099 v:27:54:2.51873767 v:28:54:2.53166987 v:29:54:2.54392523
            h:29:55:-0.78584392 v:30:55:2.55555556 v:31:55:2.56660746 v:32:55:2.57712305
            v:33:55:2.58714044 v:34:55:2.59669421 v:35:55:2.60581583 h:35:56:-0.420718816
            v:36:56:2.61453397 v:37:56:2.62287481 v:38:56:2.63086233 v:39:56:2.63851852
            v:40:56:2.64586357 v:41:56:2.65291607
        """),
        (2, False, """
            v:0:12:-0.196589147 h:0:13:-2.46124902 h:0:14:-2.45004001 h:0:15:-2.43835467
            h:0:16:-2.42616198 v:1:16:0.116363636 h:1:17:-2.41342817 h:1:18:-2.40011638
            h:1:19:-2.38618636 h:1:20:-2.37159403 v:2:20:0.373503185 h:2:21:-2.35629098
            h:2:22:-2.340224 h:2:23:-2.32333443 h:2:24:-2.30555743 v:3:24:0.588538012
            h:3:25:-2.28682117 h:3:26:-2.26704586 h:3:27:-2.2461426 v:4:27:0.771027027
            h:4:28:-2.22401204 h:4:29:-2.20054285 v:5:29:0.927839196 h:5:30:-2.17560976
            h:5:31:-2.1490714 v:6:31:1.06403756 h:6:32:-2.12076759 h:6:33:-2.0905161
            v:7:33:1.18343612 h:7:34:-2.05810873 h:7:35:-2.02330649 v:8:35:1.28896266
            h:8:36:-1.98583374 v:9:36:1.38290196 h:9:37:-1.94537084 h:9:38:-1.90154502
            v:10:38:1.4670632 h:10:39:-1.85391884 v:11:39:1.54289753 h:11:40:-1.8019756
            v:12:40:1.61158249 h:12:41:-1.74510043 v:13:41:1.6740836 h:13:42:-1.68255591
            v:14:42:1.7312 h:14:43:-1.6134499 v:15:43:1.78359882 v:16:43:1.83184136
            h:16:44:-1.53669269 v:17:44:1.87640327 h:17:45:-1.45093914 v:18:45:1.91769029
            v:19:45:1.95605063 h:19:46:-1.35450918 v:20:46:1.99178484 v:21:46:2.02515366
            h:21:47:-1.2452766 v:22:47:2.05638444 v:23:47:2.08567627 h:23:48:-1.12051048
            v:24:48:2.1132043 v:25:48:2.13912317 v:26:48:2.16356998 h:26:49:-0.976643768
            v:27:49:2.18666667 v:28:49:2.20852207 h:28:50:-0.808926674 v:29:50:2.22923364
            v:30:50:2.24888889 v:31:50:2.26756661 v:32:50:2.28533795 h:32:51:-0.610892236
            v:33:51:2.30226734 v:34:51:2.31841322 v:35:51:2.33382876 v:36:51:2.3485624
            h:36:52:-0.373503185 v:37:52:2.36265842 v:38:52:2.37615734 v:39:52:2.3890963
            v:40:52:2.40150943 v:41:52:2.41342817 h:41:53:-0.0837340877 v:42:53:2.42488145
            v:43:53:2.43589603 v:44:53:2.44649664 v:45:53:2.45670619 v:46:53:2.46654592
            v:47:53:2.47603558 h:47:54:0.277901431 v:48:54:2.48519351 v:49:54:2.49403681
            v:50:54:2.50258142 v:51:54:2.51084223 v:52:54:2.51883314 v:53:54:2.52656716
            v:54:54:2.5340565 v:55:54:2.54131257 v:56:54:2.54834611
        """),
    ],
}


def _centers(lo, hi, resolution):
    return [lo + (k + mpmath.mpf(0.5)) * (hi - lo) / resolution for k in range(resolution)]


def _plane(tau, omega, g_range, gp_range, resolution):
    """tau, omega and the cell centers along g and gp, at DPS digits from the
    float inputs; omega None is the entanglement-breaking threshold, and a
    range None is (-omega, omega)."""
    tau = mpmath.mpf(tau)
    omega = (1 + tau) / (1 - tau) if omega is None else mpmath.mpf(omega)
    centers = [_centers(*(map(mpmath.mpf, window) if window else (-omega, omega)), resolution)
               for window in (g_range, gp_range)]
    return tau, omega, *centers


def _scan_plane(window):
    """_plane of a scan digest window, read from its argv."""
    tokens, flags = iter(test_cli.TestScanCommand.GOLDEN_WINDOWS[window]), {}
    for flag in tokens:
        flags[flag] = None if flag == "--at-eb" else float(next(tokens))
    ranges = [(flags[f"--{axis}-min"], flags[f"--{axis}-max"]) if f"--{axis}-min" in flags
              else None for axis in ("g", "gp")]
    return _plane(flags["--tau"], flags.get("--omega"), *ranges, SCAN_RESOLUTION)


def _reference_eps(protocol, tau, omega, g, gp):
    """The protocol's large-mu eps; for the environment alone its PTS eigenvalue."""
    if protocol == "environment":
        return mpmath.sqrt(omega ** 2 - g * gp - omega * abs(g - gp))
    return oracles.protocol_eps(protocol, tau, omega, g, gp)


def _near(lhs, rhs, scale):
    """Whether lhs and rhs lie within HALF_WAY_MARGIN * scale of each other, where
    the condition lhs >= rhs (or lhs > rhs) could go either way."""
    return abs(lhs - rhs) <= HALF_WAY_MARGIN * scale


def _reference_cell(protocol, tau, omega, g, gp):
    """(pair code, eps) of the cell centred on (g, gp), each as text."""
    terms = omega ** 2 + abs(g * gp) + omega * (abs(g) + abs(gp)) + 1
    if _near(abs(g), omega, omega) or _near(abs(gp), omega, omega) \
            or _near(omega ** 2 + g * gp - 1, omega * abs(g + gp), terms):
        return UNDECIDABLE, UNDECIDABLE
    if not oracles.bona_fide(omega, g, gp):
        return "0", ""
    eps = _reference_eps(protocol, tau, omega, g, gp)
    levels = () if protocol == "environment" else (mpmath.mpf(1), mpmath.exp(-1))
    code = str(3 * (1 if oracles.separable(omega, g, gp) else 2)
               + sum(eps < level for level in levels))
    if _near(omega ** 2 - g * gp - 1, omega * abs(g - gp), terms) \
            or any(_near(eps, level, level) for level in levels):
        code = UNDECIDABLE
    return code, nine_digits(eps)


def reference_scan_cells():
    """SCAN_CELLS, computed from the reference."""
    cells, res = {}, SCAN_RESOLUTION
    with mpmath.workdps(DPS):
        for window in sorted(test_cli.TestScanCommand.GOLDEN_WINDOWS):
            tau, omega, gs, gps = _scan_plane(window)
            for protocol in PROTOCOL_NAMES.values():
                cells[f"{protocol}-{window}"] = tuple(
                    ":".join((str(k), *_reference_cell(protocol, tau, omega, gs[k // res],
                                                       gps[k % res])))
                    for k in range(0, res * res, SCAN_STRIDE))
    return cells


def _contour_case(case):
    """The spec, levels and reference plane of a contour digest case."""
    spec_args, levels, _ = test_scanner.TestExactContours.GOLDEN[case]
    plane = _plane(spec_args["tau"], spec_args.get("omega"), spec_args.get("g_range"),
                   spec_args.get("gp_range"), spec_args["resolution"])
    return ScanSpec(**spec_args), levels, PROTOCOL_NAMES[spec_args["protocol"]], plane


def _reference_vertex(protocol, plane, level, edge, i, j):
    """The free coordinate at which eps = level on a grid edge, as text."""
    tau, omega, gs, gps = plane
    if edge == "h":
        ends, point = (gs[i], gs[i + 1]), lambda free: (free, gps[j])
    else:
        ends, point = (gps[j], gps[j + 1]), lambda free: (gs[i], free)
    free = mpmath.findroot(lambda x: _reference_eps(protocol, tau, omega, *point(x)) - level,
                           ends, solver="anderson")
    return nine_digits(free, omega)


def reference_contours():
    """CONTOURS with each vertex recomputed from the reference on its edge."""
    contours = {}
    with mpmath.workdps(DPS):
        for case in CONTOUR_CASES:
            _, levels, protocol, plane = _contour_case(case)
            contours[case] = []
            for k, closed, vertices in CONTOURS[case]:
                solved = []
                for vertex in vertices.split():
                    edge, i, j, _ = vertex.split(":")
                    free = _reference_vertex(protocol, plane, mpmath.mpf(levels[k]), edge,
                                             int(i), int(j))
                    solved.append(f"{edge}:{i}:{j}:{free}")
                contours[case].append((k, closed, " ".join(solved)))
    return contours


def test_scan_cells_are_the_reference():
    assert reference_scan_cells() == SCAN_CELLS


def test_contour_vertices_are_the_reference():
    assert reference_contours() == {case: [(k, closed, " ".join(vertices.split()))
                                           for k, closed, vertices in CONTOURS[case]]
                                    for case in CONTOUR_CASES}


def _printed_cells(protocol, fmt_kind, window):
    """(env_class, activation, eps) of each cell that a scan digest case prints:
    CSV text, or the JSON values."""
    argv = ["scan", *test_cli.TestScanCommand.GOLDEN_WINDOWS[window], "--protocol", protocol,
            "--resolution", str(SCAN_RESOLUTION), "--format", fmt_kind, "--output", "-"]
    out = io.StringIO()
    with redirect_stdout(out):
        main(argv)
    if fmt_kind == "json":
        cells = json.loads(out.getvalue())["cells"]
        return [(cell["env_class"], cell["activation"], cell["eps"]) for cell in cells]
    return [tuple(line.split(",")[2:]) for line in out.getvalue().splitlines()[1:]]


@pytest.mark.parametrize("protocol, fmt_kind, window",
                         sorted(test_cli.TestScanCommand.GOLDEN_SHA256))
def test_scan_prints_the_reference(protocol, fmt_kind, window):
    printed = _printed_cells(protocol, fmt_kind, window)
    assert len(printed) == SCAN_RESOLUTION ** 2
    cells = SCAN_CELLS[f"{protocol}-{window}"]
    assert len(cells) == len(range(0, SCAN_RESOLUTION ** 2, SCAN_STRIDE))
    wrong = []
    for cell in cells:
        index, code, eps = cell.split(":")
        kind, activation, printed_eps = printed[int(index)]
        printed_code = oracles.KIND_CODES[kind] * 3 + oracles.ACTIVATION_CODES[activation]
        if code != UNDECIDABLE and printed_code != int(code):
            wrong.append(f"cell {index}: code {printed_code}, not {code}")
        if eps != UNDECIDABLE and not (printed_eps in ("", None) if eps == ""
                                       else _matches(eps, printed_eps)):
            wrong.append(f"cell {index}: eps {printed_eps!r}, not {eps}")
    assert not wrong, "; ".join(wrong)


@pytest.mark.parametrize("case", CONTOUR_CASES)
def test_contours_pass_through_the_reference(case):
    spec, levels, _, _ = _contour_case(case)
    curves = boundary_curves(spec, levels)
    assert [(c.level, c.closed, len(c.points)) for c in curves] == \
        [(levels[k], closed, len(vertices.split())) for k, closed, vertices in CONTOURS[case]]
    xs, ys = spec.g_centers().tolist(), spec.gp_centers().tolist()
    wrong = []
    for n, (curve, (_, _, vertices)) in enumerate(zip(curves, CONTOURS[case])):
        for (g, gp), vertex in zip(curve.points.tolist(), vertices.split()):
            edge, i, j, expected = vertex.split(":")
            fixed, free, center = (gp, g, ys[int(j)]) if edge == "h" else (g, gp, xs[int(i)])
            if fixed != center or expected not in (UNDECIDABLE, format(free, ".9g")):
                wrong.append(f"contour {n} vertex {vertex}: ({g!r}, {gp!r})")
    assert not wrong, "; ".join(wrong)
