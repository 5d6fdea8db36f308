"""Command-line front end: point evaluations, plane scans, convergence tables.

Exit codes: 0 success, 2 usage error, 3 non-physical point, 4 I/O failure.
Numbers in flags must be finite, and omega, g, gp and the scan window bounds
at most ``MAX_MAGNITUDE`` (1e150) in size. All floating-point output is fixed
at 9 significant digits so files are byte-identical across runs and platforms.

Output is produced as a sequence of text blocks that ``_write_output`` writes
as they come. A scan yields one block per g row, each cell rendered from a
fixed per-class template, so memory does not grow with the size of the output;
the output file is opened only once the scan has been computed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .environment import (
    MAX_MAGNITUDE,
    EnvironmentParams,
    EnvKind,
    bona_fide_check,
    classify_environment,
    eb_threshold,
)
from .errors import DomainError
from .protocols import (
    coherent_info_asymptotic,
    direct_eps_asymptotic,
    run_direct,
    run_swap,
    swap_eps_asymptotic,
)
from .scanner import DISTILLABLE_EPS, Activation, Protocol, ScanGrid, ScanSpec, scan

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

OUTPUT_ENV_VAR = "ENTDIST_OUTPUT"

DEFAULT_CONVERGE_MUS = (1e2, 1e4, 1e6)

_PROTOCOLS = {
    "direct": Protocol.DIRECT,
    "swap": Protocol.SWAP,
    "environment": Protocol.ENVIRONMENT_ONLY,
}


class UsageError(Exception):
    pass


def fmt(x: float) -> str:
    """9-significant-digit rendering, locale independent."""
    return format(float(x), ".9g")


def _json_ready(value):
    """Round floats to the 9-digit output contract before serialization."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(fmt(value))
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan, inf and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distribution through correlated lossy Gaussian environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_point: bool) -> None:
        p.add_argument("--tau", type=_finite_float, required=True, help="beam-splitter transmissivity in (0, 1)")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--omega", type=_finite_float, help="thermal variance (>= 1)")
        group.add_argument("--at-eb", action="store_true",
                           help="place the channels exactly at the entanglement-breaking threshold")
        if needs_point:
            p.add_argument("--g", type=_finite_float, required=True, help="q-quadrature correlation")
            p.add_argument("--gp", type=_finite_float, required=True, help="p-quadrature correlation")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", "-o", default=None,
                       help=f"output path ('-' for stdout; default ${OUTPUT_ENV_VAR} or stdout)")

    p_point = sub.add_parser("point", help="classify one environment and evaluate both protocols")
    add_common(p_point, needs_point=True)
    p_point.add_argument("--mu", type=_finite_float, default=None,
                         help="also evaluate the finite-mu pipelines at this input variance")

    p_scan = sub.add_parser("scan", help="rasterize the correlation plane")
    add_common(p_scan, needs_point=False)
    p_scan.add_argument("--protocol", choices=sorted(_PROTOCOLS), required=True)
    p_scan.add_argument("--resolution", type=int, default=201)
    p_scan.add_argument("--g-min", type=_finite_float, default=None)
    p_scan.add_argument("--g-max", type=_finite_float, default=None)
    p_scan.add_argument("--gp-min", type=_finite_float, default=None)
    p_scan.add_argument("--gp-max", type=_finite_float, default=None)

    p_conv = sub.add_parser("converge", help="finite-mu convergence toward the asymptotic eps")
    add_common(p_conv, needs_point=True)
    p_conv.add_argument("--protocol", choices=["direct", "swap"], required=True)
    p_conv.add_argument("--mu", type=_finite_float, nargs="+", default=list(DEFAULT_CONVERGE_MUS))

    return parser


def _validate_common(args) -> float:
    """Flag-level validation (exit 2 territory); returns the resolved omega."""
    if not 0.0 < args.tau < 1.0:
        raise UsageError(f"--tau must lie in (0, 1), got {args.tau}")
    for dest in ("omega", "g", "gp", "g_min", "g_max", "gp_min", "gp_max"):
        value = getattr(args, dest, None)
        if value is not None and abs(value) > MAX_MAGNITUDE:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{flag} magnitude must be <= {MAX_MAGNITUDE:g}, got {value}")
    if args.at_eb:
        return eb_threshold(args.tau)
    if args.omega < 1.0:
        raise UsageError(f"--omega must be >= 1, got {args.omega}")
    return args.omega


def _resolve_output(args) -> str | None:
    if args.output is not None:
        return args.output
    return os.environ.get(OUTPUT_ENV_VAR)


def _write_output(blocks, path: str | None) -> None:
    """Write the text blocks one by one as they are produced, to ``path`` or,
    for None and '-', to stdout."""
    if path is None or path == "-":
        sys.stdout.writelines(blocks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise IOError(str(exc)) from exc


def _rows_to_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def cmd_point(args) -> int:
    omega = _validate_common(args)
    if args.mu is not None and args.mu < 1.0:
        raise UsageError(f"--mu must be >= 1, got {args.mu}")

    check = bona_fide_check(omega, args.g, args.gp)
    report: dict[str, object] = {
        "tau": args.tau,
        "omega": omega,
        "omega_eb": eb_threshold(args.tau),
        "g": args.g,
        "gp": args.gp,
    }
    if not check:
        report["env_class"] = EnvKind.FORBIDDEN.value
        report["bona_fide_failures"] = "; ".join(check.failures)
        _write_output([_render_point(report, args.format)], _resolve_output(args))
        return EXIT_DOMAIN

    env_class = classify_environment(omega, args.g, args.gp)
    env = EnvironmentParams(args.tau, omega, args.g, args.gp)
    direct_eps = direct_eps_asymptotic(env)
    swap_eps = swap_eps_asymptotic(env)
    report.update({
        "env_class": env_class.kind.value,
        "env_pts": env_class.env_pts,
        "direct_eps": direct_eps,
        "direct_coherent_info": coherent_info_asymptotic(direct_eps),
        "direct_entangling": direct_eps < 1.0,
        "direct_distillable": direct_eps < DISTILLABLE_EPS,
        "swap_eps": swap_eps,
        "swap_coherent_info": coherent_info_asymptotic(swap_eps),
        "swap_entangling": swap_eps < 1.0,
        "swap_distillable": swap_eps < DISTILLABLE_EPS,
    })
    if args.mu is not None:
        direct = run_direct(args.mu, env)
        swap = run_swap(args.mu, env)
        report.update({
            "mu": args.mu,
            "direct_eps_finite": direct.report.pts_min,
            "direct_eps_rel_error": abs(direct.report.pts_min - direct_eps) / direct_eps,
            "direct_coherent_info_finite": direct.report.coherent_info,
            "swap_eps_finite": swap.report.pts_min,
            "swap_eps_rel_error": abs(swap.report.pts_min - swap_eps) / swap_eps,
            "swap_coherent_info_finite": swap.report.coherent_info,
        })
    _write_output([_render_point(report, args.format)], _resolve_output(args))
    return EXIT_OK


def _render_point(report: dict, fmt_kind: str) -> str:
    if fmt_kind == "json":
        return json.dumps(_json_ready(report), indent=2) + "\n"
    rows = []
    for key, value in report.items():
        if isinstance(value, bool):
            rows.append([key, "true" if value else "false"])
        elif isinstance(value, float):
            rows.append([key, fmt(value)])
        else:
            rows.append([key, str(value)])
    return _rows_to_csv(["key", "value"], rows)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    omega = _validate_common(args)
    if args.resolution < 2:
        raise UsageError(f"--resolution must be >= 2, got {args.resolution}")
    for lo, hi, name in ((args.g_min, args.g_max, "--g-min/--g-max"),
                         (args.gp_min, args.gp_max, "--gp-min/--gp-max")):
        if (lo is None) != (hi is None):
            raise UsageError(f"{name} must be given together")
        if lo is not None and not lo < hi:
            raise UsageError(f"{name} must describe a nonempty interval")

    spec = ScanSpec(
        tau=args.tau,
        protocol=_PROTOCOLS[args.protocol],
        resolution=args.resolution,
        g_range=None if args.g_min is None else (args.g_min, args.g_max),
        gp_range=None if args.gp_min is None else (args.gp_min, args.gp_max),
        omega=None if args.at_eb else omega,
    )
    grid = scan(spec)
    render = _render_scan_json if args.format == "json" else _render_scan_csv
    _write_output(render(grid), _resolve_output(args))
    return EXIT_OK


# ScanGrid pair code kind * 3 + activation indexes this list; codes 0-2 are the
# Forbidden cells, which carry no eps
_PAIRS = [(kind.value, act.value) for kind in EnvKind for act in Activation]


def _scan_rows(grid: ScanGrid, number):
    """Per g row: the center, and the row's cells as (gp, pair code, eps) triples;
    centers are rendered by ``number``, each gp center once per scan."""
    gps = [number(gp) for gp in grid.spec.gp_centers().tolist()]
    pairs = grid.kind * 3 + grid.activation
    for g, pair_row, eps_row in zip(grid.spec.g_centers().tolist(), pairs, grid.eps):
        yield number(g), zip(gps, pair_row.tolist(), eps_row.tolist())


def _render_scan_csv(grid: ScanGrid):
    """CSV text in blocks: the header, then one block per g row."""
    # "%.9g" % x is fmt(x)
    templates = [f"%s,%s,{kind},{act},{'' if code < 3 else '%.9g'}\n"
                 for code, (kind, act) in enumerate(_PAIRS)]
    yield "g,gp,env_class,activation,eps\n"
    for g, cells in _scan_rows(grid, fmt):
        yield "".join([templates[p] % (g, gp, e) if p > 2 else templates[p] % (g, gp)
                       for gp, p, e in cells])


def _json_number(x: float) -> str:
    """``repr(float(fmt(x)))``, which is what ``json.dumps`` prints for finite
    ``x`` rounded to the 9-digit contract."""
    text = fmt(x)
    # a plain decimal fraction (".9g" strips trailing zeros) is its own repr;
    # integers and exponent forms are spelled differently by repr
    return text if "." in text and "e" not in text else repr(float(text))


def _render_scan_json(grid: ScanGrid):
    """JSON text in the layout of ``json.dumps(..., indent=2)``, in blocks: the
    spec and summary, then one block per g row of cells, then the closing brackets."""
    spec = grid.spec
    counts = {f"{kind.value}/{act.value}": grid.summary.get((kind, act), 0)
              for kind in EnvKind for act in Activation}
    fractions = {key: count / grid.kind.size for key, count in counts.items()}
    head = json.dumps(_json_ready({
        "spec": {
            "tau": spec.tau,
            "omega": spec.omega_value,
            "at_eb": spec.omega is None,
            "protocol": spec.protocol.value,
            "g_range": list(spec.g_range),
            "gp_range": list(spec.gp_range),
            "resolution": spec.resolution,
        },
        "summary": {"total": grid.kind.size, "counts": counts, "fractions": fractions},
    }), indent=2)
    # the cells list goes in as the last key, before the closing "\n}" of the head
    yield head[:-2] + ',\n  "cells": [\n'
    templates = [
        '    {\n      "g": %s,\n      "gp": %s,\n'
        f'      "env_class": "{kind}",\n      "activation": "{act}",\n'
        f'      "eps": {"null" if code < 3 else "%s"}\n    }}'
        for code, (kind, act) in enumerate(_PAIRS)
    ]
    separator = ""
    for g, cells in _scan_rows(grid, _json_number):
        yield separator + ",\n".join([
            templates[p] % (g, gp, _json_number(e)) if p > 2 else templates[p] % (g, gp)
            for gp, p, e in cells])
        separator = ",\n"
    yield "\n  ]\n}\n"


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def cmd_converge(args) -> int:
    omega = _validate_common(args)
    for mu in args.mu:
        if mu < 1.0:
            raise UsageError(f"--mu entries must be >= 1, got {mu}")

    env = EnvironmentParams(args.tau, omega, args.g, args.gp)  # may raise DomainError
    runner = run_direct if args.protocol == "direct" else run_swap
    rows = []
    for mu in args.mu:
        result = runner(mu, env)
        eps_inf = result.asymptotic_eps
        rows.append({
            "mu": mu,
            "eps_finite": result.report.pts_min,
            "eps_asymptotic": eps_inf,
            "rel_error": abs(result.report.pts_min - eps_inf) / eps_inf,
        })
    if args.format == "json":
        text = json.dumps(_json_ready(rows), indent=2) + "\n"
    else:
        text = _rows_to_csv(
            ["mu", "eps_finite", "eps_asymptotic", "rel_error"],
            [[fmt(r["mu"]), fmt(r["eps_finite"]), fmt(r["eps_asymptotic"]), fmt(r["rel_error"])]
             for r in rows],
        )
    _write_output([text], _resolve_output(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_COMMANDS = {"point": cmd_point, "scan": cmd_scan, "converge": cmd_converge}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())
