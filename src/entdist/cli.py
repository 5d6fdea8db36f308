"""Command-line front end: point evaluations, plane scans, convergence tables.

Exit codes: 0 success, 2 usage error, 3 non-physical point, 4 I/O failure.
Every float flag must be a finite number that passes the library check of the
parameter it sets (``require_transmissivity``, ``require_variance`` or
``require_magnitude`` in :mod:`entdist.environment`); argparse reports a
refused number as a usage error naming the flag. All floating-point output is
fixed at 9 significant digits so files are byte-identical across runs and
platforms.

numpy is imported only where arrays or matrices are handled: by a scan, through
the module-level ``scan`` that loads :mod:`entdist.scanner` on its first call
and :mod:`entdist.render`, which renders the scan, and by the runners that
``point --mu`` calls. ``converge``, ``point`` without ``--mu``, ``--help`` and
usage errors load no numpy, no dataclass machinery, and ``json`` only for JSON.

Output is produced as a sequence of blocks of ASCII bytes that
``_write_output`` writes as they come, through a binary file or the bytes
buffer under stdout. ``_render_table`` renders the ``point`` and ``converge``
tables, CSV or JSON, as one block; :mod:`entdist.render` streams a scan's, and
the output file is opened only once the scan has been computed. An existing
output file is written over in place and then cut at the end of the new bytes,
on success and on any error the command sees, so a rerun does not free and
reallocate every block of the old file first.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import stat
import sys
from functools import partial
from typing import TYPE_CHECKING

from .environment import (
    EnvironmentParams,
    EnvKind,
    bona_fide_check,
    classify_bona_fide,
    eb_threshold,
    require_magnitude,
    require_transmissivity,
    require_variance,
)
from .errors import DomainError
from .protocols import (DISTILLABLE_EPS, Protocol, _squared_spectra, coherent_info_asymptotic,
                        large_mu_eps, run_direct, run_swap)

if TYPE_CHECKING:  # the scanner, and numpy with it, loads when a scan runs
    from .scanner import ScanGrid, ScanSpec

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

# finite-mu runners of the distribution protocols: run by `point --mu`, named by `converge`
_RUNNERS = {"direct": run_direct, "swap": run_swap}


class UsageError(Exception):
    pass


def fmt(x: float) -> str:
    """9-significant-digit rendering, locale independent."""
    return format(float(x), ".9g")


def _json_ready(value):
    """Round floats to the 9-digit output contract before serialization."""
    if isinstance(value, float):
        return float(fmt(value))
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _finite_float(check):
    """argparse type of a float flag: nan, inf and non-numbers are usage errors,
    and so is a number that the flag's library check ``check`` refuses."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
        try:
            check(value)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distribution through correlated lossy Gaussian environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mu_type = _finite_float(partial(require_variance, "mu"))

    def add_common(p, needs_point: bool) -> None:
        p.add_argument("--tau", type=_finite_float(require_transmissivity), required=True,
                       help="beam-splitter transmissivity in [1e-150, 1)")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--omega", type=_finite_float(partial(require_variance, "omega")),
                           help="thermal variance (>= 1)")
        group.add_argument("--at-eb", action="store_true",
                           help="place the channels exactly at the entanglement-breaking threshold")
        if needs_point:
            p.add_argument("--g", type=_finite_float(partial(require_magnitude, "g")),
                           required=True, help="q-quadrature correlation")
            p.add_argument("--gp", type=_finite_float(partial(require_magnitude, "gp")),
                           required=True, help="p-quadrature correlation")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", "-o", default=None,
                       help=f"output path ('-' for stdout; default ${OUTPUT_ENV_VAR} or stdout)")

    p_point = sub.add_parser("point", help="classify one environment and evaluate both protocols")
    add_common(p_point, needs_point=True)
    p_point.add_argument("--mu", type=mu_type, default=None,
                         help="also evaluate both protocols at this finite input variance")

    p_scan = sub.add_parser("scan", help="rasterize the correlation plane")
    add_common(p_scan, needs_point=False)
    p_scan.add_argument("--protocol", choices=sorted(_PROTOCOLS), required=True)
    p_scan.add_argument("--resolution", type=int, default=201)
    g_bound = _finite_float(partial(require_magnitude, "g_range bound"))
    gp_bound = _finite_float(partial(require_magnitude, "gp_range bound"))
    p_scan.add_argument("--g-min", type=g_bound, default=None)
    p_scan.add_argument("--g-max", type=g_bound, default=None)
    p_scan.add_argument("--gp-min", type=gp_bound, default=None)
    p_scan.add_argument("--gp-max", type=gp_bound, default=None)

    p_conv = sub.add_parser("converge", help="finite-mu convergence toward the asymptotic eps")
    add_common(p_conv, needs_point=True)
    p_conv.add_argument("--protocol", choices=sorted(_RUNNERS), required=True)
    p_conv.add_argument("--mu", type=mu_type, nargs="+", default=list(DEFAULT_CONVERGE_MUS))

    return parser


def _resolve_output(args) -> str | None:
    if args.output is not None:
        return args.output
    return os.environ.get(OUTPUT_ENV_VAR) or None  # set but empty counts as unset


def _write_output(blocks, path: str | None) -> None:
    """Write the blocks of bytes one by one as they are produced, to ``path``
    or, for None and '-', to the binary buffer under stdout.

    ``path`` is opened without ``O_TRUNC`` and written over in place, which
    spares a rerun the freeing and reallocating of every block of the old
    file. A regular file is then cut at the end of the bytes written, on every
    exit path: after the last block, an exception from the renderer, a
    ``KeyboardInterrupt`` or a failed write. Where the final flush fails it is
    cut at the bytes that reached it. So no byte of the old content is left
    after the new ones, as with ``O_TRUNC``. Other files, such as ``/dev/null``
    or a FIFO, are only written.
    """
    if path is not None and path != "-":
        # created with mode 0o666 & ~umask, as by open(path, "wb")
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            try:
                fh.writelines(blocks)
            finally:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    try:
                        fh.flush()
                    finally:  # the raw position: the bytes the file received
                        os.ftruncate(fh.fileno(), fh.raw.tell())
        return
    stdout = sys.stdout
    if not hasattr(stdout, "buffer"):  # a text stream such as io.StringIO
        stdout.writelines(block.decode() for block in blocks)
        return
    try:
        stdout.flush()
        stdout.buffer.writelines(blocks)
        stdout.buffer.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that flushing what
        # is still buffered at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        raise


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    text = str(value)
    if re.search('[,"\r\n]', text):  # RFC 4180: quoted, with its quotes doubled
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render_table(table, fmt_kind: str) -> str:
    """JSON or CSV text of the `point` report (a dict, written in CSV as
    ``key,value`` rows) or of the `converge` rows (a list of dicts)."""
    if fmt_kind == "json":
        import json
        return json.dumps(_json_ready(table), indent=2) + "\n"
    if isinstance(table, dict):
        table = [{"key": key, "value": value} for key, value in table.items()]
    lines = [",".join(table[0])]  # the header: the keys of a row
    lines.extend(",".join(map(_csv_value, row.values())) for row in table)
    return "\n".join(lines) + "\n"


def _finite_eps(protocol, mu, env) -> tuple[float, float, float]:
    """The runner's finite-mu and large-mu PTS eigenvalues eps and eps_inf at `mu` and
    `env`, and |eps - eps_inf|/eps_inf = |r|/(1 + eps/eps_inf), with r = eps^2/eps_inf^2 - 1
    from the closed-form factors and no difference of two rounded eps values."""
    eps2, excess = _squared_spectra(mu, env, protocol)[:2]
    eps = math.sqrt(eps2)
    eps_inf = float(large_mu_eps(env.tau, env.omega, env.g, env.gp, protocol))
    return eps, eps_inf, abs(excess) / (1.0 + eps / eps_inf)


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def _omega(args) -> float:
    """The environment variance of a ``point`` or ``converge`` run: ``--omega``,
    or the EB threshold of ``--tau`` under ``--at-eb``."""
    return eb_threshold(args.tau) if args.at_eb else args.omega


def cmd_point(args) -> int:
    omega = _omega(args)

    report: dict[str, object] = {
        "tau": args.tau,
        "omega": omega,
        "omega_eb": eb_threshold(args.tau),
        "g": args.g,
        "gp": args.gp,
    }
    try:
        env = EnvironmentParams(args.tau, omega, args.g, args.gp)
    except DomainError:
        # the flags are validated, so only the bona-fide conditions can have
        # failed; they are evaluated again for the failure list
        check = bona_fide_check(omega, args.g, args.gp)
        report["env_class"] = EnvKind.FORBIDDEN.value
        report["bona_fide_failures"] = "; ".join(check.failures)
        code = EXIT_DOMAIN
    else:
        kind, env_pts = classify_bona_fide(env.omega, env.g, env.gp)
        report.update(env_class=kind.value, env_pts=env_pts)
        finite = {} if args.mu is None else {"mu": args.mu}  # keys after every large-mu key
        for name, runner in _RUNNERS.items():
            eps = float(large_mu_eps(env.tau, env.omega, env.g, env.gp, _PROTOCOLS[name]))
            report.update({
                f"{name}_eps": eps,
                f"{name}_coherent_info": coherent_info_asymptotic(eps),
                f"{name}_entangling": eps < 1.0,
                f"{name}_distillable": eps < DISTILLABLE_EPS,
            })
            if args.mu is not None:
                eps_finite, _, rel_error = _finite_eps(_PROTOCOLS[name], args.mu, env)
                finite.update({
                    f"{name}_eps_finite": eps_finite,
                    f"{name}_eps_rel_error": rel_error,
                    f"{name}_coherent_info_finite": runner(args.mu, env).report.coherent_info,
                })
        report.update(finite)
        code = EXIT_OK
    _write_output([_render_table(report, args.format).encode()], _resolve_output(args))
    return code


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def scan(spec: ScanSpec) -> ScanGrid:
    """:func:`entdist.scanner.scan`, through which ``cmd_scan`` scans; the scanner,
    and numpy with it, is imported on the first call."""
    from . import scanner
    return scanner.scan(spec)


def cmd_scan(args) -> int:
    from . import render
    from .scanner import ScanSpec
    for lo, hi, name in ((args.g_min, args.g_max, "--g-min/--g-max"),
                         (args.gp_min, args.gp_max, "--gp-min/--gp-max")):
        if (lo is None) != (hi is None):
            raise UsageError(f"{name} must be given together")
    try:
        spec = ScanSpec(
            tau=args.tau,
            protocol=_PROTOCOLS[args.protocol],
            resolution=args.resolution,
            g_range=None if args.g_min is None else (args.g_min, args.g_max),
            gp_range=None if args.gp_min is None else (args.gp_min, args.gp_max),
            omega=args.omega,
        )
        grid = scan(spec)
    except DomainError as exc:  # the resolution or an empty window; the flags check the rest
        raise UsageError(str(exc)) from None
    except MemoryError:  # scan's up-front physical-memory check, or numpy could not allocate
        raise UsageError(f"resolution {args.resolution} is too large to fit in memory") from None
    render_scan = render._render_scan_json if args.format == "json" else render._render_scan_csv
    blocks = render_scan(grid)
    try:
        _write_output(blocks, _resolve_output(args))
    finally:  # on every exit path, so a render worker is reaped before the command returns
        blocks.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def cmd_converge(args) -> int:
    env = EnvironmentParams(args.tau, _omega(args), args.g, args.gp)  # may raise DomainError
    protocol = _PROTOCOLS[args.protocol]
    rows = []
    for mu in args.mu:
        eps, eps_inf, rel_error = _finite_eps(protocol, mu, env)
        rows.append({"mu": mu, "eps_finite": eps, "eps_asymptotic": eps_inf,
                     "rel_error": rel_error})
    _write_output([_render_table(rows, args.format).encode()], _resolve_output(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_COMMANDS = {"point": cmd_point, "scan": cmd_scan, "converge": cmd_converge}


def main(argv=None) -> int:
    # argparse reads "-5e0", "-5." or "-inf" as an option string, where "-5" and "-5.5" are
    # numbers; joined to the flag before it, as "--gp=-5e0", a negative number is its value,
    # and after a value of --mu, which takes several, it is one more value, "--mu=-5e0"
    joined, flag = [], ""  # flag: the last token that is not a number
    for token in sys.argv[1:] if argv is None else argv:
        try:
            float(token)
        except ValueError:
            joined.append(flag := token)
            continue
        if token.startswith("-") and joined[-1:] == [flag] and re.fullmatch("--[^=]+", flag):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(f"--mu={token}" if token.startswith("-") and flag == "--mu" else token)
    parser = build_parser()
    try:
        args = parser.parse_args(joined)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
