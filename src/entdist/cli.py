"""Command-line front end: point evaluations, plane scans, convergence tables.

Exit codes: 0 success, 2 usage error, 3 non-physical point, 4 I/O failure.
Every float flag must be a finite number that passes the library check of the
parameter it sets (``require_transmissivity``, ``require_variance`` or
``require_magnitude`` in :mod:`entdist.environment`); argparse reports a
refused number as a usage error naming the flag. All floating-point output is
fixed at 9 significant digits so files are byte-identical across runs and
platforms.

Output is produced as a sequence of blocks of ASCII bytes that
``_write_output`` writes as they come, through a binary file or the bytes
buffer under stdout. ``_render_table`` renders the ``point`` and ``converge``
tables, CSV or JSON, as one block. A scan streams one block per g row, joined
at once from a separator per row and, per cell, a fragment formatted once per
scan for every gp column and cell class, followed by the cell's eps text.
The scan keeps each g row as a few runs of one class pair, and a row's
fragments are copied in by one list slice per run; the eps of each render
tile are evaluated for that tile by ``ScanGrid.eps_rows``, and its physical
mask taken from the runs by ``ScanGrid.physical_rows``, so neither per-cell
class codes nor a whole eps field is held.
``_g9_text`` writes that text for a tile of cells at a time with numpy
operations, exactly as ``"%.9g"`` does: a cell whose 9-digit rounding float64
cannot settle, or which needs the exponent notation, goes through ``"%.9g"``
itself. Memory does not grow with the size of the output, and the output file
is opened only once the scan has been computed. An existing output file is
written over in place and then cut at the end of the new bytes, on success
and on any error the command sees, so a rerun does not free and reallocate
every block of the old file first.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from functools import partial

import numpy as np

from .environment import (
    EnvironmentParams,
    EnvKind,
    bona_fide_check,
    eb_threshold,
    env_pts_radicand,
    is_separable,
    require_magnitude,
    require_transmissivity,
    require_variance,
)
from .errors import DomainError
from .protocols import Protocol, coherent_info_asymptotic, large_mu_eps, run_direct, run_swap
from .scanner import DISTILLABLE_EPS, Activation, ScanGrid, ScanSpec, scan

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

# finite-mu runners of the distribution protocols, for `point` and `converge`
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
                       help="beam-splitter transmissivity in (0, 1)")
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
    return str(value)


def _render_table(table, fmt_kind: str) -> str:
    """JSON or CSV text of the `point` report (a dict, written in CSV as
    ``key,value`` rows) or of the `converge` rows (a list of dicts)."""
    if fmt_kind == "json":
        return json.dumps(_json_ready(table), indent=2) + "\n"
    if isinstance(table, dict):
        table = [{"key": key, "value": value} for key, value in table.items()]
    lines = [",".join(table[0])]  # the header: the keys of a row
    lines.extend(",".join(map(_csv_value, row.values())) for row in table)
    return "\n".join(lines) + "\n"


def _rel_error(result) -> float:
    """Relative distance of a finite-mu eps from its large-mu value."""
    return abs(result.report.pts_min - result.asymptotic_eps) / result.asymptotic_eps


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
        kind = EnvKind.SEPARABLE if is_separable(omega, args.g, args.gp) else EnvKind.ENTANGLED
        report["env_class"] = kind.value
        report["env_pts"] = math.sqrt(env_pts_radicand(omega, args.g, args.gp))
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
                result = runner(args.mu, env)
                finite.update({
                    f"{name}_eps_finite": result.report.pts_min,
                    f"{name}_eps_rel_error": _rel_error(result),
                    f"{name}_coherent_info_finite": result.report.coherent_info,
                })
        report.update(finite)
        code = EXIT_OK
    _write_output([_render_table(report, args.format).encode()], _resolve_output(args))
    return code


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
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
    render = _render_scan_json if args.format == "json" else _render_scan_csv
    _write_output(render(grid), _resolve_output(args))
    return EXIT_OK


# ScanGrid pair code kind * 3 + activation indexes this list; codes 0-2 are the
# Forbidden cells, which carry no eps
_PAIRS = [(kind.value, act.value) for kind in EnvKind for act in Activation]


def _json_number(x: float) -> str:
    """``repr(float(fmt(x)))``, which is what ``json.dumps`` prints for finite
    ``x`` rounded to the 9-digit contract."""
    text = fmt(x)
    # a plain decimal fraction (".9g" strips trailing zeros) is its own repr;
    # integers and exponent forms are spelled differently by repr
    return text if "." in text and "e" not in text else repr(float(text))


def _needs_json_number(x):
    """True (elementwise) where ``"%.9g" % x`` may differ from ``_json_number(x)``.

    The two differ only where the 9-digit result is integral ("2" against
    "2.0") or ``|x| >= 1e9`` ("1e+09" against "1000000000.0"). An integral
    result lies within half a unit of the 9th digit of x, at most 5e-9*|x|, so
    x is at least that close to an integer; and from ``|x| = 5e7`` on every x
    is within 0.5 <= 1e-8*|x| of one. So this flags a superset of both cases.
    NaN is never flagged.
    """
    return np.abs(x - np.rint(x)) <= 1e-8 * np.maximum(np.abs(x), 1.0)


# cells per render tile, whose eps are formatted at once: 16 g rows at 1001^2
_RENDER_TILE_CELLS = 2**14

# "%.9g" text is at most 16 bytes long ("-1.23456789e-100"); the fast path
# writes at most 14 ("0.000123456789")
_TEXT_WIDTH = 16
_POW10 = np.array([float(10**k) for k in range(15)])  # all exact in float64
_ASCII_0, _ASCII_DOT = ord("0"), ord(".")
_ZERO_POINT = np.frombuffer(b"0.000", np.uint8)  # the head of the fixed notation below 1


def _digit_words():
    """Entry k < 1000 holds the three ASCII digits of k ("007"), entry 1000 + k
    the same with trailing zeros as NUL ("7", "0" -> ""), each in the first
    three bytes of a uint32."""
    k = np.arange(1000)
    digits = np.stack([k // 100, k // 10 % 10, k % 10], axis=1)
    # kept: a nonzero digit here or further right
    kept = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    table = np.zeros((2, 1000, 4), np.uint8)
    table[:, :, :3] = digits + _ASCII_0
    table[1, :, :3] *= kept
    return table.view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()


def _g9_text(x, cells):
    """``"%.9g" % v`` for each value v of the float64 array x where ``cells`` is
    True and empty text elsewhere, as an ``S16`` array of x's shape.

    A value 5e-5 <= v < 1e9 has the exponent e = floor(log10(v)) and the
    9-digit mantissa n = rint(m), m = v * 10**(8 - e). The power of ten is
    exact, so m carries a single rounding, under 6e-8; as n + 0.5 is a float64,
    that rounding can land m on a half-way point but never carry it across one.
    A cell takes ``"%.9g" % v`` instead where m lies within 1e-6 of a half-way
    point (only m = n + 0.5 is undecided; the rest of the margin is headroom),
    where m < 1e8 or n = 1e9 (log10 one off next to a power of ten, or a
    rounding up to the next one), where e is outside -4..8 (the exponent
    notation), and for zero, negative and non-finite values. The others are
    written in the fixed notation of their e by numpy operations on all cells
    of one e at a time, the trailing zeros of the fraction as NUL bytes, which
    ``tolist()`` strips.
    """
    shape, x, cells = x.shape, x.ravel(), cells.ravel()
    in_range = cells & (x >= 5e-5) & (x < 1e9)
    v = np.where(in_range, x, 1.0)
    e = np.clip(np.floor(np.log10(v)), -5, 8).astype(np.int8)
    m = v * _POW10.take(8 - e)
    n = np.rint(m)
    fast = in_range & (e >= -4) & (m >= 1e8) & (n < 1e9) & (np.abs(m - n) < 0.5 - 1e-6)
    # sorted by exponent, the fast cells of one e are a contiguous run; the
    # other cells follow, 9 those to format by "%.9g", 10 those to leave empty
    key = np.where(fast, e, np.int8(10) - cells)
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(-4, 11, dtype=np.int8))
    fast_cells, slow_cells = order[:bounds[13]], order[bounds[13]:bounds[14]]
    n = n[fast_cells].astype(np.uint32)

    # the 9 digits of n in ASCII, three at a time from the table, with the
    # trailing zeros as NUL
    high = n // 1000000
    low = n - high * 1000000
    mid = low // 1000
    last = low - mid * 1000
    words = np.empty((n.size, 3), np.uint32)
    words[:, 0] = _DIGIT_WORDS[high + 1000 * (low == 0)]
    words[:, 1] = _DIGIT_WORDS[mid + 1000 * (last == 0)]
    words[:, 2] = _DIGIT_WORDS[last + 1000]
    digits = words.view(np.uint8)[:, [0, 1, 2, 4, 5, 6, 8, 9, 10]]

    chars = np.zeros((n.size, _TEXT_WIDTH), np.uint8)
    for exp, lo, hi in zip(range(-4, 9), bounds[:-2], bounds[1:-1]):
        if lo == hi:
            continue
        block, digs = chars[lo:hi], digits[lo:hi]
        if exp < 0:  # 0.000ddddddddd
            block[:, :1 - exp] = _ZERO_POINT[:1 - exp]
            block[:, 1 - exp:10 - exp] = digs
        else:  # the integer digits keep their zeros; no fraction, no point
            block[:, :exp + 1] = np.maximum(digs[:, :exp + 1], _ASCII_0)
            if exp < 8:
                block[:, exp + 1] = np.where(digs[:, exp + 1] == 0, 0, _ASCII_DOT)
                block[:, exp + 2:10] = digs[:, exp + 1:]
    text = np.zeros(x.size, f"S{_TEXT_WIDTH}")
    text[fast_cells] = chars.view(text.dtype)[:, 0]
    text[slow_cells] = ["%.9g" % value for value in x[slow_cells].tolist()]
    return text.reshape(shape)


def _scan_rows(grid: ScanGrid, fragments, separator, json_numbers: bool):
    """One block of bytes per g row, the row's cells joined at once.

    Row g's cell at gp column j is ``separator(g)``, then the fragment of the
    cell's pair code, ``fragments[code * resolution + j]``, then the cell's eps
    text: ``_g9_text`` of the physical cells' eps, formatted a tile of
    ``_RENDER_TILE_CELLS`` cells at a time, and empty for Forbidden cells. The
    fragments of a row are copied in by one slice of the fragment list per run
    of the row, so no per-cell code is built. The eps of a tile are evaluated
    for it by ``grid.eps_rows`` and its mask taken from the runs by
    ``grid.physical_rows``, so the whole eps field is never held. With
    ``json_numbers`` the cells that ``_needs_json_number`` flags take
    ``_json_number(eps)`` instead.
    """
    res = grid.spec.resolution
    by_code = [fragments[code * res:(code + 1) * res] for code in range(len(_PAIRS))]
    g_seps = [separator(g) for g in grid.spec.g_centers().tolist()]
    run_bounds, run_codes = grid.run_bounds.tolist(), grid.run_codes.tolist()
    rows_per_tile = max(1, _RENDER_TILE_CELLS // res)
    parts = [b""] * (3 * res)
    for start in range(0, res, rows_per_tile):
        tile = slice(start, start + rows_per_tile)
        eps = grid.eps_rows(tile)
        physical = grid.physical_rows(tile)
        texts = _g9_text(eps, physical).tolist()
        if json_numbers:
            for i, j in np.argwhere(physical & _needs_json_number(eps)).tolist():
                texts[i][j] = _json_number(eps[i, j]).encode()
        for sep, bounds, codes, text_row in zip(g_seps[tile], run_bounds[tile],
                                                run_codes[tile], texts):
            parts[0::3] = [sep] * res
            for a, b, code in zip(bounds, bounds[1:], codes):
                if a < b:
                    parts[3 * a + 1:3 * b + 1:3] = by_code[code][a:b]
            parts[2::3] = text_row
            yield b"".join(parts)


def _render_scan_csv(grid: ScanGrid):
    """CSV bytes in blocks: the header, then one block per g row. Each row
    starts with the newline that ends the line before it."""
    gps = [fmt(gp) for gp in grid.spec.gp_centers().tolist()]
    fragments = [f"{gp},{kind},{act},".encode() for kind, act in _PAIRS for gp in gps]
    yield b"g,gp,env_class,activation,eps"
    yield from _scan_rows(grid, fragments, lambda g: f"\n{fmt(g)},".encode(),
                          json_numbers=False)
    yield b"\n"


def _render_scan_json(grid: ScanGrid):
    """JSON bytes in the layout of ``json.dumps(..., indent=2)``, in blocks:
    the spec and summary, then one block per g row of cells, then the closing
    brackets. Each cell starts with the close of the cell before it."""
    spec = grid.spec
    summary = grid.summary  # counted from the runs: nothing grid-sized is allocated here
    counts = {f"{kind.value}/{act.value}": summary.get((kind, act), 0)
              for kind in EnvKind for act in Activation}
    total = spec.resolution ** 2
    fractions = {key: count / total for key, count in counts.items()}
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
        "summary": {"total": total, "counts": counts, "fractions": fractions},
    }), indent=2)
    # the cells list goes in as the last key, before the closing "\n}" of the head
    yield (head[:-2] + ',\n  "cells": [').encode()
    gps = [_json_number(gp) for gp in spec.gp_centers().tolist()]
    # a cell from its "gp" key to its eps value
    fragments = [
        f'"gp": {gp},\n      "env_class": "{kind}",\n      "activation": "{act}",\n'
        f'      "eps": {"null" if code < 3 else ""}'.encode()
        for code, (kind, act) in enumerate(_PAIRS) for gp in gps
    ]

    def separator(g):  # closes the cell before, opens this one
        return f'\n    }},\n    {{\n      "g": {_json_number(g)},\n      '.encode()

    rows = _scan_rows(grid, fragments, separator, json_numbers=True)
    yield next(rows)[len(b"\n    },"):]  # no cell closes before the first
    yield from rows
    yield b"\n    }\n  ]\n}\n"


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def cmd_converge(args) -> int:
    env = EnvironmentParams(args.tau, _omega(args), args.g, args.gp)  # may raise DomainError
    runner = _RUNNERS[args.protocol]
    rows = []
    for mu in args.mu:
        result = runner(mu, env)
        rows.append({
            "mu": mu,
            "eps_finite": result.report.pts_min,
            "eps_asymptotic": result.asymptotic_eps,
            "rel_error": _rel_error(result),
        })
    _write_output([_render_table(rows, args.format).encode()], _resolve_output(args))
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
