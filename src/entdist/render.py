"""The bytes of ``entdist scan``: a scan's CSV or JSON, as blocks for
:func:`entdist.cli._write_output`. ``cmd_scan`` imports this module on a scan's
first render, beside the scanner, and numpy with it.

A scan streams one block per g row, joined at once from a separator per row
and, per cell, a fragment formatted once per scan for every gp column and cell
class, followed by the cell's eps text. The scan keeps each g row as a few runs
of one class pair, and a row's fragments are copied in by one list slice per
run; the eps of each render tile are evaluated for that tile by
``ScanGrid.eps_rows``, NaN exactly on its Forbidden cells, so neither per-cell
class codes nor a whole eps field is held. ``_g9_text`` writes that text for a
tile of cells at a time with numpy operations, exactly as ``"%.9g"`` does, and
empty text for NaN: a cell whose 9-digit rounding float64 cannot settle, or
which needs the exponent notation, goes through ``"%.9g"`` itself. Memory does
not grow with the size of the output. From ``_SPLIT_CELLS`` cells, on 2 CPUs,
a forked worker renders the lower half of the rows meanwhile into a temporary
file in ``TMPDIR`` of about half the output's size; the bytes are the same, and
where the worker fails, a full ``TMPDIR`` included, the command renders those
rows itself.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import warnings
from functools import partial

import numpy as np

from .cli import _json_ready, fmt
from .scanner import _PAIRS, ScanGrid

# the text of the scanner's pairs, indexed by pair code; codes 0-2 are the
# Forbidden cells, which carry no eps
_PAIR_TEXTS = [(kind.value, act.value) for kind, act in _PAIRS]


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

# cells from which a scan is split (_split_rows): the break-even of medians of one scan per
# fresh process on a 2-core VM, CSV/JSON ms, whole -> split: 201^2 20.5/27.8 -> 25.5/30.1,
# 401^2 50.3/56.9 -> 48.5/54.2, 451^2 68.8/78.4 -> 51.0/59.7, 1001^2 320/304 -> 196/217
_SPLIT_CELLS = 450**2

# "%.9g" text is at most 16 bytes long ("-1.23456789e-100"); the fast path
# writes at most 14 ("0.000123456789")
_TEXT_WIDTH = 16
_ASCII_0, _ASCII_DOT = ord("0"), ord(".")


def _g9_tables():
    """The tables of ``_g9_text``, built once as this module loads: the powers 10**k, k < 15
    (all exact in float64); "0.000", the head of the fixed notation below 1; and the
    digit words, where entry k < 1000 holds the three ASCII digits of k ("007") and
    entry 1000 + k the same with trailing zeros as NUL ("7", "0" -> ""), each in the
    first three bytes of a uint32."""
    k = np.arange(1000)
    digits = np.stack([k // 100, k // 10 % 10, k % 10], axis=1)
    # kept: a nonzero digit here or further right
    kept = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    table = np.zeros((2, 1000, 4), np.uint8)
    table[:, :, :3] = digits + _ASCII_0
    table[1, :, :3] *= kept
    return (np.array([float(10**k) for k in range(15)]), np.frombuffer(b"0.000", np.uint8),
            table.view(np.uint32).ravel())


_POW10, _ZERO_POINT, _DIGIT_WORDS = _g9_tables()


def _g9_text(x):
    """``"%.9g" % v`` for each value v of the float64 array x that is not NaN, and
    empty text for NaN, as an ``S16`` array of x's shape.

    A value 5e-5 <= v < 1e9 has the exponent e = floor(log10(v)) and the
    9-digit mantissa n = rint(m), m = v * 10**(8 - e). The power of ten is
    exact, so m carries a single rounding, under 6e-8; as n + 0.5 is a float64,
    that rounding can land m on a half-way point but never carry it across one.
    A cell takes ``"%.9g" % v`` instead where m lies within 1e-6 of a half-way
    point (only m = n + 0.5 is undecided; the rest of the margin is headroom),
    where m < 1e8 or n = 1e9 (log10 one off next to a power of ten, or a
    rounding up to the next one), where e is outside -4..8 (the exponent
    notation), and for zero, negative and infinite values. The others are
    written in the fixed notation of their e by numpy operations on all cells
    of one e at a time, the trailing zeros of the fraction as NUL bytes, which
    ``tolist()`` strips.
    """
    shape, x = x.shape, x.ravel()
    in_range = (x >= 5e-5) & (x < 1e9)
    v = np.where(in_range, x, 1.0)
    e = np.clip(np.floor(np.log10(v)), -5, 8).astype(np.int8)
    m = v * _POW10.take(8 - e)
    n = np.rint(m)
    fast = in_range & (e >= -4) & (m >= 1e8) & (n < 1e9) & (np.abs(m - n) < 0.5 - 1e-6)
    # sorted by exponent, the fast cells of one e are a contiguous run; the
    # other cells follow, 9 those to format by "%.9g", 10 the NaN, left empty
    key = np.where(fast, e, np.int8(9) + np.isnan(x))
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


def _scan_rows(grid: ScanGrid, fragments, separator, json_numbers: bool, first, stop):
    """One block of bytes per g row in [first, stop), the row's cells joined at once.

    Row g's cell at gp column j is ``separator(g)``, then the fragment of the
    cell's pair code, ``fragments[code * resolution + j]``, then the cell's eps
    text: ``_g9_text`` of the eps, formatted a tile of ``_RENDER_TILE_CELLS``
    cells at a time. The fragments of a row are copied in by one slice of the
    fragment list per run of the row, so no per-cell code is built. The eps of
    a tile are evaluated for it by ``grid.eps_rows``, so the whole eps field is
    never held; they are NaN exactly on the Forbidden cells, whose text is
    empty. With ``json_numbers`` the cells that ``_needs_json_number`` flags
    take ``_json_number(eps)`` instead.
    """
    res = grid.spec.resolution
    by_code = [fragments[code * res:(code + 1) * res] for code in range(len(_PAIR_TEXTS))]
    g_seps = [separator(g) for g in grid.spec.g_centers().tolist()]
    run_bounds, run_codes = grid.run_bounds.tolist(), grid.run_codes.tolist()
    rows_per_tile = max(1, _RENDER_TILE_CELLS // res)
    parts = [b""] * (3 * res)
    for start in range(first, stop, rows_per_tile):
        tile = slice(start, min(start + rows_per_tile, stop))
        eps = grid.eps_rows(tile)
        texts = _g9_text(eps).tolist()
        if json_numbers:
            for i, j in np.argwhere(_needs_json_number(eps)).tolist():
                texts[i][j] = _json_number(eps[i, j]).encode()
        for sep, bounds, codes, text_row in zip(g_seps[tile], run_bounds[tile],
                                                run_codes[tile], texts):
            parts[0::3] = [sep] * res
            for a, b, code in zip(bounds, bounds[1:], codes):
                if a < b:
                    parts[3 * a + 1:3 * b + 1:3] = by_code[code][a:b]
            parts[2::3] = text_row
            yield b"".join(parts)


def _split_rows(rows, res: int):
    """The blocks of ``rows(0, res)``; from ``_SPLIT_CELLS`` cells on 2 CPUs a forked worker
    renders the lower half meanwhile into an unlinked temporary file, read back in 1 MiB
    blocks. Where it exits other than with 0, for an ``OSError`` or anything else, its rows
    are rendered here; it is killed and reaped on every way out."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    half, pid, tmp = res, -1, None
    if hasattr(os, "fork") and len(cpus) >= 2 and res * res >= _SPLIT_CELLS:
        with contextlib.suppress(OSError):  # without the file or the fork, all is done here
            tmp = tempfile.TemporaryFile()
            # from Python 3.12 a fork with threads (numpy's BLAS pool) warns after it:
            with warnings.catch_warnings():  # raised, the warning would lose the pid
                warnings.simplefilter("ignore", DeprecationWarning)
                half, pid = res // 2, os.fork()
    if pid == 0:
        try:
            tmp.writelines(rows(half, res))
            tmp.flush()
            os._exit(0)
        finally:
            os._exit(1)
    try:
        yield from rows(0, half)
        if pid > 0:
            code, pid = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), -1
            tmp.seek(0)
            yield from rows(half, res) if code else iter(partial(tmp.read, 1 << 20), b"")
    finally:
        if pid > 0:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        if tmp is not None:
            tmp.close()


def _render_scan_csv(grid: ScanGrid):
    """CSV bytes in blocks: the header, then one block per g row. Each row
    starts with the newline that ends the line before it."""
    gps = [fmt(gp) for gp in grid.spec.gp_centers().tolist()]
    fragments = [f"{gp},{kind},{act},".encode() for kind, act in _PAIR_TEXTS for gp in gps]
    rows = partial(_scan_rows, grid, fragments, lambda g: f"\n{fmt(g)},".encode(), False)
    yield b"g,gp,env_class,activation,eps"
    yield from _split_rows(rows, grid.spec.resolution)
    yield b"\n"


def _render_scan_json(grid: ScanGrid):
    """JSON bytes in the layout of ``json.dumps(..., indent=2)``, in blocks:
    the spec and summary, then one block per g row of cells, then the closing
    brackets. Each cell starts with the close of the cell before it."""
    spec = grid.spec
    # counted from the runs, in pair-code order: nothing grid-sized is allocated here
    counts = {f"{kind}/{act}": count for (kind, act), count in zip(_PAIR_TEXTS, grid.counts)}
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
        for code, (kind, act) in enumerate(_PAIR_TEXTS) for gp in gps
    ]

    def separator(g):  # closes the cell before, opens this one
        return f'\n    }},\n    {{\n      "g": {_json_number(g)},\n      '.encode()

    rows = _split_rows(partial(_scan_rows, grid, fragments, separator, True), spec.resolution)
    yield next(rows)[len(b"\n    },"):]  # no cell closes before the first
    yield from rows
    yield b"\n    }\n  ]\n}\n"
