import ast
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import entdist
import entdist.render
from entdist import Activation, EnvKind, Protocol, ScanSpec, eb_threshold, eps_field, scan
from entdist.cli import (EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, OUTPUT_ENV_VAR, _finite_eps,
                         _json_ready, fmt, main)
from entdist.render import (_RENDER_TILE_CELLS, _g9_text, _json_number, _needs_json_number,
                            _render_scan_csv, _render_scan_json)
from entdist.scanner import ScanGrid

from conftest import ACTIVATION_CODE, KIND_CODE, random_bona_fide_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment for a fresh interpreter that imports this checkout's entdist."""
    src = os.path.dirname(os.path.dirname(entdist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(OUTPUT_ENV_VAR, None)
    return env


def parse_point_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


class TestPoint:
    def test_distillable_separable_point(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--tau", "0.75", "--at-eb",
                               "--g", "6", "--gp", "-6")
        assert code == EXIT_OK
        report = parse_point_csv(out)
        assert report["env_class"] == "Separable"
        assert float(report["env_pts"]) == 1.0
        assert float(report["direct_eps"]) == 0.25
        assert float(report["swap_eps"]) == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert report["direct_distillable"] == "true"
        assert report["swap_distillable"] == "true"

    def test_memoryless_point_no_activation(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--tau", "0.5", "--at-eb",
                               "--g", "0", "--gp", "0")
        assert code == EXIT_OK
        report = parse_point_csv(out)
        assert float(report["direct_eps"]) == 1.5
        assert float(report["swap_eps"]) == 3.0
        assert report["direct_entangling"] == "false"
        assert report["swap_entangling"] == "false"

    def test_finite_mu_block(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--tau", "0.75", "--at-eb",
                               "--g", "4", "--gp", "-4", "--mu", "1e6",
                               "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["direct_eps_finite"] == pytest.approx(0.75, rel=1e-3)
        assert report["direct_eps_rel_error"] < 1e-3
        assert report["swap_eps_rel_error"] < 1e-3

    def test_omega_below_one_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "point", "--tau", "0.5", "--omega", "0.5",
                               "--g", "0", "--gp", "0")
        assert code == EXIT_USAGE
        assert "omega" in err

    def test_forbidden_point_prints_failing_condition(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--tau", "0.5", "--omega", "2",
                               "--g", "1.9", "--gp", "1.9")
        assert code == EXIT_DOMAIN
        report = parse_point_csv(out)
        assert report["env_class"] == "Forbidden"
        assert "omega^2 + g*gp" in report["bona_fide_failures"]

    def test_forbidden_point_at_large_omega_prints_a_product_below_one(self, capsys):
        # the expanded sides both round to 1.99999999e+16 here, which read
        # "1.99999999e+16 < 1.99999999e+16"
        code, out, _ = run_cli(capsys, "point", "--tau", "0.5", "--omega", "1e8",
                               "--g", "99999999.5", "--gp", "99999999.5")
        assert code == EXIT_DOMAIN
        failures = parse_point_csv(out)["bona_fide_failures"]
        assert "omega^2 + g*gp" in failures
        printed = re.findall(r"= (\S+) < 1\b", failures)
        assert printed == ["0.25"]

    def test_omega_and_at_eb_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "point", "--tau", "0.5", "--omega", "2",
                             "--at-eb", "--g", "0", "--gp", "0")
        assert code == EXIT_USAGE

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_physical_point_checks_its_environment_once(self, capsys, monkeypatch):
        calls = []
        conditions = entdist.environment.bona_fide_conditions

        def counted(*args):
            calls.append(args)
            return conditions(*args)

        monkeypatch.setattr(entdist.environment, "bona_fide_conditions", counted)
        code, _, _ = run_cli(capsys, "point", "--tau", "0.75", "--at-eb",
                             "--g", "5", "--gp=-5", "--mu", "1e3")
        assert code == EXIT_OK
        assert len(calls) == 1


class TestScanCommand:
    def test_minimal_grid(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--tau", "0.5", "--at-eb",
                               "--protocol", "direct", "--resolution", "2")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "g,gp,env_class,activation,eps"
        assert len(lines) == 5

    def test_csv_round_trip_reconstructs_summary(self, capsys, tmp_path):
        from entdist import Protocol, ScanSpec, scan

        path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "scan", "--tau", "0.75", "--at-eb",
                             "--protocol", "swap", "--resolution", "61",
                             "-o", str(path))
        assert code == EXIT_OK
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        counts = Counter((row["env_class"], row["activation"]) for row in rows)
        grid = scan(ScanSpec(tau=0.75, protocol=Protocol.SWAP, resolution=61))
        expected = {(kind.value, act.value): n for (kind, act), n in grid.summary.items()}
        assert dict(counts) == expected

    def test_json_mirrors_grid(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--tau", "0.5", "--omega", "2",
                               "--protocol", "environment", "--resolution", "5",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["spec"]["resolution"] == 5
        assert payload["summary"]["total"] == 25
        assert len(payload["cells"]) == 25
        assert sum(payload["summary"]["counts"].values()) == 25
        for cell in payload["cells"]:
            assert cell["activation"] == "None"

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for path in paths:
            code, _, _ = run_cli(capsys, "scan", "--tau", "0.9", "--at-eb",
                                 "--protocol", "direct", "--resolution", "101",
                                 "-o", str(path))
            assert code == EXIT_OK
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    # SHA-256 of known-good scan output: any byte change in classification,
    # number formatting or layout fails
    GOLDEN_WINDOWS = {
        "eb": ("--tau", "0.75", "--at-eb"),
        "window": ("--tau", "0.6", "--omega", "2.5", "--g-min", "-2", "--g-max", "3",
                   "--gp-min", "-2.7", "--gp-max", "1.9"),
    }
    GOLDEN_SHA256 = {
        ("direct", "csv", "eb"): "d6eb11122055152eadadc4cf776c5f23b8c258001c80ba0903d570d5f75dd9e5",
        ("direct", "csv", "window"): "fad1dd3228eaae11f31c120c0ec369f311a70abd07fbdbc390b55c3d6fd1b4a5",
        ("direct", "json", "eb"): "8c4efab06f7134bf6a091eb9834cc9ec052f8a07fd4f037e38f7ed0e3b8f794a",
        ("direct", "json", "window"): "c2de810a7b38b1ce48e1f0e26d108f59879eade2b4151183c8067c3256886c50",
        ("swap", "csv", "eb"): "fa7d9127eefe8b87a36caf8374d320d5f350d103d5558850810322bcb698792b",
        ("swap", "csv", "window"): "88160ac7e37126f9d0270bc6fca3fe57babe8514c1872f44ec3458880936c20c",
        ("swap", "json", "eb"): "20f45abebc5f2ba0a420f6ac1480257a641f44ec0b33f140b766b27c137312bc",
        ("swap", "json", "window"): "11f7af9ec4eab5ad30ca93f6a2a742c52f68f599e37b084d0287aa14512712f9",
        ("environment", "csv", "eb"): "9710db98ba9ac89f7a71325e7ebb36b22e6b720f1888209b8b9446f62c12cb09",
        ("environment", "csv", "window"): "0d3c250f10a19248a4f14b1facb8fae303cf6997f2a560b435ed057b0ab0fdc5",
        ("environment", "json", "eb"): "9c8b82810143e3ba6cb704b0d345a99e086c3362a74786589cf7cfa3b10f3318",
        ("environment", "json", "window"): "8503490ac177649b8ba10cba78e7e1d3c72a2fab5eda5a4feff19adb4e52cafd",
    }

    @pytest.mark.parametrize("protocol, fmt_kind, window", sorted(GOLDEN_SHA256))
    def test_output_matches_golden_digest(self, capsys, protocol, fmt_kind, window):
        code, out, _ = run_cli(capsys, "scan", *self.GOLDEN_WINDOWS[window],
                               "--protocol", protocol, "--resolution", "61",
                               "--format", fmt_kind)
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.GOLDEN_SHA256[(protocol, fmt_kind, window)]

    @pytest.mark.parametrize("protocol, fmt_kind, window", sorted(GOLDEN_SHA256))
    def test_golden_digest_across_tile_seams(self, capsys, monkeypatch, protocol, fmt_kind,
                                             window):
        # at 61^2 each golden case is one render tile; here the 61 rows are
        # rendered 3 at a time (20 tiles and 1 row), each tile's eps and
        # physical mask taken from the scan's runs on its own rows
        monkeypatch.setattr(entdist.render, "_RENDER_TILE_CELLS", 3 * 61 + 5)
        code, out, _ = run_cli(capsys, "scan", *self.GOLDEN_WINDOWS[window],
                               "--protocol", protocol, "--resolution", "61",
                               "--format", fmt_kind)
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.GOLDEN_SHA256[(protocol, fmt_kind, window)]

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", "--tau", "0.5", "--at-eb",
                               "--protocol", "direct", "--resolution", "2",
                               "-o", str(tmp_path / "missing" / "grid.csv"))
        assert code == EXIT_IO
        assert err

    def test_bad_resolution(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--tau", "0.5", "--at-eb",
                             "--protocol", "direct", "--resolution", "1")
        assert code == EXIT_USAGE

    def test_resolution_too_large_for_memory_is_usage_error(self, capsys, tmp_path,
                                                             monkeypatch):
        # numpy raised _ArrayMemoryError ("Unable to allocate 71.1 PiB") at 1e8,
        # a traceback and exit 1; the stub raises it without allocating the grid
        def scan_out_of_memory(spec):
            raise MemoryError
        monkeypatch.setattr("entdist.cli.scan", scan_out_of_memory)
        target = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "scan", "--tau", "0.5", "--at-eb", "--protocol",
                                 "direct", "--resolution", "100000000", "-o", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert "resolution 100000000" in err and "Traceback" not in err
        assert not target.exists()

    def test_resolution_too_large_for_memory_is_refused_up_front(self, capsys, tmp_path):
        # the real path: the scan holds O(resolution) runs, so no grid-sized
        # allocation fails at 1e8 any more; the scan refuses a grid whose
        # one-byte cell codes exceed the physical memory, before anything of
        # its size is built and before the output opens
        target = tmp_path / "out.csv"
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "scan", "--tau", "0.5", "--at-eb", "--protocol",
                                     "direct", "--resolution", "100000000", "-o", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: resolution 100000000 is too large to fit in memory\n"
        assert not target.exists()
        assert peak < 2**20

    def test_partial_range_flags(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--tau", "0.5", "--at-eb",
                             "--protocol", "direct", "--g-min", "-1")
        assert code == EXIT_USAGE

    def test_low_tau_swap_emits_no_separable_activated_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--tau", "0.3", "--at-eb",
                               "--protocol", "swap", "--resolution", "101")
        assert code == EXIT_OK
        for row in csv.DictReader(io.StringIO(out)):
            if row["env_class"] == "Separable":
                assert row["activation"] == "None"

    def test_high_tau_direct_emits_separable_distillable_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--tau", "0.9", "--at-eb",
                               "--protocol", "direct", "--resolution", "201")
        assert code == EXIT_OK
        rows = csv.DictReader(io.StringIO(out))
        assert any(r["env_class"] == "Separable" and r["activation"] == "Distillable"
                   for r in rows)

    def test_output_env_var_default(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "from_env.csv"
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(target))
        code, out, _ = run_cli(capsys, "scan", "--tau", "0.5", "--at-eb",
                               "--protocol", "direct", "--resolution", "2")
        assert code == EXIT_OK
        assert out == ""
        assert target.exists()

    def test_empty_output_env_var_means_stdout(self, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, "")
        code, out, err = run_cli(capsys, "scan", "--tau", "0.8", "--at-eb",
                                 "--protocol", "direct", "--resolution", "3")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("g,gp,env_class,activation,eps\n")
        assert len(out.splitlines()) == 1 + 3 * 3

    def test_stdout_without_a_binary_buffer(self, monkeypatch):
        # a text stream such as io.StringIO has no bytes layer under it
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stream)
        code = main(["scan", "--tau", "0.8", "--at-eb", "--protocol", "swap", "--resolution", "3",
                     "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(stream.getvalue())["summary"]["total"] == 9

    def test_environment_class_agrees_with_env_pts_at_large_omega(self, capsys):
        # near the corners at omega = 1e8 the expanded separability and
        # uncertainty forms lost their "- 1" to the rounding of omega^2 and
        # labelled 884 of these 1681 cells against their own env PTS
        code, out, _ = run_cli(capsys, "scan", "--tau", "0.9", "--omega", "1e8",
                               "--g-min", "99999998", "--g-max", "1e8",
                               "--gp-min=-1e8", "--gp-max=-99999998",
                               "--protocol", "environment", "--resolution", "41")
        assert code == EXIT_OK
        rows = [row for row in csv.DictReader(io.StringIO(out))
                if row["env_class"] != "Forbidden"]
        assert len(rows) == 41 * 41
        assert {row["env_class"] for row in rows} == {"Separable", "Entangled"}
        for row in rows:
            assert (row["env_class"] == "Separable") == (float(row["eps"]) >= 1.0), row


def reference_scan_output(spec, fmt_kind):
    """Scan output rendered whole, by ``json.dumps(indent=2)`` over cell dicts for
    JSON and by joining rows with newlines for CSV."""
    grid, field = scan(spec), eps_field(spec)
    kinds = {code: kind for kind, code in KIND_CODE.items()}
    activations = {code: act for act, code in ACTIVATION_CODE.items()}
    cells = []
    for i, g in enumerate(spec.g_centers()):
        for j, gp in enumerate(spec.gp_centers()):
            kind = kinds[grid.kind[i, j]]
            eps = None if kind is EnvKind.FORBIDDEN else float(field[i, j])
            cells.append({"g": float(g), "gp": float(gp), "env_class": kind.value,
                          "activation": activations[grid.activation[i, j]].value, "eps": eps})
    if fmt_kind == "csv":
        lines = ["g,gp,env_class,activation,eps"]
        lines.extend(f"{fmt(c['g'])},{fmt(c['gp'])},{c['env_class']},{c['activation']},"
                     f"{'' if c['eps'] is None else fmt(c['eps'])}" for c in cells)
        return "\n".join(lines) + "\n"
    counts = {f"{kind.value}/{act.value}": grid.summary.get((kind, act), 0)
              for kind in EnvKind for act in Activation}
    payload = {
        "spec": {
            "tau": spec.tau,
            "omega": spec.omega_value,
            "at_eb": spec.omega is None,
            "protocol": spec.protocol.value,
            "g_range": list(spec.g_range),
            "gp_range": list(spec.gp_range),
            "resolution": spec.resolution,
        },
        "summary": {"total": len(cells), "counts": counts,
                    "fractions": {key: n / len(cells) for key, n in counts.items()}},
        "cells": cells,
    }
    return json.dumps(_json_ready(payload), indent=2) + "\n"


def refuse_constant(name):
    raise AssertionError(f"scan JSON holds {name}")


class TestStreamedScanOutput:
    # window name -> (flags, matching ScanSpec keywords)
    WINDOWS = {
        "eb": (("--tau", "0.75", "--at-eb"), {"tau": 0.75}),
        # centers -2, 0, 2 at resolution 3: JSON prints -2.0, CSV prints -2
        "integer_centers": (("--tau", "0.6", "--omega", "4", "--g-min", "-3", "--g-max", "3",
                             "--gp-min", "-3", "--gp-max", "3"),
                            {"tau": 0.6, "omega": 4.0, "g_range": (-3.0, 3.0),
                             "gp_range": (-3.0, 3.0)}),
        # hugs g -> omega, gp -> -omega: eps below 1e-4 (exponent form) next to
        # Forbidden cells; the expanded env PTS radicand cancels to nan or 0 here
        "corner": (("--tau", "0.9", "--omega", "1e4", "--g-min", "9999.9997", "--g-max", "1e4",
                    "--gp-min=-1e4", "--gp-max=-9999.9997"),
                   {"tau": 0.9, "omega": 1e4, "g_range": (9999.9997, 1e4),
                    "gp_range": (-1e4, -9999.9997)}),
        # eps above 1e9: "%.9g" prints 1.41421356e+12, JSON 1414213560000.0
        "large_eps": (("--tau", "0.5", "--omega", "1e12"), {"tau": 0.5, "omega": 1e12}),
        # eps 3 at the origin (2 at (1, -1)): "%.9g" prints 3, JSON 3.0
        "integral_eps": (("--tau", "0.5", "--omega", "3", "--g-min=-2", "--g-max", "2",
                          "--gp-min=-2", "--gp-max", "2"),
                         {"tau": 0.5, "omega": 3.0, "g_range": (-2.0, 2.0),
                          "gp_range": (-2.0, 2.0)}),
        # eps on both sides of 1e-4, where "%.9g" turns from 0.0001... to 9.99...e-05
        "eps_near_1e-4": (("--tau", "0.9", "--omega", "1e4", "--g-min", "9999.997",
                           "--g-max", "1e4", "--gp-min=-1e4", "--gp-max=-9999.997"),
                          {"tau": 0.9, "omega": 1e4, "g_range": (9999.997, 1e4),
                           "gp_range": (-1e4, -9999.997)}),
        # eps on both sides of 1e9, where "%.9g" turns from 999999999 to 1e+09
        "eps_near_1e9": (("--tau", "0.5", "--omega", "1.5e9"), {"tau": 0.5, "omega": 1.5e9}),
    }
    # the windows whose eps straddle a change of notation, with the value where it changes
    NOTATION_BOUNDARIES = {"eps_near_1e-4": 1e-4, "eps_near_1e9": 1e9}
    # JSON windows that reach the row renderer's _json_number path: the
    # protocols where they do, and the eps text that shows it
    JSON_NUMBER_PATHS = {
        "large_eps": ({"direct", "swap", "environment"}, r'"eps": \d{10,}\.0\n'),
        "integral_eps": ({"swap", "environment"}, r'"eps": \d+\.0\n'),
    }
    PROTOCOLS = {"direct": Protocol.DIRECT, "swap": Protocol.SWAP,
                 "environment": Protocol.ENVIRONMENT_ONLY}

    @pytest.mark.parametrize("resolution", [2, 3, 61])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("fmt_kind", ["csv", "json"])
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_matches_whole_rendering(self, capsys, protocol, fmt_kind, window, resolution):
        flags, spec_kwargs = self.WINDOWS[window]
        code, out, _ = run_cli(capsys, "scan", *flags, "--protocol", protocol,
                               "--resolution", str(resolution), "--format", fmt_kind)
        assert code == EXIT_OK
        spec = ScanSpec(protocol=self.PROTOCOLS[protocol], resolution=resolution, **spec_kwargs)
        assert out == reference_scan_output(spec, fmt_kind)
        if fmt_kind == "json":
            json.loads(out, parse_constant=refuse_constant)
        if window == "corner" and protocol != "environment":
            assert re.search(r"\d+e-0\d", out)
        protocols, pattern = self.JSON_NUMBER_PATHS.get(window, ((), None))
        if fmt_kind == "json" and protocol in protocols:
            assert _needs_json_number(eps_field(spec)).any()
            assert re.search(pattern, out)

    @pytest.mark.parametrize("window", sorted(NOTATION_BOUNDARIES))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_boundary_windows_straddle_the_boundary(self, protocol, window):
        spec = ScanSpec(protocol=self.PROTOCOLS[protocol], resolution=61, **self.WINDOWS[window][1])
        eps = eps_field(spec)
        eps = eps[np.isfinite(eps)]
        assert eps.min() < self.NOTATION_BOUNDARIES[window] < eps.max()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_cell_numbers_are_json_dumps_of_rounded_values(self, x):
        assert _json_number(x) == json.dumps(float(fmt(x))) == repr(float(fmt(x)))
        assert "%.9g" % x == fmt(x)  # the CSV fragments' eps slot

    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    @example(999999999.5)
    @example(99999999.99999)
    @example(123456789.0)
    @example(0.99999999996)
    @example(1e16)
    @example(1.5e-5)
    def test_unflagged_numbers_print_the_same_with_percent_g(self, x):
        # the JSON fragments' "%.9g" slot is exact wherever no fix-up is flagged
        if not _needs_json_number(x):
            assert "%.9g" % x == _json_number(x)

    @pytest.mark.parametrize("x", [0.0, 2.0, 3.0000000001, 999999999.5, 1e9, 1.41421356e12])
    def test_numbers_that_differ_are_flagged(self, x):
        assert "%.9g" % x != _json_number(x)
        assert _needs_json_number(x)

    def test_nan_is_not_flagged(self):
        # Forbidden cells carry NaN eps and render "null"
        assert not _needs_json_number(math.nan)


def percent_g(values):
    return [b"%.9g" % value for value in values]


def eps_text(values):
    """``_g9_text`` of every value."""
    return _g9_text(np.array(values, dtype=float)).tolist()


class InjectedEpsGrid(ScanGrid):
    """A ScanGrid whose eps rows are the given array ``eps``, not the eps of its spec."""

    def __init__(self, spec, kind, activation, eps):
        # every cell a run of its own
        bounds = np.tile(np.arange(spec.resolution + 1), (spec.resolution, 1))
        super().__init__(spec, bounds, kind * 3 + activation)
        object.__setattr__(self, "injected", eps)

    def eps_rows(self, rows):
        return self.injected[rows]


class TestEpsText:
    """``_g9_text`` formats a tile of eps at once, exactly as ``"%.9g"`` does, and
    NaN, the eps of a Forbidden cell, as empty text."""

    finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)

    @given(st.lists(finite, max_size=40))
    def test_equals_percent_g(self, values):
        assert eps_text(values) == percent_g(values)

    @given(st.integers(10**9, 10**10 - 1), st.integers(-14, 0))
    def test_equals_percent_g_next_to_half_way_points(self, digits, exponent):
        # a 10-digit decimal ending in 5 lies half way between two 9-digit ones
        values = [float(f"{digits}e{exponent}"), float(f"{digits // 10}5e{exponent}")]
        values += [np.nextafter(v, to) for v in values for to in (0.0, math.inf)]
        assert eps_text(values) == percent_g(values)

    EDGES = [
        0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308,
        *(np.nextafter(10.0**k, to) for k in range(-6, 11) for to in (0.0, 10.0**k, math.inf)),
        # 9-digit half-way points
        1.0000000005, 9.9999999995e-05, 999999999.5, 1.000000005, 1.000000015, 0.1000000005,
        0.0001000000005, 123456789.5, 100000000.5, 99999999.5, 5e-05,
        # round up to the next power of ten
        9.9999999996, 0.99999999996, 99999999.999, 999999999.9, 9.99999999999e-05,
        0.000999999999996, 99999.99999999,
        # integral, trailing zeros, and zeros inside the integer part
        1.0, 3.0, 100.0, 120000000.0, 100000000.0, 10.5, 0.5, 0.25, 1.2e-4, 0.00012,
    ]

    def test_edges(self):
        assert eps_text(self.EDGES) == percent_g(self.EDGES)

    def test_non_finite_and_negative_values(self):
        values = [math.inf, -math.inf, -1.5, -0.0, -1e-300]
        assert eps_text(values) == percent_g(values)

    def test_nan_is_empty(self):
        x = np.array([[1.5, math.nan], [-math.nan, 3.0]])
        assert _g9_text(x).tolist() == [[b"1.5", b""], [b"", b"3"]]

    @staticmethod
    def assert_scan_eps(values):
        # JSON cells that _needs_json_number flags take _json_number; every
        # other cell's "%.9g" text is the same, so the JSON eps of every cell
        # is _json_number(eps), and the CSV eps fmt(eps). The grid is 4x4
        # Separable cells with the values, repeated, as eps.
        eps = np.resize(np.array(values, dtype=float), (4, 4))
        codes = np.full(eps.shape, KIND_CODE[EnvKind.SEPARABLE], dtype=np.int8)
        spec = ScanSpec(tau=0.5, protocol=Protocol.DIRECT, resolution=4)
        grid = InjectedEpsGrid(spec, codes, np.zeros_like(codes), eps)
        expected = eps.ravel().tolist()
        cells = json.loads(b"".join(_render_scan_json(grid)), parse_float=str)["cells"]
        assert [cell["eps"] for cell in cells] == [_json_number(x) for x in expected]
        rows = csv.DictReader(io.StringIO(b"".join(_render_scan_csv(grid)).decode()))
        assert [row["eps"] for row in rows] == [fmt(x) for x in expected]

    @given(st.lists(finite, min_size=1, max_size=16))
    def test_scan_output_of_every_cell(self, values):
        self.assert_scan_eps(values)

    def test_scan_output_of_flagged_cells(self):
        values = [0.0, 2.0, 3.0000000001, 999999999.5, 1e9, 1.41421356e12, 1e16, 123456789.0]
        assert _needs_json_number(np.array(values)).all()
        self.assert_scan_eps(values)


class TestBrokenPipe:
    """A reader that goes away ends the command with exit code 4 and one line
    on stderr, whether or not stdout is buffered."""

    @staticmethod
    def run_into_closed_pipe(argv, read, unbuffered):
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen([sys.executable, "-m", "entdist.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.read(read)  # like `| head -c 100`, or `| true` for 0
            proc.stdout.close()
            err = proc.stderr.read().decode()
            return proc.wait(timeout=60), err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, read", [
        (["scan", "--tau", "0.8", "--at-eb", "--protocol", "direct", "--resolution", "1001"], 100),
        (["converge", "--tau", "0.75", "--at-eb", "--g", "6", "--gp", "-6",
          "--protocol", "direct"], 0),
    ], ids=["scan_head", "converge_true"])
    def test_exit_code_and_one_line(self, argv, read, unbuffered):
        code, err = self.run_into_closed_pipe(argv, read, unbuffered)
        assert code == EXIT_IO
        assert err == "error: [Errno 32] Broken pipe\n"


class TestOutputFile:
    """An output file is written over in place and cut at the end of the new
    bytes: whatever it held before, it ends up holding exactly what a fresh
    write gives, or on an error exactly the bytes written before it."""

    ARGV = {
        "scan": ["scan", "--tau", "0.8", "--at-eb", "--protocol", "swap", "--resolution", "41"],
        "point": ["point", "--tau", "0.75", "--at-eb", "--g", "6", "--gp", "-6", "--mu", "100"],
        "converge": ["converge", "--tau", "0.75", "--at-eb", "--g", "6", "--gp", "-6",
                     "--protocol", "direct"],
    }

    @classmethod
    def fresh(cls, tmp_path, command, fmt_kind="csv"):
        path = tmp_path / f"fresh.{fmt_kind}"
        assert main([*cls.ARGV[command], "--format", fmt_kind, "-o", str(path)]) == EXIT_OK
        return path.read_bytes()

    @pytest.mark.parametrize("old_size", [lambda n: 3 * n + 4097, lambda n: n // 2],
                             ids=["longer", "shorter"])
    @pytest.mark.parametrize("fmt_kind", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_rewrite_matches_a_fresh_write(self, tmp_path, command, fmt_kind, old_size):
        expected = self.fresh(tmp_path, command, fmt_kind)
        path = tmp_path / f"rerun.{fmt_kind}"
        path.write_bytes(b"\xff" * old_size(len(expected)))
        assert main([*self.ARGV[command], "--format", fmt_kind, "-o", str(path)]) == EXIT_OK
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                     KeyboardInterrupt(), RuntimeError("renderer failed")],
                             ids=["os_error", "keyboard_interrupt", "runtime_error"])
    def test_failing_renderer_leaves_the_blocks_before_it(self, capsys, tmp_path, monkeypatch,
                                                           exc):
        blocks = [b"g,gp,env_class,activation,eps", b"\n0,0,Separable,None,1"]

        def render(grid):
            yield from blocks
            raise exc
        monkeypatch.setattr("entdist.render._render_scan_csv", render)
        path = tmp_path / "grid.csv"
        path.write_bytes(b"\xff" * 100000)
        argv = [*self.ARGV["scan"], "-o", str(path)]
        if isinstance(exc, OSError):
            assert run_cli(capsys, *argv) == (EXIT_IO, "", f"error: {exc}\n")
        else:  # not an error of the command: it propagates, as from open(path, "wb")
            with pytest.raises(type(exc)):
                main(argv)
        assert path.read_bytes() == b"".join(blocks)

    @pytest.mark.parametrize("command", ["point", "scan"])
    def test_full_disk_cuts_at_the_last_byte_written(self, capsys, tmp_path, monkeypatch,
                                                     command):
        """The file takes 300 bytes, then every write fails with ENOSPC: in the
        final flush for the short `point` table, while the blocks are written
        for the scan."""
        limit = 300

        class FullAfterLimit(io.FileIO):
            def write(self, data):
                room = limit - self.tell()
                if room <= 0:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(memoryview(data)[:room])
        expected = self.fresh(tmp_path, command)
        assert len(expected) > limit
        monkeypatch.setattr(entdist.cli, "open", raising=False,
                            value=lambda fd, mode: io.BufferedWriter(FullAfterLimit(fd, mode)))
        path = tmp_path / "grid.csv"
        path.write_bytes(b"\xff" * (3 * len(expected)))
        code, out, err = run_cli(capsys, *self.ARGV[command], "-o", str(path))
        assert (code, out, err) == (EXIT_IO, "", "error: [Errno 28] No space left on device\n")
        assert path.read_bytes() == expected[:limit]

    @pytest.mark.parametrize("device, exit_code, err", [
        ("/dev/null", EXIT_OK, ""),
        ("/dev/full", EXIT_IO, "error: [Errno 28] No space left on device\n"),
    ])
    def test_device(self, capsys, device, exit_code, err):
        assert run_cli(capsys, *self.ARGV["scan"], "-o", device) == (exit_code, "", err)

    def test_fifo_receives_every_byte(self, tmp_path):
        expected = self.fresh(tmp_path, "scan")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code = main([*self.ARGV["scan"], "-o", str(fifo)])
        reader.join(timeout=60)
        assert code == EXIT_OK
        assert received == [expected]
        assert len(expected) > 65536  # more than a pipe buffer holds

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_bytes(b"\xff" * 100000)
        path.chmod(0o640)
        assert main([*self.ARGV["scan"], "-o", str(path)]) == EXIT_OK
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_bytes() == self.fresh(tmp_path, "scan")

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        path = tmp_path / "grid.csv"
        umask = os.umask(0o027)
        try:
            code = main([*self.ARGV["scan"], "-o", str(path)])
        finally:
            os.umask(umask)
        assert code == EXIT_OK
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_symlink_is_followed(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"\xff" * 100000)
        link.symlink_to(target)
        assert main([*self.ARGV["scan"], "-o", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert target.read_bytes() == self.fresh(tmp_path, "scan")

    def test_failing_scan_leaves_the_file_unchanged(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        old = self.fresh(tmp_path, "scan")
        path.write_bytes(old)
        code, _, _ = run_cli(capsys, *self.ARGV["scan"], "--resolution", "1", "-o", str(path))
        assert code == EXIT_USAGE
        assert path.read_bytes() == old


class TestSplitRender:
    """Scans whose lower half of g rows a forked worker renders meanwhile
    (``render._split_rows``). The ``worker`` fixture shows the process 2 CPUs and
    lists the pid of each worker forked; ``split`` also lowers the threshold to
    0 cells, so that every scan forks one, on any machine."""

    ARGV = TestOutputFile.ARGV["scan"]  # 41 g rows: 0-19 here, 20-40 in the worker
    ABOVE_THRESHOLD = ["scan", "--tau", "0.75", "--at-eb", "--protocol", "direct",
                       "--resolution", "451"]
    NO_SPACE = "error: [Errno 28] No space left on device\n"

    @pytest.fixture
    def worker(self, monkeypatch):
        pids, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return pids

    @pytest.fixture
    def split(self, monkeypatch, worker):
        monkeypatch.setattr(entdist.render, "_SPLIT_CELLS", 0)
        return worker

    @staticmethod
    def assert_one_reaped(pids):
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)

    @staticmethod
    def whole(monkeypatch, tmp_path, argv):
        """The bytes of a scan rendered in this process alone."""
        path = tmp_path / "whole.out"
        with monkeypatch.context() as patch:
            patch.setattr(entdist.render, "_SPLIT_CELLS", math.inf)
            assert main([*argv, "-o", str(path)]) == EXIT_OK
        return path.read_bytes()

    @pytest.mark.parametrize("tile_cells", [_RENDER_TILE_CELLS, 3 * 61 + 5],
                             ids=["one_tile", "tile_seams"])
    @pytest.mark.parametrize("protocol, fmt_kind, window",
                             sorted(TestScanCommand.GOLDEN_SHA256))
    def test_golden_digest(self, capsys, monkeypatch, split, protocol, fmt_kind, window,
                           tile_cells):
        # 61 g rows: 30 here, then the worker's 31
        monkeypatch.setattr(entdist.render, "_RENDER_TILE_CELLS", tile_cells)
        code, out, _ = run_cli(capsys, "scan", *TestScanCommand.GOLDEN_WINDOWS[window],
                               "--protocol", protocol, "--resolution", "61",
                               "--format", fmt_kind)
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == TestScanCommand.GOLDEN_SHA256[(protocol, fmt_kind, window)]
        self.assert_one_reaped(split)

    # omega is 7 at tau 0.75 on the EB threshold, so only the g rows with
    # |g| < 7 hold physical cells
    WINDOWS = {
        "smallest": ("--resolution", "2"),
        "odd": ("--resolution", "7"),
        "lower_half_forbidden": ("--resolution", "31", "--g-min", "-7", "--g-max", "40",
                                 "--gp-min", "-7", "--gp-max", "7"),
        "upper_half_forbidden": ("--resolution", "31", "--g-min", "-40", "--g-max", "7",
                                 "--gp-min", "-7", "--gp-max", "7"),
    }

    @pytest.mark.parametrize("fmt_kind", ["csv", "json"])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_same_bytes_as_one_process(self, capsys, monkeypatch, tmp_path, split, window,
                                       fmt_kind):
        argv = ["scan", "--tau", "0.75", "--at-eb", "--protocol", "swap", "--format", fmt_kind,
                *self.WINDOWS[window]]
        expected = self.whole(monkeypatch, tmp_path, argv)
        assert split == []
        code, out, err = run_cli(capsys, *argv)
        assert (code, out.encode(), err) == (EXIT_OK, expected, "")
        self.assert_one_reaped(split)

    def test_stdout_above_the_threshold(self, monkeypatch, tmp_path):
        # a fresh interpreter writing to a real stdout: the worker leaves
        # without flushing the head that it inherits in the stdout buffer
        assert 451**2 >= entdist.render._SPLIT_CELLS
        expected = self.whole(monkeypatch, tmp_path, self.ABOVE_THRESHOLD)
        script = ("import os, sys\n"
                  "from entdist import cli\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "fork, forks = os.fork, []\n"
                  "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "sys.stderr.write(f'{code} {len(forks)}')\n")
        proc = subprocess.run([sys.executable, "-c", script, *self.ABOVE_THRESHOLD, "-o", "-"],
                              capture_output=True, env=subprocess_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"0 1")
        assert proc.stdout == expected

    def test_fifo_above_the_threshold(self, monkeypatch, tmp_path, worker):
        expected = self.whole(monkeypatch, tmp_path, self.ABOVE_THRESHOLD)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code = main([*self.ABOVE_THRESHOLD, "-o", str(fifo)])
        reader.join(timeout=60)
        assert code == EXIT_OK
        assert received == [expected]
        self.assert_one_reaped(worker)

    def test_full_output_device_reaps_the_worker(self, capsys, split):
        assert run_cli(capsys, *self.ARGV, "-o", "/dev/full") == (EXIT_IO, "", self.NO_SPACE)
        self.assert_one_reaped(split)

    def test_keyboard_interrupt_reaps_the_worker(self, monkeypatch, tmp_path, split):
        expected = self.whole(monkeypatch, tmp_path, self.ARGV)

        class InterruptedAfter300(io.FileIO):
            def write(self, data):
                room = 300 - self.tell()
                if room <= 0:
                    raise KeyboardInterrupt
                return super().write(memoryview(data)[:room])
        monkeypatch.setattr(entdist.cli, "open", raising=False,
                            value=lambda fd, mode: io.BufferedWriter(
                                InterruptedAfter300(fd, mode)))
        path = tmp_path / "grid.csv"
        # the traceback, held here, keeps every frame of the call alive
        with pytest.raises(KeyboardInterrupt) as interrupt:
            main([*self.ARGV, "-o", str(path)])
        self.assert_one_reaped(split)
        del interrupt
        assert path.read_bytes() == expected[:300]

    @pytest.mark.parametrize("drop", ["close", "del"])
    def test_abandoned_render_reaps_the_worker(self, split, drop):
        grid = scan(ScanSpec(tau=0.8, protocol=Protocol.SWAP, resolution=301))
        blocks = _render_scan_json(grid)
        next(blocks), next(blocks)  # the head, then the first row, which forks
        assert len(split) == 1
        if drop == "close":
            blocks.close()
        else:
            del blocks
        self.assert_one_reaped(split)

    @pytest.mark.parametrize("failure", ["raises", "killed", "enospc"])
    def test_failed_worker_rows_are_rendered_here(self, capsys, monkeypatch, tmp_path, split,
                                                  failure):
        class FailingFile(io.BytesIO):
            def writelines(self, blocks):
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("worker failed")
        expected = self.whole(monkeypatch, tmp_path, self.ARGV)

        def full_file():  # its writes fail with ENOSPC, as on a full TMPDIR
            return open("/dev/full", "w+b")
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            full_file if failure == "enospc" else FailingFile)
        code, out, err = run_cli(capsys, *self.ARGV)
        assert (code, out.encode(), err) == (EXIT_OK, expected, "")
        self.assert_one_reaped(split)

    @pytest.mark.parametrize("target", ["TemporaryFile", "fork"])
    def test_no_file_or_no_fork_renders_here(self, capsys, monkeypatch, tmp_path, split,
                                            target):
        def refuse(*args, **kwargs):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        expected = self.whole(monkeypatch, tmp_path, self.ARGV)
        monkeypatch.setattr(tempfile if target == "TemporaryFile" else os, target, refuse)
        code, out, err = run_cli(capsys, *self.ARGV)
        assert (code, out.encode(), err) == (EXIT_OK, expected, "")
        assert split == []

    def test_fork_warning_keeps_the_worker(self, capsys, monkeypatch, tmp_path, split):
        # from Python 3.12 os.fork() warns in the parent, after forking, where
        # other threads run; under -W error a raised warning would lose the pid
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid
        expected = self.whole(monkeypatch, tmp_path, self.ARGV)
        monkeypatch.setattr(os, "fork", warning_fork)
        code, out, err = run_cli(capsys, *self.ARGV)
        assert (code, out.encode(), err) == (EXIT_OK, expected, "")
        self.assert_one_reaped(split)


class TestScanMemory:
    """Scan output is streamed: the traced peak stays below the size of the file
    written, which the whole-string rendering held several times over."""

    @pytest.mark.parametrize("protocol, fmt_kind, max_ratio", [("swap", "json", 1.0),
                                                               ("direct", "csv", 2.0)])
    def test_traced_peak_below_output_size(self, tmp_path, protocol, fmt_kind, max_ratio):
        path = tmp_path / f"grid.{fmt_kind}"
        argv = ["scan", "--tau", "0.8", "--at-eb", "--protocol", protocol, "--resolution", "301",
                "--format", fmt_kind, "-o", str(path)]
        assert main(argv) == EXIT_OK  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < max_ratio * path.stat().st_size

    def test_scan_peak_near_result_size(self):
        # the scan keeps a few ints per g row, the ends and pair codes of the
        # row's runs, and its temporaries are vectors over the rows or a few
        # per row: its peak is O(resolution), under 512 bytes a row
        spec = ScanSpec(tau=0.8, protocol=Protocol.SWAP, resolution=301)
        scan(spec)  # warm-up
        tracemalloc.start()
        try:
            scan(ScanSpec(tau=0.8, protocol=Protocol.SWAP, resolution=301))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 301

    @pytest.mark.parametrize("protocol", [Protocol.SWAP, Protocol.ENVIRONMENT_ONLY],
                             ids=lambda p: p.name)
    def test_tiled_scan_peak_near_result_size(self, protocol):
        # under 512 KiB at 1001^2, where int8 kind and activation arrays of
        # the grid alone took 2 MB; the spec is new, so its cell centers count
        spec = ScanSpec(tau=0.8, protocol=protocol, resolution=1001)
        scan(spec)  # warm-up
        tracemalloc.start()
        try:
            scan(ScanSpec(tau=0.8, protocol=protocol, resolution=1001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1001

    def test_summary_peak_near_code_size(self):
        # the grid counts the pair codes from its run lengths once, so the
        # summary is read, not counted again over the cells
        grid = scan(ScanSpec(tau=0.8, protocol=Protocol.SWAP, resolution=301))
        counts = np.bincount((grid.kind * 3 + grid.activation).ravel(), minlength=9)
        expected = {(kind, activation): int(counts[3 * k + a])
                    for kind, k in KIND_CODE.items() for activation, a in ACTIVATION_CODE.items()
                    if counts[3 * k + a]}
        assert grid.summary == expected  # also the warm-up
        tracemalloc.start()
        try:
            grid.summary
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * grid.kind.size

    def test_json_head_and_first_tile_allocate_nothing_grid_sized(self):
        # the blocks are rendered while the output file is open, so an
        # allocation that fails there leaves a cut file behind: the head, with
        # its summary, allocates less than the eps of one render tile, and the
        # first row block, which renders the first tile, less than one byte
        # per cell of the grid
        grid = scan(ScanSpec(tau=0.8, protocol=Protocol.SWAP, resolution=3001))
        blocks = _render_scan_json(grid)
        tracemalloc.start()
        try:
            next(blocks)
            head_peak = tracemalloc.get_traced_memory()[1]
            next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert head_peak < 8 * _RENDER_TILE_CELLS
        assert peak < grid.spec.resolution ** 2


class TestInputMagnitude:
    """Numbers above 1e150 in size, and tau below 1e-150, would overflow the plane
    formulas' products."""

    @pytest.mark.parametrize("flag", ["--omega", "--g-min", "--g-max", "--gp-min", "--gp-max"])
    def test_scan(self, capsys, flag):
        argv = {"--tau": "0.5", "--omega": "2", "--g-min": "-1", "--g-max": "1",
                "--gp-min": "-1", "--gp-max": "1"}
        argv[flag] = "1e151" if flag.endswith("max") else "-1e200"
        code, out, err = run_cli(capsys, "scan", "--protocol", "direct", "--resolution", "2",
                                 *(f"{k}={v}" for k, v in argv.items()))
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err and "magnitude" in err

    def test_scan_at_the_limit_is_finite(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--tau", "0.5", "--omega", "1e150",
                               "--protocol", "swap", "--resolution", "3", "--format", "json")
        assert code == EXIT_OK
        cells = json.loads(out, parse_constant=refuse_constant)["cells"]
        assert any(cell["eps"] is not None for cell in cells)

    @pytest.mark.parametrize("flag", ["--omega", "--g", "--gp", "--mu"])
    def test_point(self, capsys, flag):
        argv = {"--tau": "0.75", "--omega": "7", "--g": "4", "--gp": "-4"}
        argv[flag] = "1e200"
        code, out, err = run_cli(capsys, "point", *(f"{k}={v}" for k, v in argv.items()))
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err and "magnitude" in err

    @pytest.mark.parametrize("flag", ["--omega", "--g", "--gp"])
    def test_converge(self, capsys, flag):
        argv = {"--tau": "0.75", "--omega": "7", "--g": "4", "--gp": "-4"}
        argv[flag] = "-1e151"
        code, out, err = run_cli(capsys, "converge", "--protocol", "swap",
                                 *(f"{k}={v}" for k, v in argv.items()))
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err and "magnitude" in err

    @pytest.mark.parametrize("protocol", ["direct", "swap"])
    def test_converge_mu(self, capsys, protocol):
        # before the limit, 1e200 died with an AssertionError (direct) or a
        # LinAlgError (swap) traceback and exit 1
        code, out, err = run_cli(capsys, "converge", "--protocol", protocol, "--tau", "0.5",
                                 "--omega", "7", "--g", "4", "--gp=-4", "--mu", "10", "1e200")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--mu" in err and "magnitude" in err


    @pytest.mark.parametrize("command", [
        ("point", "--g", "0", "--gp", "0"),
        ("scan", "--protocol", "swap", "--resolution", "3"),
        ("scan", "--protocol", "swap", "--resolution", "3", "--format", "json"),
    ], ids=["point", "scan-csv", "scan-json"])
    @pytest.mark.parametrize("tau", ["1e-200", "5e-324"])
    def test_tau_below_its_floor(self, capsys, command, tau):
        # a swap scale (1 - tau)/tau above 1e150 overflowed the eps: scan printed
        # inf cells with exit 0 ("eps": inf in JSON, which is not JSON), and
        # point exited 3 on a physical point
        code, out, err = run_cli(capsys, command[0], "--tau", tau, "--omega", "1e150",
                                 *command[1:])
        assert code == EXIT_USAGE
        assert out == ""
        assert f"argument --tau: transmissivity must lie in [1e-150, 1), got {float(tau)}" in err

    def test_swap_scan_at_the_tau_floor_is_finite(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--tau", "1e-150", "--omega", "1e150",
                               "--protocol", "swap", "--resolution", "3")
        assert code == EXIT_OK
        eps = [float(row["eps"]) for row in csv.DictReader(io.StringIO(out))]
        assert len(eps) == 9 and all(1e299 < x < 2e300 for x in eps)


class TestNonFiniteFlags:
    @pytest.mark.parametrize("flag", ["--tau", "--omega", "--g-min", "--g-max",
                                      "--gp-min", "--gp-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_scan(self, capsys, flag, value):
        argv = {"--tau": "0.5", "--omega": "2", "--g-min": "-1", "--g-max": "1",
                "--gp-min": "-1", "--gp-max": "1"}
        argv[flag] = value
        code, out, err = run_cli(capsys, "scan", "--protocol", "direct", "--resolution", "3",
                                 *(f"{k}={v}" for k, v in argv.items()))
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag", ["--tau", "--omega", "--g", "--gp", "--mu"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_point(self, capsys, flag, value):
        argv = {"--tau": "0.75", "--omega": "7", "--g": "4", "--gp": "-4", "--mu": "100"}
        argv[flag] = value
        code, out, err = run_cli(capsys, "point", *(f"{k}={v}" for k, v in argv.items()))
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("protocol", ["direct", "swap"])
    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_converge(self, capsys, protocol, mu):
        code, out, err = run_cli(capsys, "converge", "--tau", "0.75", "--at-eb",
                                 "--g", "4", "--gp", "-4", "--protocol", protocol,
                                 "--mu", "100", mu)
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err


class TestNegativeNumberFlags:
    """A negative number after a flag is the flag's value however it is spelled:
    argparse alone reads "-5e0", "-5." and "-inf" as option strings, where it
    takes "-5" and "-5.5" for numbers."""

    BASE = {
        "point": ["--tau", "0.75", "--omega", "7", "--g", "5", "--gp", "-5", "--mu", "100"],
        "converge": ["--protocol", "direct", "--tau", "0.75", "--omega", "7", "--g", "5",
                     "--gp", "-5", "--mu", "100"],
        "scan": ["--protocol", "direct", "--resolution", "3", "--tau", "0.5", "--omega", "2",
                 "--g-min", "-1", "--g-max", "1", "--gp-min", "-1", "--gp-max", "1"],
    }

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, argv in BASE.items()
        for flag in argv[::2] if flag not in ("--protocol", "--resolution")])
    @pytest.mark.parametrize("value", ["-5e-1", "-5.", "-1E0", "-inf"])
    def test_reads_as_the_joined_form(self, capsys, command, flag, value):
        argv, at = self.BASE[command], self.BASE[command].index(flag)
        spaced = run_cli(capsys, command, *argv[:at], flag, value, *argv[at + 2:])
        assert "expected one argument" not in spaced[2]
        assert spaced == run_cli(capsys, command, *argv[:at], f"{flag}={value}", *argv[at + 2:])

    @pytest.mark.parametrize("argv, exit_code, err", [
        (["point", "--tau", "0.75", "--at-eb", "--g", "5", "--gp", "-5e0"], EXIT_OK, ""),
        (["point", "--tau", "0.75", "--at-eb", "--g", "5", "--gp", "-5."], EXIT_OK, ""),
        (["scan", "--tau", "0.5", "--at-eb", "--protocol", "direct", "--resolution", "3",
          "--g-min", "-1e3", "--g-max", "1e3"], EXIT_OK, ""),
        (["point", "--tau", "0.75", "--at-eb", "--g", "5", "--gp", "-inf"], EXIT_USAGE,
         "argument --gp: expected a finite number, got '-inf'"),
        (["converge", "--tau", "0.75", "--at-eb", "--g", "5", "--gp", "-5", "--protocol",
          "direct", "--mu", "-1e3"], EXIT_USAGE, "argument --mu: mu must be >= 1"),
        # a later value of --mu, which takes several, is one more value too
        (["converge", "--tau", "0.75", "--at-eb", "--g", "5", "--gp", "-5", "--protocol",
          "direct", "--mu", "10", "-1e3"], EXIT_USAGE, "argument --mu: mu must be >= 1"),
        (["converge", "--tau", "0.75", "--at-eb", "--g", "5", "--gp", "-5", "--protocol",
          "direct", "--mu", "10", "-5."], EXIT_USAGE, "argument --mu: mu must be >= 1"),
        (["converge", "--tau", "0.75", "--at-eb", "--g", "5", "--gp", "-5", "--protocol",
          "direct", "--mu", "10", "-inf"], EXIT_USAGE,
         "argument --mu: expected a finite number, got '-inf'"),
    ], ids=["gp-exponent", "gp-trailing-point", "scan-window", "gp-minus-inf", "mu-negative",
            "mu-later-exponent", "mu-later-trailing-point", "mu-later-minus-inf"])
    def test_exit_code_and_message(self, capsys, argv, exit_code, err):
        code, out, got = run_cli(capsys, *argv)
        assert code == exit_code
        if exit_code == EXIT_OK:
            assert out and not got
        else:
            assert not out and err in got


class TestConverge:
    def test_default_mu_ladder_error_decreases(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--tau", "0.75", "--at-eb",
                               "--g", "4", "--gp", "-4", "--protocol", "direct")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["mu"]) for r in rows] == [1e2, 1e4, 1e6]
        errors = [float(r["rel_error"]) for r in rows]
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] <= 1e-3

    def test_swap_table_emitted(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--tau", "0.75", "--at-eb",
                               "--g", "4", "--gp", "-4", "--protocol", "swap",
                               "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 3
        assert rows[-1]["rel_error"] <= 1e-3

    def test_tau_one_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "converge", "--tau", "1.0", "--at-eb",
                             "--g", "0", "--gp", "0", "--protocol", "direct")
        assert code == EXIT_USAGE

    def test_forbidden_point_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "converge", "--tau", "0.5", "--omega", "2",
                               "--g", "1.9", "--gp", "1.9", "--protocol", "direct")
        assert code == EXIT_DOMAIN
        assert "omega^2 + g*gp" in err

    @pytest.mark.parametrize("command, eigensolves", [
        (("converge", "--protocol", "direct"), 0),
        (("converge", "--protocol", "swap"), 0),
        (("point", "--mu", "1e3"), 1),
    ], ids=["converge-direct", "converge-swap", "point-mu"])
    def test_only_coherent_info_runs_a_runner(self, capsys, monkeypatch, command, eigensolves):
        # converge prints closed forms; point --mu runs each runner once, for
        # its coherent information, and only the swap's diagonalizes mode B
        calls = []

        def counted(v):
            calls.append(np.shape(v))
            return symplectic_spectrum(v)

        symplectic_spectrum = entdist.symplectic._symplectic_spectrum
        monkeypatch.setattr(entdist.symplectic, "_symplectic_spectrum", counted)
        code, _, _ = run_cli(capsys, *command, "--tau", "0.75", "--at-eb", "--g", "4",
                             "--gp=-4")
        assert code == EXIT_OK
        assert calls == [(2, 2)] * eigensolves

    @pytest.mark.parametrize("protocol", [Protocol.DIRECT, Protocol.SWAP])
    def test_finite_eps_is_the_runners(self, protocol):
        # the printed eps values are the runner's own numbers, bit for bit
        runner = {Protocol.DIRECT: entdist.run_direct, Protocol.SWAP: entdist.run_swap}[protocol]
        rng = np.random.default_rng(40)
        for _ in range(200):
            env = random_bona_fide_env(rng, omega_range=(1.0, 50.0))
            mu = float(10.0 ** rng.uniform(0.0, 15.0))
            eps_inf = entdist.protocols.large_mu_eps(env.tau, env.omega, env.g, env.gp, protocol)
            assert _finite_eps(protocol, mu, env)[:2] == (runner(mu, env).report.pts_min,
                                                           eps_inf)


class TestAtEb:
    @pytest.mark.parametrize("command", [
        ("point", "--mu", "1e3"),
        ("converge", "--protocol", "direct"),
        ("converge", "--protocol", "swap"),
    ], ids=["point", "converge-direct", "converge-swap"])
    def test_reads_as_the_eb_threshold_omega(self, capsys, command):
        # --at-eb stands for --omega eb_threshold(tau), number for number
        point = ("--tau", "0.3", "--g", "0.5", "--gp", "-0.5")
        at_eb = run_cli(capsys, *command, *point, "--at-eb")
        omega = run_cli(capsys, *command, *point, "--omega", repr(eb_threshold(0.3)))
        assert at_eb[0] == EXIT_OK
        assert at_eb == omega


class TestPointAndConvergeGolden:
    # SHA-256 of known-good stdout: any byte change in the evaluated values,
    # number formatting or layout fails
    POINT = ("--tau", "0.75", "--at-eb", "--g", "5", "--gp=-5")
    GOLDEN = {
        "point-csv": (("point", *POINT, "--mu", "1e3"), EXIT_OK,
                      "5468c4b343001e0b99e539949a484ebfb2b4bb7a969821a828578872ab433225"),
        "point-json": (("point", *POINT, "--mu", "1e3", "--format", "json"), EXIT_OK,
                       "f3aca0cd32c6b6ca9f980f0113c9ef583318aaf35e83ffc1e3e2bbab2fd0e405"),
        "point-forbidden": (("point", "--tau", "0.5", "--omega", "2", "--g", "3", "--gp", "0"),
                            EXIT_DOMAIN,
                            "be988fce3f95aa92d3218ed6e9f8e41dd844c10071d3c3e13ecadbcbbf5f762a"),
        "converge-direct": (("converge", *POINT, "--protocol", "direct"), EXIT_OK,
                            "87515b5b1797846899b68804d945baac5d8700064520fe13992c52b9a3331789"),
        "converge-swap": (("converge", *POINT, "--protocol", "swap"), EXIT_OK,
                          "bcb884679ffc50af06be654c84fd6624a7498744657a82e70cb7967e1ea6a1f3"),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_output_matches_golden_digest(self, capsys, case):
        argv, exit_code, digest = self.GOLDEN[case]
        code, out, _ = run_cli(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestArgvMatrix:
    """Flag edits of one valid command line per command: range, magnitude,
    non-finite, window, resolution, format and Forbidden cases.

    Exit 0 and 3 pin the SHA-256 of stdout. Exit 2 prints nothing to stdout,
    and stderr names the refused flag, or the ScanSpec field that it sets.
    """

    BASE = {
        "point": {"--tau": "0.75", "--omega": "7", "--g": "4", "--gp": "-4", "--mu": "1e3"},
        "converge": {"--protocol": "swap", "--tau": "0.75", "--omega": "7", "--g": "4",
                     "--gp": "-4", "--mu": ("100", "1e4")},
        "scan": {"--protocol": "direct", "--tau": "0.5", "--omega": "2", "--resolution": "5",
                 "--g-min": "-1", "--g-max": "1", "--gp-min": "-1", "--gp-max": "1"},
    }
    AT_EB = {"--omega": None, "--at-eb": True}
    NO_WINDOW = {"--g-min": None, "--g-max": None, "--gp-min": None, "--gp-max": None}
    EMPTY = hashlib.sha256(b"").hexdigest()
    # (command, flag edits: None drops a flag and True sets a bare one, exit code,
    # stdout digest or, for exit 2, the name that stderr must print)
    CASES = [
        ("point", {}, EXIT_OK,
         "e01ce5ab7b24fff7ebe731aa25f47b45f7ead30743ed064a1c56b579426b3943"),
        ("point", {"--tau": "0"}, EXIT_USAGE, "--tau"),
        ("point", {"--tau": "1"}, EXIT_USAGE, "--tau"),
        ("point", {"--tau": "1.5"}, EXIT_USAGE, "--tau"),
        ("point", {"--tau": "nan"}, EXIT_USAGE, "--tau"),
        ("point", {"--omega": "0.5"}, EXIT_USAGE, "--omega"),
        ("point", {"--omega": "1e151"}, EXIT_USAGE, "--omega"),
        ("point", {"--omega": "inf"}, EXIT_USAGE, "--omega"),
        ("point", {"--g": "1e200"}, EXIT_USAGE, "--g"),
        ("point", {"--gp": "-inf"}, EXIT_USAGE, "--gp"),
        ("point", {"--g": "nan"}, EXIT_USAGE, "--g"),
        ("point", {"--mu": "0.5"}, EXIT_USAGE, "--mu"),
        ("point", {"--mu": "1e151"}, EXIT_USAGE, "--mu"),
        ("point", {"--mu": "nan"}, EXIT_USAGE, "--mu"),
        ("point", {"--mu": "x"}, EXIT_USAGE, "--mu"),
        ("point", {"--format": "xml"}, EXIT_USAGE, "--format"),
        ("point", {"--at-eb": True}, EXIT_USAGE, "--at-eb"),
        ("point", {"--g": "8"}, EXIT_DOMAIN,
         "9b4090b997d186a5a980acc69d8c2bcf7cdebde07c8fb5fe6bf704192c4af0b0"),
        ("point", {"--format": "json"}, EXIT_OK,
         "d1b7a52dcfd429753a14fcf5c74710199991328f9f42d6054d9947bec700e273"),
        ("point", {"--g": "8", "--format": "json"}, EXIT_DOMAIN,
         "aca78e7a50ff0c62e9ef8676833186852f1142b397af05591f38f16fcf9ca571"),
        ("point", {"--mu": None, "--format": "json"}, EXIT_OK,
         "02be2d68c713da131fd277400878a8489227330c0ed55f2c72c89724160b2783"),
        ("point", AT_EB, EXIT_OK,
         "e01ce5ab7b24fff7ebe731aa25f47b45f7ead30743ed064a1c56b579426b3943"),
        ("point", {"--omega": "1e150", "--g": "0", "--gp": "0", "--mu": None}, EXIT_OK,
         "7520fe96638cb7ed5bd427d4027387802aa5bec16194990272b0a05c7a826ee3"),
        ("converge", {}, EXIT_OK,
         "82dabf06a2fbefdf4a8d637decb4378b566b28980e275b0c1d2a0fea0f1d2154"),
        ("converge", {"--tau": "0"}, EXIT_USAGE, "--tau"),
        ("converge", {"--tau": "-0.5"}, EXIT_USAGE, "--tau"),
        ("converge", {"--tau": "inf"}, EXIT_USAGE, "--tau"),
        ("converge", {"--omega": "0.99"}, EXIT_USAGE, "--omega"),
        ("converge", {"--omega": "-1e151"}, EXIT_USAGE, "--omega"),
        ("converge", {"--omega": "nan"}, EXIT_USAGE, "--omega"),
        ("converge", {"--g": "-1e151"}, EXIT_USAGE, "--g"),
        ("converge", {"--gp": "1e151"}, EXIT_USAGE, "--gp"),
        ("converge", {"--gp": "inf"}, EXIT_USAGE, "--gp"),
        ("converge", {"--mu": ("100", "0.5")}, EXIT_USAGE, "--mu"),
        ("converge", {"--mu": ("100", "1e200")}, EXIT_USAGE, "--mu"),
        ("converge", {"--mu": ("100", "inf")}, EXIT_USAGE, "--mu"),
        ("converge", {"--mu": ("100", "nan")}, EXIT_USAGE, "--mu"),
        ("converge", {"--protocol": "bogus"}, EXIT_USAGE, "--protocol"),
        ("converge", {"--format": "yaml"}, EXIT_USAGE, "--format"),
        ("converge", {"--g": None}, EXIT_USAGE, "--g"),
        ("converge", {"--omega": "2", "--g": "1.9", "--gp": "1.9"}, EXIT_DOMAIN, EMPTY),
        ("converge", {"--protocol": "direct"}, EXIT_OK,
         "e49a90f6ef7e6062a83887a2f1ee8c8292437f2f0d75770f0fe3e782d194545c"),
        ("converge", {"--format": "json"}, EXIT_OK,
         "8e4a09fe499ca7a2d5e669586f1a1f0ab05115d00a8be8c0b11f4331b5586cee"),
        ("converge", AT_EB, EXIT_OK,
         "82dabf06a2fbefdf4a8d637decb4378b566b28980e275b0c1d2a0fea0f1d2154"),
        ("scan", {}, EXIT_OK,
         "2a06b7b84cc45a7f6ece1ef17e742a6a9f428980d47a86cd0065a27f7a1e1b1e"),
        ("scan", {"--tau": "1"}, EXIT_USAGE, "--tau"),
        ("scan", {"--tau": "0"}, EXIT_USAGE, "--tau"),
        ("scan", {"--tau": "nan"}, EXIT_USAGE, "--tau"),
        ("scan", {"--omega": "0.5"}, EXIT_USAGE, "--omega"),
        ("scan", {"--omega": "1e151"}, EXIT_USAGE, "--omega"),
        ("scan", {"--omega": "-inf"}, EXIT_USAGE, "--omega"),
        ("scan", {"--g-min": "-1e200"}, EXIT_USAGE, "--g-min"),
        ("scan", {"--g-max": "inf"}, EXIT_USAGE, "--g-max"),
        ("scan", {"--gp-max": "nan"}, EXIT_USAGE, "--gp-max"),
        ("scan", {"--gp-min": "-inf"}, EXIT_USAGE, "--gp-min"),
        ("scan", {"--g-min": "1"}, EXIT_USAGE, "g_range"),
        ("scan", {"--gp-min": "2"}, EXIT_USAGE, "gp_range"),
        ("scan", {"--g-max": None}, EXIT_USAGE, "--g-max"),
        ("scan", {"--resolution": "1"}, EXIT_USAGE, "resolution"),
        ("scan", {"--resolution": "0"}, EXIT_USAGE, "resolution"),
        ("scan", {"--resolution": "2.5"}, EXIT_USAGE, "--resolution"),
        ("scan", {"--format": "xml"}, EXIT_USAGE, "--format"),
        ("scan", {"--protocol": "environment", "--format": "json"}, EXIT_OK,
         "3e520d57c6b4d80a05f805ae5a764d6cd1bcb46a94d9ea34469eaa738b75c87c"),
        ("scan", {**AT_EB, **NO_WINDOW, "--protocol": "swap"}, EXIT_OK,
         "6aea6c10e362580cc0f003b7f522d46a037638e462af6eead76f7aa5691ed0ae"),
        ("scan", {**NO_WINDOW, "--omega": "1e150", "--resolution": "3"}, EXIT_OK,
         "ff45fee08effeab212a4869c48eb28a834d64cecf514cdf1af431449e0d03538"),
    ]

    @classmethod
    def argv(cls, command, edits):
        argv = [command]
        for flag, value in {**cls.BASE[command], **edits}.items():
            if value is True:
                argv.append(flag)
            elif isinstance(value, tuple):
                argv += [flag, *value]
            elif value is not None:
                argv.append(f"{flag}={value}")
        return argv

    @pytest.mark.parametrize("command, edits, exit_code, expected", CASES,
                             ids=[f"{case[0]}-{case[1]}" for case in CASES])
    def test_exit_code_and_output(self, capsys, command, edits, exit_code, expected):
        code, out, err = run_cli(capsys, *self.argv(command, edits))
        assert code == exit_code
        if exit_code == EXIT_USAGE:
            assert out == ""
            assert expected in err
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == expected


class TestFormatting:
    def test_nine_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--tau", "0.3", "--at-eb",
                               "--g", "0.1", "--gp", "-0.1")
        assert code == EXIT_OK
        report = parse_point_csv(out)
        # 13/7 printed at 9 significant digits
        assert report["omega"] == "1.85714286"
        assert report["omega_eb"] == "1.85714286"

    def test_repeated_runs_byte_identical(self, capsys):
        args = ("point", "--tau", "0.75", "--at-eb", "--g", "6", "--gp", "-6",
                "--mu", "12345", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_coherent_info_values(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--tau", "0.75", "--at-eb",
                               "--g", "6", "--gp", "-6", "--format", "json")
        report = json.loads(out)
        assert report["direct_coherent_info"] == pytest.approx(math.log(4) - 1, abs=1e-8)


class TestModuleEntryPoint:
    """``python -m entdist.cli`` runs the CLI, with its exit codes."""

    @staticmethod
    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "entdist.cli", *argv], env=subprocess_env(),
                              capture_output=True, text=True, timeout=60)

    def test_point(self):
        result = self.run_module("point", "--tau", "0.75", "--at-eb", "--g", "6", "--gp", "-6")
        assert result.returncode == EXIT_OK
        assert parse_point_csv(result.stdout)["env_class"] == "Separable"

    def test_non_finite_flag(self):
        result = self.run_module("point", "--tau", "nan", "--at-eb", "--g", "6", "--gp", "-6")
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert "finite" in result.stderr


class TestImports:
    def test_cli_loads_no_scipy(self):
        # scipy is a test dependency only: a fresh interpreter importing the CLI
        # must not load it
        probe = ("import sys, entdist.cli; "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                                capture_output=True, text=True, check=True, timeout=60)
        assert result.stdout.strip() == "[]"

    @staticmethod
    def fresh_modules(statement):
        """Run ``statement`` in a fresh interpreter; the value it leaves in ``code``,
        the numpy modules loaded after it, which of the scan renderer, ``json``
        and ``dataclasses`` and the ``inspect`` it imports are loaded, and the
        modules of the test-only dependencies scipy, mpmath and hypothesis."""
        probe = (f"import sys\ncode = None\n{statement}\n"
                 "print(repr((code, sorted(m for m in sys.modules "
                 "if m.partition('.')[0] == 'numpy'), "
                 "sorted({'entdist.render', 'json', 'dataclasses', 'inspect'} "
                 "& set(sys.modules)), sorted(m for m in sys.modules "
                 "if m.partition('.')[0] in ('scipy', 'mpmath', 'hypothesis')))))")
        result = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                                capture_output=True, text=True, check=True, timeout=60)
        return ast.literal_eval(result.stdout.splitlines()[-1])

    @staticmethod
    def main_statement(*argv):
        return f"from entdist.cli import main\ncode = main({list(argv)!r})"

    @pytest.mark.parametrize("statement, expected", [
        ("import entdist", None),
        ("import entdist.cli", None),
        (main_statement("point", "--tau", "0.75", "--at-eb", "--g", "5", "--gp=-5"), EXIT_OK),
        (main_statement("point", "--tau", "0.75", "--omega", "2", "--g", "3", "--gp", "0"),
         EXIT_DOMAIN),
        (main_statement("--help"), EXIT_OK),
        (main_statement("point", "--tau", "2"), EXIT_USAGE),
        (main_statement("converge", "--tau", "0.75", "--at-eb", "--g", "4", "--gp=-4",
                        "--protocol", "direct"), EXIT_OK),
        (main_statement("converge", "--tau", "0.75", "--at-eb", "--g", "4", "--gp=-4",
                        "--protocol", "swap"), EXIT_OK),
    ], ids=["import-entdist", "import-cli", "point-separable", "point-forbidden", "help",
            "usage-error", "converge-direct", "converge-swap"])
    def test_loads_no_numpy(self, statement, expected):
        # numpy loads only where arrays or matrices are handled: a scan, the
        # runners of point --mu, a library call on arrays; converge prints closed
        # forms; the scan renderer only with a scan, json only for a JSON table,
        # and the records are NamedTuples, so nothing loads dataclasses; no path
        # loads a test-only dependency
        assert self.fresh_modules(statement) == (expected, [], [], [])

    @pytest.mark.parametrize("statement, renders", [
        ("import entdist\nentdist.ScanSpec", False),
        ("import entdist\nentdist.scanner.scan", False),
        (main_statement("scan", "--tau", "0.5", "--at-eb", "--protocol", "direct",
                        "--resolution", "3", "--output", os.devnull), True),
        (main_statement("point", "--tau", "0.75", "--at-eb", "--g", "5", "--gp=-5", "--mu", "100"),
         False),
    ], ids=["scanner-name", "scanner-module", "scan", "point-mu"])
    def test_arrays_load_numpy(self, statement, renders):
        code, numpy_modules, loaded, test_only = self.fresh_modules(statement)
        assert code in (None, EXIT_OK)
        assert "numpy" in numpy_modules
        assert ("entdist.render" in loaded) is renders
        assert not test_only

    def test_importtime_lists_no_numpy(self):
        result = subprocess.run([sys.executable, "-X", "importtime", "-c", "import entdist.cli"],
                                env=subprocess_env(), capture_output=True, text=True,
                                check=True, timeout=60)
        names = [line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
                 if line.startswith("import time:")]
        assert "entdist.cli" in names
        assert not [name for name in names if name.partition(".")[0] == "numpy"]
        assert not {"dataclasses", "inspect", "entdist.render", "json"} & set(names)
