import csv
import hashlib
import io
import json
import math
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entdist import Activation, EnvKind, Protocol, ScanSpec, scan
from entdist.cli import (EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, OUTPUT_ENV_VAR, _json_number,
                         _json_ready, fmt, main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_omega_and_at_eb_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "point", "--tau", "0.5", "--omega", "2",
                             "--at-eb", "--g", "0", "--gp", "0")
        assert code == EXIT_USAGE

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE


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


def reference_scan_output(spec, fmt_kind):
    """Scan output rendered whole, by ``json.dumps(indent=2)`` over cell dicts for
    JSON and by joining rows with newlines for CSV."""
    grid = scan(spec)
    cells = []
    for i, g in enumerate(spec.g_centers()):
        for j, gp in enumerate(spec.gp_centers()):
            cell = grid.cell(i, j)
            cells.append({"g": float(g), "gp": float(gp), "env_class": cell.env_class.kind.value,
                          "activation": cell.activation.value, "eps": cell.eps_value})
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

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_cell_numbers_are_json_dumps_of_rounded_values(self, x):
        assert _json_number(x) == json.dumps(float(fmt(x))) == repr(float(fmt(x)))
        assert "%.9g" % x == fmt(x)  # the CSV templates' eps slot


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


class TestInputMagnitude:
    """Numbers above 1e150 in size would overflow the plane formulas' products."""

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

    @pytest.mark.parametrize("flag", ["--omega", "--g", "--gp"])
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
