"""Tests of the benchmark's own parts: span arithmetic, seeded inputs and oracles.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

import oracles
import probe
import run
import workloads
from spans import SpanRecorder, self_time


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    # overlapping children count once; the part of a child outside its parent counts not at all
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 10.0 - 4.0 - 2.0
    assert self_time(0.0, 10.0, []) == 10.0


def test_recorder_totals_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("outer"):
        with rec.span("child"):         # 1 .. 2
            pass
        with rec.span("child"):         # 4 .. 9
            with rec.span("leaf"):      # 5 .. 6
                pass
    totals = rec.totals()
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 1.0 - 5.0}
    assert totals["child"] == {"calls": 2, "s": 6.0, "self_s": 1.0 + 4.0}
    assert totals["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_wrap_records_calls_and_restore_puts_the_original_back():
    def double(x):
        return 2 * x

    module = types.SimpleNamespace(double=double)
    rec = SpanRecorder()
    assert rec.wrap(module, "double", "layer.double")
    assert not rec.wrap(module, "absent", "layer.absent")
    assert module.double(3) == 6 and module.double(4) == 8
    rec.restore()
    assert module.double is double
    assert rec.totals()["layer.double"]["calls"] == 2


def test_parse_importtime_splits_numpy_scipy_and_the_rest():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        30 |         30 |       numpy.core",
        "import time:        50 |         80 |     numpy",
        "import time:        20 |         20 |         pickle",
        "import time:        40 |         60 |       scipy.linalg",
        "import time:        10 |         70 |     entdist.protocols",
        "import time:         5 |        155 |   entdist",
        "import time:         7 |        162 | entdist.cli",
    ])
    seconds = run.parse_importtime(text)
    assert seconds == pytest.approx({"numpy": 80e-6, "scipy": 60e-6, "entdist": 22e-6})


def test_speed_scale_uses_the_probes_around_an_interval():
    sampler = probe.SpeedSampler()
    sampler.times = [0.0, 1.0, 5.0, 6.0]
    sampler.durations = [0.02, 0.02, 0.005, 0.005]
    assert sampler.scale(5.2, 5.8) == pytest.approx(probe.REFERENCE_S / 0.005)
    assert sampler.scale(0.2, 0.5) == pytest.approx(probe.REFERENCE_S / 0.02)
    assert sampler.scale(100.0, 101.0) == pytest.approx(probe.REFERENCE_S / 0.0125)  # none near
    assert sampler.scale() == pytest.approx(probe.REFERENCE_S / 0.0125)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def test_finite_mu_points_are_bona_fide_and_repeat_for_a_seed():
    points = workloads.finite_mu_points(7, n=300)
    assert points == workloads.finite_mu_points(7, n=300)
    assert points != workloads.finite_mu_points(8, n=300)
    assert [p[0] for p in points[:4]] == ["direct", "swap", "direct", "swap"]
    for protocol, mu, tau, omega, g, gp in points:
        assert 10.0 <= mu <= 1e3 and 0.2 <= tau <= 0.95
        assert omega >= (1.0 + tau) / (1.0 - tau) * (1.0 - 1e-15)
        assert oracles.bona_fide(omega, g, gp)


def test_contour_and_plane_inputs_repeat_for_a_seed():
    assert workloads.contour_inputs(3) == workloads.contour_inputs(3)
    assert workloads.contour_inputs(3) != workloads.contour_inputs(4)
    assert workloads.plane_tau(3) == workloads.plane_tau(3)
    maps, searches = workloads.contour_inputs(3)
    assert len(maps) == 16 and len(searches) == 20
    assert all(0.2 < tau < 0.95 for tau, _ in maps + searches)
    # same number of swap searches below the low-tau threshold for every seed
    assert sum(p == "swap" and tau <= 0.5 for tau, p in searches) == 4


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

README_TAU = 0.75
README_OMEGA = (1.0 + README_TAU) / (1.0 - README_TAU)


@pytest.mark.parametrize("protocol, eps_inf", [("direct", 0.25), ("swap", 1.0 / 3.0)])
def test_reference_matches_the_readme_example_within_1_over_mu(protocol, eps_inf):
    mu = 1e6
    pts, info = oracles.finite_mu_reference(protocol, mu, README_TAU, README_OMEGA, 6.0, -6.0)
    assert abs(pts - eps_inf) <= 1.0 / mu
    assert abs(info - (-1.0 - math.log(eps_inf))) <= 2.0 / mu


def test_reference_is_converged_in_its_working_precision():
    args = ("swap", 1e15, 0.6, 4.0, 1.5, -2.5)
    assert oracles.finite_mu_reference(*args) == oracles.finite_mu_reference(*args, dps=80)


def test_finite_mu_workload_points_meet_the_contract():
    # the workload's mu range is chosen so that no operation fails
    for protocol, mu, *env in workloads.finite_mu_points(0, n=200):
        runner = workloads.FiniteMu.RUNNERS[protocol]
        report = runner(mu, workloads.EnvironmentParams(*env)).report
        ref_pts, ref_info = oracles.finite_mu_reference(protocol, mu, *env)
        assert oracles.within_contract(report.pts_min, ref_pts)
        assert oracles.within_contract(report.coherent_info, ref_info)


def test_contract_tolerance_flags_a_perturbed_value():
    pts, info = oracles.finite_mu_reference("direct", 1e6, README_TAU, README_OMEGA, 6.0, -6.0)
    for ref in (pts, info):
        assert oracles.within_contract(ref * (1.0 + 1e-10), ref)
        assert not oracles.within_contract(ref * (1.0 + 2e-8), ref)
        assert not oracles.within_contract(math.nan, ref)


def test_witness_checks():
    assert oracles.witness_errors(0.4, "swap", False, None) == []
    assert oracles.witness_errors(0.4, "swap", True, (0.1, -0.1))
    omega = (1.0 + 0.9) / (1.0 - 0.9)
    assert oracles.witness_errors(0.9, "swap", True, (0.99 * omega, 0.99 * omega))  # not bona fide
    assert oracles.witness_errors(0.9, "swap", True, (0.0, 0.0))  # eps = 19 > 1
    found, witness = workloads.entdist.scanner.separable_activation_exists(
        0.9, workloads.PROTOCOLS["swap"])
    assert found and oracles.witness_errors(0.9, "swap", found, witness) == []


def _scan_csv(tmp_path, protocol, resolution=21):
    out = tmp_path / "scan.csv"
    code = workloads.entdist.cli.main([
        "scan", "--tau", "0.8", "--at-eb", "--resolution", str(resolution),
        "--protocol", protocol, "--format", "csv", "-o", str(out)])
    assert code == 0
    return out.read_text()


@pytest.mark.parametrize("protocol", ["direct", "swap"])
def test_plane_reference_agrees_with_a_cli_scan(tmp_path, protocol):
    reference = oracles.PlaneReference(0.8, protocol, 21)
    bad = reference.bad_cells(*oracles.parse_scan_csv(_scan_csv(tmp_path, protocol)))
    assert not bad.any()


def test_plane_reference_flags_perturbed_cells(tmp_path):
    reference = oracles.PlaneReference(0.8, "direct", 21)
    lines = _scan_csv(tmp_path, "direct").split("\n")
    row = next(i for i, line in enumerate(lines) if line.endswith(("1", "2", "3", "4", "5")))
    g, gp, kind, activation, eps = lines[row].split(",")
    lines[row] = ",".join([g, gp, kind, activation, format(float(eps) * (1 + 1e-7), ".9g")])
    other = next(i for i, line in enumerate(lines) if ",Separable," in line and i != row)
    lines[other] = lines[other].replace(",Separable,", ",Entangled,")
    bad = reference.bad_cells(*oracles.parse_scan_csv("\n".join(lines)))
    assert np.flatnonzero(bad).tolist() == sorted([row - 1, other - 1])
