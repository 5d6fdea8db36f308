"""The benchmark's workloads; ``run.py`` runs each in a child process of its own.

Each workload is a closed loop with one client in one thread: the next call
starts when the previous one has returned. Inputs come only from the seed.
A workload is a cycle of steps. An untraced run repeats the cycle until
``--seconds`` have passed; a traced run makes one pass over the cycle without
spans and one with them, so counts repeat exactly for a seed and the two
passes give the tracing overhead.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR --spans-file PATH

prints one JSON object on stdout. Outputs are checked after the timed phase,
so peak RSS is read before the checks allocate anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import numpy as np
import scipy

import entdist
import entdist.cli
import entdist.protocols
import entdist.scanner
import entdist.symplectic
from entdist import EnvironmentParams, eb_threshold
from entdist.scanner import Protocol, ScanSpec

import oracles
from probe import SpeedSampler
from spans import SpanRecorder

PLANE_RESOLUTION = 1001
MAP_RESOLUTION = 201
POOL_SIZE = 2000
TAU_RANGE = (0.2, 0.95)
# log10 of the finite-mu range: above about mu = 1e3 rounding in the program
# breaks the 9-digit contract where coherent_info is near 0, and above about
# 1e6 almost everywhere; a workload must be one on which no operation fails
LOG10_MU_RANGE = (1.0, 3.0)
PROTOCOLS = {"direct": Protocol.DIRECT, "swap": Protocol.SWAP}
SCALAR_EPS = {"direct": entdist.direct_eps_asymptotic, "swap": entdist.swap_eps_asymptotic}
MAX_MESSAGES = 5


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of (lo, hi)."""
    return [float(lo + (k + u) * (hi - lo) / n) for k, u in enumerate(rng.random(n))]


def plane_tau(seed: int) -> float:
    """Above 0.6 the physical share of the at-EB window, and so the work per
    scan, hardly depends on tau."""
    return float(_rng(seed, 1).uniform(0.6, 0.95))


def contour_inputs(seed: int):
    """(tau, protocol) pairs for the contour maps and for the activation searches.

    The swap protocol has no separable witness at tau <= 1/2 (the paper's
    low-tau theorem), where the search scans its full 1001^2 grid. The search
    strata meet at 1/2, so every seed mixes 4 such misses with 16 early hits.
    """
    rng = _rng(seed, 2)
    by_protocol = {"direct": _strata(rng, *TAU_RANGE, 8), "swap": _strata(rng, *TAU_RANGE, 8)}
    # the maps a run gets through span the tau range under both protocols,
    # and the whole list has each of 8 strata under both
    maps = []
    for half in range(2):
        for i, stratum in enumerate((0, 4, 2, 6, 1, 5, 3, 7)):
            protocol = ("direct", "swap")[(i + half) % 2]
            maps.append((by_protocol[protocol][stratum], protocol))
    taus = _strata(rng, TAU_RANGE[0], 0.5, 4) + _strata(rng, 0.5, TAU_RANGE[1], 6)
    searches = [(tau, protocol) for tau in taus for protocol in ("direct", "swap")]
    return maps, searches


def finite_mu_points(seed: int, n: int = POOL_SIZE):
    """(protocol, mu, tau, omega, g, gp) tuples, alternating direct and swap.

    omega is at the EB threshold for three points in four and up to twice it
    otherwise; (g, gp) is uniform over the bona-fide region; mu is log-uniform
    in [1e1, 1e3], where the program's results meet their contract.
    """
    rng = _rng(seed, 3)
    points = []
    for k in range(n):
        tau = rng.uniform(*TAU_RANGE)
        omega = (1.0 + tau) / (1.0 - tau)
        if rng.random() >= 0.75:
            omega *= rng.uniform(1.0, 2.0)
        while True:
            g, gp = rng.uniform(-omega, omega, size=2)
            if oracles.bona_fide(omega, g, gp):
                break
        mu = 10.0 ** rng.uniform(*LOG10_MU_RANGE)
        protocol = "direct" if k % 2 == 0 else "swap"
        points.append((protocol, float(mu), float(tau), float(omega), float(g), float(gp)))
    return points


# ---------------------------------------------------------------------------
# bookkeeping shared by the workloads
# ---------------------------------------------------------------------------

class Workload:
    """Counts, op times and failures; subclasses define ``steps``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # op kind (its span name) -> (start, end, seconds without the probes run inside)
        self.ops: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.errors: list[str] = []   # the run cannot be trusted
        self.misses: list[str] = []   # an operation missed its oracle
        self.recorder: SpanRecorder | None = None
        self.sampler = SpeedSampler()

    def span(self, name: str):
        return self.recorder.span(name) if self.recorder else nullcontext()

    def timed(self, name: str, fn, *args):
        """Call ``fn`` inside a span; return (ok, result, span), ok False if it raised."""
        self.attempted += 1
        spent = self.sampler.spent
        t0 = time.perf_counter()
        try:
            with self.span(name) as record:
                result = fn(*args)
        except Exception as exc:  # counted as a failed operation, the loop goes on
            self.miss(f"{name}{args!r} raised {type(exc).__name__}: {exc}")
            return False, None, None
        t1 = time.perf_counter()
        self.ops[name].append((t0, t1, t1 - t0 - (self.sampler.spent - spent)))
        return True, result, record

    def raw_seconds(self, kind: str) -> list[float]:
        return [dt for _, _, dt in self.ops[kind]]

    def seconds(self, kind: str, since: float = 0.0, until: float = math.inf) -> list[float]:
        """Op times of one kind, scaled to the probe's reference speed."""
        return [dt * self.sampler.scale(t0, t1) for t0, t1, dt in self.ops[kind]
                if since <= t0 < until]

    def total_seconds(self, since: float = 0.0, until: float = math.inf) -> float:
        return sum(sum(self.seconds(kind, since, until)) for kind in self.ops)

    def rate(self, kinds) -> float:
        """Calls of the given kinds per scaled second spent in them."""
        times = [t for kind in kinds for t in self.seconds(kind)]
        return len(times) / sum(times)

    def check(self) -> None:
        """Check the outputs kept by the steps, after the timed phase."""

    def remember(self, store: dict, key, result, label: str, same=operator.eq) -> None:
        """Keep the first result per input as (result, calls); repeats must agree with it."""
        if key not in store:
            store[key] = (result, 1)
            return
        first, calls = store[key]
        store[key] = (first, calls + 1)
        if not same(first, result):
            self.miss(f"{label}: repeated call returned a different result")
            self.error(f"{label} is not deterministic")

    def miss(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.misses) < MAX_MESSAGES:
            self.misses.append(message)

    def error(self, message: str) -> None:
        if len(self.errors) < MAX_MESSAGES:
            self.errors.append(message)


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3


# ---------------------------------------------------------------------------
# plane-cli
# ---------------------------------------------------------------------------

class PlaneCli(Workload):
    """``entdist scan --at-eb --resolution 1001`` in process: CSV direct, JSON swap."""

    CALLS = (("csv", "direct"), ("json", "swap"))

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.tau = plane_tau(seed)
        self.work = work
        self.first: dict[str, tuple[str, int]] = {}   # fmt -> (digest, calls)
        self.steps = [partial(self.call, fmt, protocol) for fmt, protocol in self.CALLS]

    def call(self, fmt: str, protocol: str) -> None:
        out = self.work / f"scan.{fmt}"
        argv = ["scan", "--tau", repr(self.tau), "--at-eb", "--resolution", str(PLANE_RESOLUTION),
                "--protocol", protocol, "--format", fmt, "-o", str(out)]
        ok, code, record = self.timed(f"cli.main.{fmt}", entdist.cli.main, argv)
        if not ok:
            return
        if code != 0:
            self.miss(f"scan {fmt} exited {code}")
            return
        if record is not None:
            record.attrs["bytes"] = out.stat().st_size
        digest = hashlib.sha256()
        with open(out, "rb") as fh:   # in chunks, so the check adds nothing to peak RSS
            for chunk in iter(partial(fh.read, 1 << 20), b""):
                digest.update(chunk)
        if fmt not in self.first:
            out.replace(self.work / f"first.{fmt}")
        self.remember(self.first, fmt, digest.hexdigest(), f"scan {fmt} bytes")

    def check(self) -> None:
        for fmt, protocol in self.CALLS:
            if fmt not in self.first:
                continue
            calls = self.first[fmt][1]
            reference = oracles.PlaneReference(self.tau, protocol, PLANE_RESOLUTION)
            text = (self.work / f"first.{fmt}").read_text(encoding="utf-8")
            try:
                if fmt == "csv":
                    columns = oracles.parse_scan_csv(text)
                    problems = []
                else:
                    payload = json.loads(text)
                    del text
                    problems = self._json_problems(payload, protocol)
                    columns = oracles.scan_json_columns(payload["cells"])
                    del payload
                bad = reference.bad_cells(*columns)
            except (ValueError, KeyError, TypeError) as exc:
                problems, bad = [f"unreadable output: {exc}"], np.zeros(1, dtype=bool)
            if bad.any():
                first_bad = int(np.argmax(bad))
                problems.append(f"{int(bad.sum())} cells disagree with the reference, "
                                f"first at row {first_bad}")
            if problems:
                self.miss(f"scan {fmt} tau={self.tau}: " + "; ".join(problems), count=calls)

    def _json_problems(self, payload: dict, protocol: str) -> list[str]:
        spec, summary, cells = payload["spec"], payload["summary"], payload["cells"]
        omega = (1.0 + self.tau) / (1.0 - self.tau)
        problems = []
        expected = {"tau": self.tau, "omega": omega, "g_range": [-omega, omega],
                    "gp_range": [-omega, omega]}
        for key, value in expected.items():
            if not np.all(oracles.within_contract(spec[key], value, omega)):
                problems.append(f"spec {key} is {spec[key]}, expected {value}")
        if (spec["at_eb"], spec["protocol"], spec["resolution"]) != (
                True, PROTOCOLS[protocol].value, PLANE_RESOLUTION):
            problems.append(f"spec is {spec}")
        counts: dict[str, int] = {}
        for cell in cells:
            key = f"{cell['env_class']}/{cell['activation']}"
            counts[key] = counts.get(key, 0) + 1
        total = PLANE_RESOLUTION ** 2
        if summary["total"] != total or len(cells) != total:
            problems.append(f"{len(cells)} cells, summary total {summary['total']}")
        for key, count in summary["counts"].items():
            if counts.get(key, 0) != count:
                problems.append(f"summary count {key} is {count}, cells say {counts.get(key, 0)}")
            if not oracles.within_contract(summary["fractions"][key], count / total):
                problems.append(f"summary fraction {key} is {summary['fractions'][key]}")
        if set(counts) - set(summary["counts"]):
            problems.append(f"cells of classes missing from the summary: {sorted(counts)}")
        return problems

    def end_to_end(self) -> dict:
        csv, js = self.seconds("cli.main.csv"), self.seconds("cli.main.json")
        return {
            "op_a_p50_ms": (_median_ms(csv), "ms", len(csv)),
            "op_b_per_s": (self.rate(["cli.main.json"]), "1/s", len(js)),
            "ops_per_s": (self.rate(self.ops), "1/s", len(csv) + len(js)),
        }, {
            "scan_csv_s": (statistics.median(self.raw_seconds("cli.main.csv")), "s", len(csv)),
            "scan_json_s": (statistics.median(self.raw_seconds("cli.main.json")), "s", len(js)),
        }


# ---------------------------------------------------------------------------
# contour-maps
# ---------------------------------------------------------------------------

class ContourMaps(Workload):
    """One contour map per step, then every activation search of the list."""

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.maps, self.searches = contour_inputs(seed)
        self.curves: dict[int, tuple[list, int]] = {}    # map index -> (contours, calls)
        self.found: dict[int, tuple[tuple, int]] = {}    # search index -> (result, calls)
        self.steps = [partial(self.step, k) for k in range(len(self.maps))]

    def step(self, k: int) -> None:
        tau, protocol = self.maps[k]
        spec = ScanSpec(tau=tau, protocol=PROTOCOLS[protocol], resolution=MAP_RESOLUTION)
        ok, curves, record = self.timed(
            "scanner.boundary_curves", entdist.scanner.boundary_curves, spec)
        if ok:
            if record is not None:
                record.attrs["count"] = len(curves)
                record.attrs["vertices"] = sum(len(c.points) for c in curves)
            self.remember(self.curves, k, curves, f"map {k}", _same_curves)
        for j, (tau_s, protocol_s) in enumerate(self.searches):
            ok, result, record = self.timed(
                "scanner.separable_activation_exists",
                entdist.scanner.separable_activation_exists, tau_s, PROTOCOLS[protocol_s])
            if not ok:
                continue
            if record is not None:
                record.attrs["found"] = bool(result[0])
            self.remember(self.found, j, result, f"search {j}")

    def check(self) -> None:
        for k, (curves, calls) in self.curves.items():
            problems = self._curve_problems(*self.maps[k], curves)
            if problems:
                self.miss(f"map {self.maps[k]}: " + "; ".join(problems[:3]), count=calls)
        for j, (result, calls) in self.found.items():
            tau, protocol = self.searches[j]
            problems = oracles.witness_errors(tau, protocol, *result)
            if problems:
                self.miss("; ".join(problems), count=calls)

    @staticmethod
    def _curve_problems(tau: float, protocol: str, curves) -> list[str]:
        """Every vertex must satisfy eps = level through the scalar evaluator."""
        omega = eb_threshold(tau)
        problems = []
        for contour in curves:
            if contour.level not in (1.0, oracles.DISTILLABLE_EPS):
                problems.append(f"unexpected level {contour.level}")
            for g, gp in contour.points:
                try:
                    eps = SCALAR_EPS[protocol](EnvironmentParams(tau, omega, float(g), float(gp)))
                except entdist.DomainError as exc:
                    problems.append(f"vertex ({g}, {gp}) rejected: {exc}")
                    continue
                if not oracles.within_contract(eps, contour.level):
                    problems.append(f"vertex ({g}, {gp}) has eps {eps}, level {contour.level}")
        return problems

    def end_to_end(self) -> dict:
        maps = self.seconds("scanner.boundary_curves")
        searches = self.raw_seconds("scanner.separable_activation_exists")
        return {
            "op_a_p50_ms": (_median_ms(maps), "ms", len(maps)),
            "op_b_per_s": (self.rate(["scanner.separable_activation_exists"]), "1/s",
                           len(searches)),
            "ops_per_s": (self.rate(self.ops), "1/s", len(maps) + len(searches)),
        }, {
            "contour_map_s": (
                statistics.median(self.raw_seconds("scanner.boundary_curves")), "s", len(maps)),
            "activation_searches_per_s": (len(searches) / sum(searches), "1/s", len(searches)),
        }


def _same_curves(a, b) -> bool:
    return len(a) == len(b) and all(
        x.level == y.level and x.closed == y.closed and np.array_equal(x.points, y.points)
        for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# finite-mu
# ---------------------------------------------------------------------------

class FiniteMu(Workload):
    """run_direct / run_swap over a seeded pool, checked against 50-digit references."""

    RUNNERS = {"direct": entdist.run_direct, "swap": entdist.run_swap}

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.points = finite_mu_points(seed)
        self.references = [oracles.finite_mu_reference(*p) for p in self.points]
        self.envs = [EnvironmentParams(*p[2:]) for p in self.points]
        self.first: dict[int, tuple[tuple[float, float], int]] = {}
        self.missed_mus: list[float] = []
        self.steps = [partial(self.step, i) for i in range(len(self.points))]

    def step(self, i: int) -> None:
        protocol, mu = self.points[i][:2]
        ok, result, _ = self.timed(
            f"protocols.run_{protocol}", self.RUNNERS[protocol], mu, self.envs[i])
        if not ok:
            self.missed_mus.append(mu)
            return
        got = (result.report.pts_min, result.report.coherent_info)
        self.remember(self.first, i, got, f"point {i}",
                      partial(np.array_equal, equal_nan=True))
        ref_pts, ref_info = self.references[i]
        if not (oracles.within_contract(got[0], ref_pts)
                and oracles.within_contract(got[1], ref_info)):
            self.missed_mus.append(mu)
            self.miss(f"{protocol} {self.points[i][1:]}: (pts_min, coherent_info) = {got}, "
                      f"reference ({ref_pts}, {ref_info})")

    def end_to_end(self) -> dict:
        direct = self.raw_seconds("protocols.run_direct")
        swap = self.raw_seconds("protocols.run_swap")
        pooled = direct + swap
        n = len(pooled)
        summary = {
            "points_per_s": (n / sum(pooled), "1/s", n),
            "direct_p50_us": (statistics.median(direct) * 1e6, "us", len(direct)),
            "swap_p50_us": (statistics.median(swap) * 1e6, "us", len(swap)),
            "point_p99_us": (float(np.percentile(pooled, 99)) * 1e6, "us", n),
        }
        if self.missed_mus:
            summary["smallest_missed_mu"] = (min(self.missed_mus), "1", len(self.missed_mus))
        return {
            "op_a_p50_ms": (_median_ms(self.seconds("protocols.run_direct")), "ms", len(direct)),
            "op_b_per_s": (self.rate(["protocols.run_swap"]), "1/s", len(swap)),
            "ops_per_s": (self.rate(self.ops), "1/s", n),
        }, summary


WORKLOADS = {"plane-cli": PlaneCli, "contour-maps": ContourMaps, "finite-mu": FiniteMu}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

# spans that must fire on each workload, or the traced run is not correct
REQUIRED_SPANS = {
    "plane-cli": ("cli.main.csv", "cli.main.json", "scanner.scan"),
    "contour-maps": ("scanner.boundary_curves", "scanner.eps_field",
                     "scanner.separable_activation_exists"),
    "finite-mu": ("protocols.run_direct", "protocols.run_swap"),
}

# (module, name the caller looks up, span); a later version may drop the
# optional ones (brentq, the oracle pipeline, repeated validation) on purpose
PATCHES = (
    (entdist.scanner, "eps_field", "scanner.eps_field"),
    (entdist.scanner, "brentq", "scanner.brentq"),
    (entdist.protocols, "direct_output_pipeline", "protocols.direct_output_pipeline"),
    (entdist.protocols, "swap_conditional_cm", "protocols.swap_conditional_cm"),
    (entdist.protocols, "entanglement_report", "symplectic.entanglement_report"),
    (entdist.protocols, "require_bona_fide", "environment.require_bona_fide"),
    (entdist.symplectic, "require_bona_fide", "environment.require_bona_fide"),
)


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def install_spans(recorder: SpanRecorder) -> list[str]:
    """Patch every traced lookup; return the spans that could not be installed."""
    absent = [span for module, attr, span in PATCHES if not recorder.wrap(module, attr, span)]

    def traced_scan(original):
        def scan(spec, *args, **kwargs):
            before = _rss_mb()
            with recorder.span("scanner.scan", cells=spec.resolution ** 2) as record:
                grid = original(spec, *args, **kwargs)
            record.attrs["rss_growth_mb"] = _rss_mb() - before
            return grid
        return scan

    if not recorder.patch(entdist.cli, "scan", traced_scan):
        absent.append("scanner.scan")
    return absent


def layer_metrics(recorder: SpanRecorder, scale: float) -> dict:
    """Per-layer metrics of a traced pass; times are scaled to the probe's reference speed."""
    totals = recorder.totals()

    def total(name: str, key: str):
        value = totals.get(name, {}).get(key, 0)
        return value if key == "calls" else value * scale

    def attrs(name: str, key: str) -> list:
        return recorder.attr_values(name, key)

    searches = attrs("scanner.separable_activation_exists", "found")
    return {
        "cli.main.csv.self_s": total("cli.main.csv", "self_s"),
        "cli.main.json.self_s": total("cli.main.json", "self_s"),
        "cli.bytes.csv": sum(attrs("cli.main.csv", "bytes")),
        "cli.bytes.json": sum(attrs("cli.main.json", "bytes")),
        "scanner.scan.self_s": total("scanner.scan", "self_s"),
        "scanner.scan.cells": sum(attrs("scanner.scan", "cells")),
        "scanner.scan.rss_growth_mb": max(attrs("scanner.scan", "rss_growth_mb"), default=0.0),
        "scanner.eps_field.s": total("scanner.eps_field", "s"),
        "scanner.boundary_curves.self_s": total("scanner.boundary_curves", "self_s"),
        "scanner.brentq.calls": total("scanner.brentq", "calls"),
        "scanner.brentq.s": total("scanner.brentq", "s"),
        "scanner.contour.count": sum(attrs("scanner.boundary_curves", "count")),
        "scanner.contour.vertices": sum(attrs("scanner.boundary_curves", "vertices")),
        "scanner.separable_activation_exists.s": total("scanner.separable_activation_exists", "s"),
        "scanner.separable_activation_exists.found_ratio":
            sum(searches) / len(searches) if searches else 0.0,
        "protocols.run_direct.self_s": total("protocols.run_direct", "self_s"),
        "protocols.run_swap.self_s": total("protocols.run_swap", "self_s"),
        "protocols.direct_output_pipeline.calls": total("protocols.direct_output_pipeline", "calls"),
        "protocols.direct_output_pipeline.s": total("protocols.direct_output_pipeline", "s"),
        "protocols.swap_conditional_cm.s": total("protocols.swap_conditional_cm", "s"),
        "symplectic.entanglement_report.calls": total("symplectic.entanglement_report", "calls"),
        "symplectic.entanglement_report.s": total("symplectic.entanglement_report", "s"),
        "environment.require_bona_fide.calls": total("environment.require_bona_fide", "calls"),
        "environment.require_bona_fide.s": total("environment.require_bona_fide", "s"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, work: Path, spans_file: Path) -> dict:
    workload = WORKLOADS[name](seed, work)
    metrics: dict = {}
    if trace:
        recorder = SpanRecorder()
        with workload.sampler:
            workload_pass(workload)
            start = time.perf_counter()
            absent = install_spans(recorder)
            workload.recorder = recorder
            try:
                workload_pass(workload)
            finally:
                workload.recorder = None
                recorder.restore()
            end = time.perf_counter()
        untraced, traced = workload.total_seconds(until=start), workload.total_seconds(since=start)
        metrics = layer_metrics(recorder, workload.sampler.scale(start, end))
        metrics["trace.overhead_frac"] = (traced - untraced) / untraced
        fired = {s.name for s in recorder.spans}
        for span in REQUIRED_SPANS[name]:
            if span in absent or span not in fired:
                workload.error(f"expected span {span} is missing")
                metrics = {k: v for k, v in metrics.items() if not k.startswith(span + ".")}
        notes = [f"span {span} not installed: its lookup name is gone"
                 for span in absent if span not in REQUIRED_SPANS[name]]
        recorder.write(spans_file)
    else:
        with workload.sampler:
            start = time.perf_counter()
            k = 0
            while True:
                workload.steps[k % len(workload.steps)]()
                k += 1
                if time.perf_counter() - start >= seconds:
                    break
        notes = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check()
    probes = workload.sampler.durations
    summary = {"speed_probe_ms": (statistics.median(probes) * 1e3, "ms", len(probes))}
    if not trace and workload.ops:
        metrics, workload_summary = workload.end_to_end()
        summary.update(workload_summary)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
        summary["peak_rss_mb"] = metrics["peak_rss_mb"]
    summary["failed_frac"] = (workload.failed / max(workload.attempted, 1), "1",
                              workload.attempted)
    return {
        "correct": not workload.errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: (v[0] if isinstance(v, tuple) else v) for k, v in metrics.items()},
        "samples": {k: v[2] for k, v in metrics.items() if isinstance(v, tuple)},
        "summary": summary,
        "errors": workload.errors,
        "misses": workload.misses,
        "notes": notes,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "entdist": entdist.__file__,
        },
    }


def workload_pass(workload: Workload) -> None:
    for step in workload.steps:
        step()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans-file", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work_dir,
                 args.spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
