"""Run the entdist benchmark from the root of a checkout.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` one workload runs, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
per-layer metrics). Without it every workload runs in turn and a table of
the named metrics follows. The lines before the JSON give each metric by
name with its unit and sample count, and the Python, numpy and scipy
versions.

Set-up and import times come from fresh interpreters; each workload runs in
a child process of its own, with BLAS thread counts pinned to 1 in that
child's environment only. Everything written stays under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import entdist.cli; "
                "print(time.perf_counter() - t)")
IMPORT_BUCKETS = ("numpy", "scipy")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("ENTDIST_OUTPUT", None)
    return env


def _python(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _fresh_interpreters(args: list[str], env: dict) -> list[subprocess.CompletedProcess]:
    """``python args`` in SETUP_SAMPLES fresh interpreters, after one warm-up."""
    return [_python(args, env, 60) for _ in range(SETUP_SAMPLES + 1)][1:]


def setup_seconds(env: dict) -> float:
    """Median time to import entdist.cli in a fresh interpreter."""
    return statistics.median(float(p.stdout) for p in _fresh_interpreters(["-c", IMPORT_PROBE], env))


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of ``python -X importtime -c 'import entdist...'`` spent in numpy, scipy and the rest.

    Each module's self time goes to the nearest enclosing numpy or scipy
    import, if any, else to entdist; modules loaded at interpreter start-up
    are not counted.
    """
    roots: list[tuple[str, int, list]] = []     # (name, self us, children), post-order stack
    levels: list[int] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, raw = line[len("import time:"):].split("|")
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while levels and levels[-1] > level:
            levels.pop()
            children.insert(0, roots.pop())
        roots.append((raw.strip(), int(self_us), children))
        levels.append(level)
    seconds = {bucket: 0.0 for bucket in (*IMPORT_BUCKETS, "entdist")}

    def visit(node, bucket):
        name, self_us, children = node
        top = name.split(".")[0]
        bucket = top if top in IMPORT_BUCKETS and bucket == "entdist" else bucket
        seconds[bucket] += self_us * 1e-6
        for child in children:
            visit(child, bucket)

    for node in roots:
        if node[0].split(".")[0] == "entdist":
            visit(node, "entdist")
    return seconds


def import_seconds(env: dict) -> dict[str, float]:
    """Medians of :func:`parse_importtime` over fresh interpreters."""
    runs = [parse_importtime(p.stderr)
            for p in _fresh_interpreters(["-X", "importtime", "-c", "import entdist.cli"], env)]
    return {f"import.{bucket}_s": statistics.median(r[bucket] for r in runs) for bucket in runs[0]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    env = child_env()
    if trace:
        extra = import_seconds(env)
    else:
        extra = {"setup_s": setup_seconds(env)}
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    spans_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(exist_ok=True)
    limit = max(RUN_LIMIT_S, seconds + 150.0) - (time.monotonic() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work),
             "--spans-file", str(spans_dir / f"spans-{name}-seed{seed}.jsonl")],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=limit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload {name} exited {proc.returncode} without a result")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["versions"]["entdist"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"imported entdist from {result['versions']['entdist']}, "
                         f"not from {ROOT / 'src'}")
    result["metrics"].update(extra)
    result["samples"].update(dict.fromkeys(extra, SETUP_SAMPLES))
    if "setup_s" in extra:
        result["summary"]["setup_s"] = [extra["setup_s"], "s", SETUP_SAMPLES]
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    unknown = set(result["metrics"]) - expected
    missing = expected - set(result["metrics"])
    if unknown or (missing and result["correct"]):
        raise BenchError(f"workload {name}: metrics {sorted(unknown)} are not in "
                         f"BENCHMARK.json and {sorted(missing)} were not measured")
    return result


def report(name: str, seed: int, seconds: float, trace: int, result: dict) -> None:
    v = result["versions"]
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace}: "
          f"python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, nproc {os.cpu_count()}")
    for key, (value, unit, n) in result["summary"].items():
        print(f"  {key:<28} {value:<14.6g} {unit:<4} n={n}")
    samples = result["samples"]
    for key in sorted(result["metrics"]):
        n = f"n={samples[key]}" if key in samples else ""
        print(f"  {key:<48} {result['metrics'][key]:<14.6g} {UNITS[key]:<6} {n}")
    for label in ("errors", "misses", "notes"):
        for message in result[label]:
            print(f"  {label}: {message}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the entdist benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, with a summary table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entdist" / "cli.py").is_file():
        print("perfbench: no entdist sources under src/ in this checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else WORKLOADS
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, args.seed, args.seconds, args.trace, results[name])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(contract_line(results[args.workload]))
        return 0
    print("summary")
    for name, result in results.items():
        for key, (value, unit, n) in result["summary"].items():
            print(f"  {name:<13} {key:<28} {value:<14.6g} {unit:<4} n={n}")
    print(json.dumps({name: json.loads(contract_line(r)) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
