#!/usr/bin/env python3
"""Layered benchmark of the characterize -> analyze -> evaluate pipeline.

Run every workload, each in a fresh child interpreter, and print every
end-to-end and per-layer metric::

    python bench/run.py [--seed N] [--seconds S] [--out FILE]

Run one workload; the last line of standard output is one JSON result::

    python bench/run.py --workload suite-cold --seed 3 --seconds 15 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``, measured on untraced repetitions; with ``--trace 1`` it
carries the per-layer metrics of one extra traced repetition.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_PY = os.path.abspath(__file__)
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space of running benchmarks, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".bench_work")

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_RUNS = 5
#: Seconds before a set-up or workload child is killed.
CHILD_TIMEOUT = 170

#: numpy's BLAS would otherwise start a thread per core: the benchmark's
#: load is one process with one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_FILE) as fh:
        return json.load(fh)


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def time_setups(name: str, seed: int, outcome) -> List[float]:
    """Wall seconds of fresh interpreters that only set the workload up."""
    cmd = [sys.executable, RUN_PY, "--setup-only", "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT,
        )
        samples.append(time.perf_counter() - t0)
        outcome.check(proc.returncode == 0, f"set-up child exited {proc.returncode}: {proc.stderr[-500:]}")
    return samples


def new_work_dir(name: str) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)


def remove_work_dir(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass  # another run still uses it


def traced_rep(spec, outcome, untraced_wall: float, chrome: Optional[str]) -> Dict[str, float]:
    """One repetition under telemetry with every layer wrapped in spans."""
    import layers
    from repro.telemetry import get_telemetry, write_trace

    tele = get_telemetry()
    stats = layers.TraceStats()
    tele.enable(reset=True)
    patcher = layers.install(tele, stats)
    try:
        rep = spec.rep(outcome)
    finally:
        patcher.restore()
        tele.disable()
    metrics = layers.layer_metrics(tele, stats, rep.seconds, untraced_wall, rep.warp_instrs)
    if chrome:
        write_trace(tele, chrome)
    tele.reset()
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, chrome: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload and return its full record."""
    from specs import SPECS, Outcome

    spec = SPECS[name]
    outcome = Outcome()
    record: Dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    walls: List[float] = []
    work = None
    try:
        setups = time_setups(name, seed, outcome)
        work = new_work_dir(name)
        spec.prepare(seed, work)
        spec.warmup(outcome)
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
            rep = spec.rep(outcome)
            walls.append(rep.seconds)
        record["deterministic"] = spec.deterministic(rep)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["end_to_end"] = {
            "wall_s": summarize(walls, "s"),
            "setup_s": summarize(setups, "s"),
            "peak_rss_mb": summarize([rss_mb], "MB"),
        }
        if trace:
            record["per_layer"] = traced_rep(spec, outcome, statistics.median(walls), chrome)
    except Exception:  # a broken run still reports what it measured
        outcome.check(False, traceback.format_exc(limit=8))
    finally:
        if work is not None:
            remove_work_dir(work)
    record.update(
        correct=not outcome.failures,
        attempted=outcome.attempted,
        failed=len(outcome.failures),
        failures=outcome.failures[:20],
    )
    return record


def result_line(record: Dict[str, Any], bench: Dict[str, Any]) -> Dict[str, Any]:
    """The result line: end-to-end or per-layer metrics only."""
    if record["trace"]:
        table, measured = bench["per_layer"], record.get("per_layer", {})
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in table if m["name"] in measured}
    else:
        table, measured = bench["end_to_end"], record.get("end_to_end", {})
        metrics = {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                   for m in table if m["name"] in measured}
    return {
        "correct": record["correct"] and len(metrics) == len(table),
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: Dict[str, Any], bench: Dict[str, Any], out=sys.stdout) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, {record['seconds']:g} s window)", file=out)
    for name, m in record.get("end_to_end", {}).items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:8s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}", file=out)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}", file=out)
    print(f"  checks: {record['attempted']} attempted, {record['failed']} failed", file=out)
    for failure in record["failures"]:
        print(f"  FAILED: {failure.strip()}", file=out)


def run_all(args, bench: Dict[str, Any]) -> int:
    """Every workload, one at a time, each in a fresh child interpreter."""
    records = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        work = new_work_dir("record")
        path = os.path.join(work, f"{name}.json")
        try:
            proc = subprocess.run(
                [sys.executable, RUN_PY, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", "1", "--record", path],
                cwd=ROOT, stdout=subprocess.DEVNULL, timeout=4 * CHILD_TIMEOUT,
            )
            text = ""
            if os.path.exists(path):
                with open(path) as fh:
                    text = fh.read()
        finally:
            remove_work_dir(work)
        record = json.loads(text) if text else {
            "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": True,
            "correct": False, "attempted": 1, "failed": 1,
            "failures": [f"child exited {proc.returncode} without a record"],
        }
        print_record(record, bench)
        records[name] = record
    ok = all(r["correct"] for r in records.values())
    if args.out:
        doc = {
            "schema": "repro.bench-run/v1",
            "seed": args.seed,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "workloads": records,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} on {len(records)} workloads")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, each in a child)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced repetition and report per-layer metrics")
    parser.add_argument("--out", help="all-workload mode: write every record to this JSON file")
    parser.add_argument("--record", help="one-workload mode: write the full record to this file")
    parser.add_argument("--chrome", help="write the traced repetition's Chrome trace here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(BENCHMARK_FILE):
        print(f"error: repository sources not found under {ROOT}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if not args.workload:
        return run_all(args, bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    if args.setup_only:
        from specs import SPECS

        work = new_work_dir(args.workload)
        try:
            SPECS[args.workload].prepare(args.seed, work)
        finally:
            remove_work_dir(work)
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.chrome)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
    print_record(record, bench)
    result = result_line(record, bench)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
