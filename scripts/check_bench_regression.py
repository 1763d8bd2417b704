#!/usr/bin/env python
"""Fail CI when the engine bench regresses against the committed baseline.

Usage::

    python scripts/check_bench_regression.py FRESH.json [BASELINE.json]

Compares a freshly produced bench JSON (``repro bench --quick -o FRESH.json``
in CI) against the committed ``BENCH_simt.json``.  Raw wall-clock seconds
are useless across machines, so the guard compares the *aggregate
interpreted/compiled speedup ratio* — a machine-relative quantity: both
engines run on the same host, so a genuine compiled-engine regression drags
the ratio down no matter how fast the runner is.

Speedup also varies with workload scale (small grids batch less), so the
aggregate is computed only over ``(workload, scale)`` entries present in
*both* files — the full basket embeds the quick basket precisely so this
intersection is non-empty.  If nothing matches, the files' top-level
speedups are compared as a fallback.

The check fails when the fresh ratio falls more than ``--tolerance``
(default 25%) below the baseline ratio.  The same guard is applied to the
demand-driven pass speedup (mix+branch vs all passes) when both files
record it.

The DSE sweep stage (cold vs warm timing-shard cache) is always guarded
when the fresh file records it: the warm leg must hit 100% of the timing
shards (an exact, deterministic invariant — any miss is a cache-keying
bug), and the cold/warm speedup must stay above a floor (widened tolerance,
since the warm leg is milliseconds of wall clock).

``--seconds-tolerance F`` additionally compares raw compiled wall-clock
seconds — the guard for the *disabled-telemetry* fast path, whose cost a
ratio check cannot see (both engines pay it).  It prefers the bench's
``telemetry.disabled_s`` record (best-of-N after warmup, the least noisy
wall-clock figure in the file) and falls back to the matched per-workload
entries.  Raw seconds only mean something against a same-host baseline, so
the check is skipped (with a notice) when the two files disagree on host,
machine or Python version.  CI runs it at 0.03: instrumentation may not
slow the shipping configuration by more than 3%.

``--max-telemetry-overhead F`` bounds the fresh file's own measured
enabled-vs-disabled telemetry overhead (the bench's ``telemetry`` record).

``--workload-floor F`` (default 1.0) requires *every* workload entry of a
full, unfiltered fresh bench to reach at least ``F``x speedup — the
compiled engine must never lose to the interpreter outright.  Quick and
``--workloads``-filtered files skip this check with a notice: their
baskets are too small (or scale-reduced) for an absolute floor to be a
stable contract.

A fresh file produced by ``repro bench --workloads ...`` carries a
``workload_filter`` marker; for such files the aggregate ratio is not
comparable (the basket changed), so the guard compares each matched
workload's speedup individually instead.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_BASELINE = "BENCH_simt.json"
DEFAULT_TOLERANCE = 0.25


def load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("benchmark") != "simt-engine":
        raise SystemExit(f"{path}: not a simt-engine bench file")
    return doc


def matched_speedups(fresh: dict, baseline: dict):
    """Aggregate speedups over (workload, scale) entries both files share.

    Returns ``(fresh_speedup, baseline_speedup, matched_count)`` or ``None``
    when there is no overlap (or a matched compiled time is zero).
    """

    def key(entry: dict):
        return (entry["workload"], json.dumps(entry["scale"], sort_keys=True))

    base_map = {key(e): e for e in baseline.get("workloads", [])}
    fresh_i = fresh_c = base_i = base_c = 0.0
    matched = 0
    for entry in fresh.get("workloads", []):
        ref = base_map.get(key(entry))
        if ref is None:
            continue
        matched += 1
        fresh_i += float(entry["interpreted_s"])
        fresh_c += float(entry["compiled_s"])
        base_i += float(ref["interpreted_s"])
        base_c += float(ref["compiled_s"])
    if not matched or not fresh_c or not base_c:
        return None
    return fresh_i / fresh_c, base_i / base_c, matched


def matched_compiled_seconds(fresh: dict, baseline: dict):
    """Summed compiled seconds over shared entries, or ``None`` if none."""

    def key(entry: dict):
        return (entry["workload"], json.dumps(entry["scale"], sort_keys=True))

    base_map = {key(e): e for e in baseline.get("workloads", [])}
    fresh_c = base_c = 0.0
    matched = 0
    for entry in fresh.get("workloads", []):
        ref = base_map.get(key(entry))
        if ref is None:
            continue
        matched += 1
        fresh_c += float(entry["compiled_s"])
        base_c += float(ref["compiled_s"])
    if not matched:
        return None
    return fresh_c, base_c, matched


def check_seconds(fresh: dict, baseline: dict, tolerance: float) -> bool:
    """Fail when disabled-path compiled seconds regress beyond ``tolerance``."""
    for field in ("host", "machine", "python"):
        if not fresh.get(field) or fresh.get(field) != baseline.get(field):
            print(
                f"seconds check skipped: baseline recorded on a different "
                f"{field} ({baseline.get(field)} vs {fresh.get(field)})"
            )
            return True
    fresh_t, base_t = fresh.get("telemetry"), baseline.get("telemetry")
    if fresh_t and base_t:
        fresh_c = float(fresh_t["disabled_s"])
        base_c = float(base_t["disabled_s"])
        label = "disabled-telemetry compiled seconds (quick basket, best-of-N)"
    else:
        matched = matched_compiled_seconds(fresh, baseline)
        if matched is None:
            print("seconds check skipped: no matching (workload, scale) entries")
            return True
        fresh_c, base_c, count = matched
        label = f"compiled seconds ({count} matched workloads)"
    ceiling = base_c * (1.0 + tolerance)
    ok = fresh_c <= ceiling
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"{label}: fresh {fresh_c:.2f}s vs baseline {base_c:.2f}s "
        f"(ceiling {ceiling:.2f}s) ... {verdict}"
    )
    return ok


def check_telemetry_overhead(fresh: dict, budget: float) -> bool:
    record = fresh.get("telemetry")
    if not record:
        print("telemetry overhead check skipped: fresh file records none")
        return True
    overhead = float(record["overhead"])
    ok = overhead <= budget
    verdict = "ok" if ok else "OVER BUDGET"
    print(
        f"enabled-telemetry overhead: {overhead:+.1%} "
        f"(budget {budget:.0%}) ... {verdict}"
    )
    return ok


def check_sweep(fresh: dict, baseline: dict, tolerance: float) -> bool:
    """Guard the DSE sweep stage: exact warm-cache hits + speedup floor.

    The warm-hit check is deterministic — a warm rerun must serve *every*
    (workload × design × model) cell from the timing shards, so any miss is
    a cache-keying bug, not noise, and fails exactly.  The cold/warm
    speedup is wall-clock (the warm leg is milliseconds), so its ratio
    check runs at 4x the usual tolerance with an absolute floor of 2x.
    """
    record = fresh.get("dse_sweep")
    if not record:
        print("dse sweep check skipped: fresh file records no sweep stage")
        return True
    hits, cells = int(record["warm_hits"]), int(record["cells"])
    ok = hits == cells and cells > 0
    verdict = "ok" if ok else "CACHE MISS"
    print(f"dse sweep warm-cache hits: {hits}/{cells} ... {verdict}")
    base_record = baseline.get("dse_sweep")
    if base_record:
        floor = max(2.0, float(base_record["speedup"]) / (1.0 + 4.0 * tolerance))
        speedup = float(record["speedup"])
        speed_ok = speedup >= floor
        verdict = "ok" if speed_ok else "REGRESSION"
        print(
            f"dse sweep cold/warm speedup: fresh {speedup:.2f}x vs baseline "
            f"{float(base_record['speedup']):.2f}x (floor {floor:.2f}x) ... {verdict}"
        )
        ok &= speed_ok
    return ok


def check_workload_floor(fresh: dict, floor: float) -> bool:
    """Every workload of a full, unfiltered bench must reach ``floor``x."""
    if fresh.get("quick") or fresh.get("workload_filter"):
        reason = "quick basket" if fresh.get("quick") else "workload-filtered run"
        print(f"per-workload floor check skipped: {reason}")
        return True
    entries = fresh.get("workloads", [])
    if not entries:
        print("per-workload floor check skipped: fresh file has no workloads")
        return True
    ok = True
    for entry in entries:
        speedup = float(entry["speedup"])
        good = speedup >= floor
        verdict = "ok" if good else "BELOW FLOOR"
        scale = " ".join(f"{k}={v}" for k, v in entry["scale"].items())
        print(
            f"workload floor {entry['workload']} [{scale}]: {speedup:.2f}x "
            f"(floor {floor:.2f}x) ... {verdict}"
        )
        ok &= good
    return ok


def check_filtered_workloads(fresh: dict, baseline: dict, tolerance: float) -> bool:
    """Per-workload ratio guard for ``--workloads``-filtered fresh files."""

    def key(entry: dict):
        return (entry["workload"], json.dumps(entry["scale"], sort_keys=True))

    base_map = {key(e): e for e in baseline.get("workloads", [])}
    ok = True
    matched = 0
    for entry in fresh.get("workloads", []):
        ref = base_map.get(key(entry))
        if ref is None:
            continue
        matched += 1
        ok &= check_ratio(
            f"workload speedup {entry['workload']}",
            float(entry["speedup"]),
            float(ref["speedup"]),
            tolerance,
        )
    if not matched:
        print(
            "filtered run: no matching (workload, scale) entries in the "
            "baseline; nothing to compare"
        )
    return ok


def check_ratio(label: str, fresh: float, baseline: float, tolerance: float) -> bool:
    floor = baseline / (1.0 + tolerance)
    ok = fresh >= floor
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"{label}: fresh {fresh:.2f}x vs baseline {baseline:.2f}x "
        f"(floor {floor:.2f}x) ... {verdict}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="bench JSON produced by this run")
    parser.add_argument(
        "baseline",
        nargs="?",
        default=DEFAULT_BASELINE,
        help=f"committed baseline (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown before failing (default: 0.25)",
    )
    parser.add_argument(
        "--seconds-tolerance",
        type=float,
        default=None,
        help="also compare matched compiled wall-clock seconds against a "
        "same-machine baseline; fail beyond this fractional slowdown",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=None,
        help="fail when the fresh bench's measured enabled-telemetry "
        "overhead exceeds this fraction",
    )
    parser.add_argument(
        "--workload-floor",
        type=float,
        default=1.0,
        help="minimum per-workload speedup a full unfiltered fresh bench "
        "must reach (default: 1.0 — the compiled engine never loses)",
    )
    args = parser.parse_args(argv)

    fresh = load(args.fresh)
    baseline = load(args.baseline)

    if fresh.get("workload_filter"):
        print(
            f"fresh file is workload-filtered ({','.join(fresh['workload_filter'])}); "
            "aggregate speedup is not comparable — checking per workload"
        )
        ok = check_filtered_workloads(fresh, baseline, args.tolerance)
    else:
        matched = matched_speedups(fresh, baseline)
        if matched is not None:
            fresh_ratio, base_ratio, count = matched
            ok = check_ratio(
                f"engine speedup ({count} matched workloads)",
                fresh_ratio,
                base_ratio,
                args.tolerance,
            )
        else:
            print("no matching (workload, scale) entries; comparing top-level speedups")
            ok = check_ratio(
                "engine speedup",
                float(fresh["speedup"]),
                float(baseline["speedup"]),
                args.tolerance,
            )
    ok &= check_workload_floor(fresh, args.workload_floor)
    fresh_demand = fresh.get("demand_speedup")
    base_demand = baseline.get("demand_speedup")
    if fresh_demand is not None and base_demand is not None:
        ok &= check_ratio(
            "demand-driven pass speedup",
            float(fresh_demand),
            float(base_demand),
            args.tolerance,
        )
    ok &= check_sweep(fresh, baseline, args.tolerance)
    if args.seconds_tolerance is not None:
        ok &= check_seconds(fresh, baseline, args.seconds_tolerance)
    if args.max_telemetry_overhead is not None:
        ok &= check_telemetry_overhead(fresh, args.max_telemetry_overhead)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
