"""End-to-end execution-engine benchmark: compiled + batched vs interpreted.

Times a basket of workloads at *characterization scale* — grids of hundreds
to thousands of thread blocks with the default 48-block profile sample —
under both execution engines and reports per-workload and aggregate
speedups.  This is the regime the compiled/batched engine targets: with
block sampling, the overwhelming majority of blocks run silent, and the
engine stacks them into wide batched launches instead of interpreting the
IR block by block.

The interpreted engine is the reference implementation
(:mod:`repro.simt.executor`); both engines produce bit-identical device
memory and profiles (see ``tests/simt/test_engine_parity.py``), so the
comparison is purely about wall clock.

Results are written as JSON (``BENCH_simt.json`` at the repo root by
default) so CI can archive them and successive PRs can be compared.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.workloads import registry
from repro.workloads.runner import DEFAULT_SAMPLE_BLOCKS, run_workload

#: Reduced basket for CI smoke runs (``repro bench --quick``): the three
#: cheapest workloads at one-quarter scale, well under a minute total.
QUICK_BASKET: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("VA", {"n": 1 << 18}),
    ("BS", {"n": 1 << 16}),
    ("NN", {"n": 1 << 16}),
)

#: The full benchmark basket: (abbrev, scale overrides).  Scales are chosen
#: so each workload launches hundreds to thousands of blocks — the paper's
#: characterization regime — while keeping the whole bench under a few
#: minutes of wall clock.  It embeds the quick basket, so the committed
#: full-bench JSON contains like-for-like entries for the CI regression
#: guard (``scripts/check_bench_regression.py``) to compare a quick run
#: against.
FULL_BASKET: Tuple[Tuple[str, Dict[str, Any]], ...] = QUICK_BASKET + (
    ("VA", {"n": 1 << 20}),
    ("BS", {"n": 1 << 18}),
    ("NN", {"n": 1 << 18}),
    ("MM", {"width": 256}),
    ("TR", {"width": 512, "height": 512}),
    ("STEN", {"nx": 256, "ny": 256, "nz": 16, "iters": 1}),
)

#: Basket for the per-pass overhead stage.  These runs profile *every*
#: block (``sample_blocks=None``) under the compiled engine, so collection
#: cost — not silent batching — dominates and the pass-set ratios are
#: meaningful.
PASS_BASKET: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("VA", {"n": 1 << 18}),
    ("BS", {"n": 1 << 16}),
)


def pass_sets() -> List[Tuple[str, Optional[Tuple[str, ...]]]]:
    """The pass sets the bench times: all, the demand-driven mix+branch
    subset, and each pass alone (its marginal cost over the base run)."""
    from repro.trace.profile import PASS_NAMES

    sets: List[Tuple[str, Optional[Tuple[str, ...]]]] = [
        ("all", None),
        ("mix+branch", ("mix", "branch")),
    ]
    sets.extend((name, (name,)) for name in PASS_NAMES)
    return sets


@dataclass
class BenchEntry:
    """Timing for one workload under both engines."""

    workload: str
    scale: Dict[str, Any]
    interpreted_s: float
    compiled_s: float

    @property
    def speedup(self) -> float:
        return self.interpreted_s / self.compiled_s if self.compiled_s else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "interpreted_s": round(self.interpreted_s, 4),
            "compiled_s": round(self.compiled_s, 4),
            "speedup": round(self.speedup, 2),
        }


@dataclass
class PassSetEntry:
    """Compiled-engine timing of the pass basket under one pass set."""

    name: str
    passes: Optional[List[str]]  # None = every pass
    seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passes": self.passes,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class TelemetryOverhead:
    """Compiled-engine timing of the quick basket with telemetry off vs on.

    ``disabled_s`` is the shipping configuration (telemetry is off by
    default); ``enabled_s`` pays for span bookkeeping, metric counters and
    the batch-occupancy histogram.  ``overhead`` is the median of the
    per-repetition enabled/disabled ratios: each repetition times the two
    legs back-to-back, so a load burst inflates both sides of its own ratio
    and the median discards repetitions where it hit only one.
    """

    disabled_s: float
    enabled_s: float
    overhead: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "disabled_s": round(self.disabled_s, 4),
            "enabled_s": round(self.enabled_s, 4),
            "overhead": round(self.overhead, 4),
        }


@dataclass
class SweepStage:
    """DSE sweep-engine timing: cold vs warm timing-shard cache.

    The cold leg computes every (workload × design × model) cell of the
    default design space over the quick basket's profiles; the warm leg
    reruns the identical sweep against the shards the cold leg wrote.  A
    correct cache serves *every* cell on the warm leg (``hit_rate`` 1.0) —
    the regression guard enforces that exactly, plus a floor on the
    cold/warm speedup.
    """

    cold_s: float
    warm_s: float
    cells: int
    warm_hits: int

    @property
    def speedup(self) -> float:
        return self.cold_s / self.warm_s if self.warm_s else float("inf")

    @property
    def hit_rate(self) -> float:
        return self.warm_hits / self.cells if self.cells else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cold_s": round(self.cold_s, 4),
            "warm_s": round(self.warm_s, 4),
            "speedup": round(self.speedup, 2),
            "cells": self.cells,
            "warm_hits": self.warm_hits,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class BenchResult:
    """The complete benchmark outcome."""

    quick: bool
    sample_blocks: Optional[int]
    entries: List[BenchEntry] = field(default_factory=list)
    pass_entries: List[PassSetEntry] = field(default_factory=list)
    telemetry: Optional[TelemetryOverhead] = None
    dse_sweep: Optional[SweepStage] = None
    #: Abbrevs the run was restricted to (``--workloads``), or ``None`` for
    #: a full-basket run.  Filtered results are marked in the JSON so the
    #: regression checker compares per-workload only and skips aggregates.
    workload_filter: Optional[List[str]] = None

    @property
    def total_interpreted_s(self) -> float:
        return sum(e.interpreted_s for e in self.entries)

    @property
    def total_compiled_s(self) -> float:
        return sum(e.compiled_s for e in self.entries)

    @property
    def speedup(self) -> float:
        total = self.total_compiled_s
        return self.total_interpreted_s / total if total else float("inf")

    def pass_seconds(self, name: str) -> Optional[float]:
        for entry in self.pass_entries:
            if entry.name == name:
                return entry.seconds
        return None

    @property
    def demand_speedup(self) -> Optional[float]:
        """How much faster the mix+branch-only run is than all passes."""
        all_s = self.pass_seconds("all")
        demand_s = self.pass_seconds("mix+branch")
        if not all_s or not demand_s:
            return None
        return all_s / demand_s

    def to_dict(self) -> Dict[str, Any]:
        demand = self.demand_speedup
        return {
            "benchmark": "simt-engine",
            "quick": self.quick,
            "sample_blocks": self.sample_blocks,
            "workload_filter": self.workload_filter,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "host": platform.node(),
            "workloads": [e.to_dict() for e in self.entries],
            "total_interpreted_s": round(self.total_interpreted_s, 4),
            "total_compiled_s": round(self.total_compiled_s, 4),
            "speedup": round(self.speedup, 2),
            "pass_sets": [e.to_dict() for e in self.pass_entries],
            "demand_speedup": round(demand, 2) if demand is not None else None,
            "telemetry": self.telemetry.to_dict() if self.telemetry else None,
            "dse_sweep": self.dse_sweep.to_dict() if self.dse_sweep else None,
        }


def _time_engine(
    workload,
    engine: str,
    sample_blocks: Optional[int],
    passes: Optional[Tuple[str, ...]] = None,
) -> float:
    t0 = time.perf_counter()
    run_workload(
        workload,
        verify=False,
        sample_blocks=sample_blocks,
        engine=engine,
        passes=passes,
    )
    return time.perf_counter() - t0


def run_bench(
    quick: bool = False,
    sample_blocks: Optional[int] = DEFAULT_SAMPLE_BLOCKS,
    basket: Optional[Sequence[Tuple[str, Dict[str, Any]]]] = None,
    progress: Optional[callable] = None,
    workloads: Optional[Sequence[str]] = None,
) -> BenchResult:
    """Run the engine benchmark and return the timings.

    ``workloads`` restricts the engine-comparison stage to the named
    abbrevs (every basket entry matching any of them runs; unknown names
    raise :class:`ValueError`).  A filtered run times *only* that stage —
    the pass-set, DSE-sweep and telemetry stages are skipped —
    and is marked with ``workload_filter`` in the JSON so the regression
    checker knows aggregate totals are not comparable.

    Each workload is simulated once per engine.  Single-shot timings are
    noisy: repeated runs on a shared 2-vCPU host spread by 3-21%, so
    compare ratios across runs, not absolute seconds.  ``verify`` is off:
    the numpy reference check costs the same under both engines and would
    only dilute the measured ratio.

    A second stage times the :data:`PASS_BASKET` under the compiled engine
    for each pass set in :func:`pass_sets` — this is what quantifies the
    payoff of demand-driven collection (``--passes``/``--metrics``) and the
    marginal cost of each pass.

    Both timed stages run with telemetry *paused*: the numbers must reflect
    the shipping (telemetry-off) configuration even when the bench
    invocation itself is traced (``--trace-out``), and span/metric
    recording would otherwise skew the pass-set ratios — the per-event cost
    weighs more on the faster mix+branch leg than on the all-passes leg.
    The telemetry-overhead stage manages the registry itself.
    """
    from repro.telemetry import get_telemetry

    if basket is None:
        basket = QUICK_BASKET if quick else FULL_BASKET
    selected: Optional[List[str]] = None
    if workloads is not None:
        selected = [w.strip().upper() for w in workloads if w.strip()]
        known = {abbrev for abbrev, _scale in basket}
        unknown = sorted(set(selected) - known)
        if unknown:
            raise ValueError(
                f"unknown bench workload(s) {', '.join(unknown)}; "
                f"basket has {', '.join(sorted(known))}"
            )
        basket = [(abbrev, scale) for abbrev, scale in basket if abbrev in selected]
    result = BenchResult(
        quick=quick, sample_blocks=sample_blocks, workload_filter=selected
    )
    tele = get_telemetry()
    was_enabled = tele.enabled
    if was_enabled:
        tele.disable()
    try:
        for abbrev, scale in basket:
            cls = registry.get(abbrev)
            if progress:
                progress(f"{abbrev} {scale} ...")
            interp = _time_engine(cls(**scale), "interpreted", sample_blocks)
            comp = _time_engine(cls(**scale), "compiled", sample_blocks)
            entry = BenchEntry(abbrev, dict(scale), interp, comp)
            result.entries.append(entry)
            if progress:
                progress(
                    f"{abbrev}: interpreted {interp:.2f}s, compiled {comp:.2f}s "
                    f"({entry.speedup:.2f}x)"
                )
        if selected is None:
            for name, chosen in pass_sets():
                total = 0.0
                for abbrev, scale in PASS_BASKET:
                    cls = registry.get(abbrev)
                    total += _time_engine(cls(**scale), "compiled", None, passes=chosen)
                result.pass_entries.append(
                    PassSetEntry(name, list(chosen) if chosen is not None else None, total)
                )
                if progress:
                    progress(f"passes[{name}]: {total:.2f}s")
            result.dse_sweep = _time_dse_sweep(sample_blocks, progress)
    finally:
        if was_enabled:
            tele.enable(reset=False)
    if selected is None:
        result.telemetry = _time_telemetry_overhead(sample_blocks, progress)
    return result


def _time_dse_sweep(
    sample_blocks: Optional[int], progress: Optional[callable]
) -> SweepStage:
    """Time a cold-vs-warm DSE sweep over the quick basket's profiles.

    Both timing models sweep the default design space against a private
    shard directory: the cold leg computes every cell, the warm leg must
    serve all of them from the shards.  Profile collection happens before
    the timed region — this stage measures the sweep engine, not the
    simulator.
    """
    import tempfile

    from repro.uarch.sweep import run_sweep

    profiles = [
        run_workload(
            registry.get(abbrev)(**scale), verify=False, sample_blocks=sample_blocks
        )
        for abbrev, scale in QUICK_BASKET
    ]
    with tempfile.TemporaryDirectory() as shard_dir:
        t0 = time.perf_counter()
        run_sweep(profiles, models=None, cache_dir=shard_dir)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_sweep(profiles, models=None, cache_dir=shard_dir)
        warm_s = time.perf_counter() - t0
    stage = SweepStage(
        cold_s=cold_s,
        warm_s=warm_s,
        cells=warm.cache_hits + warm.cache_misses,
        warm_hits=warm.cache_hits,
    )
    if progress:
        progress(
            f"dse sweep: cold {cold_s:.2f}s, warm {warm_s:.2f}s "
            f"({stage.speedup:.2f}x, {stage.hit_rate:.0%} shard hits)"
        )
    return stage


#: Paired off/on repetitions of the telemetry stage; the median of the
#: per-pair ratios filters scheduler noise out of the sub-second timings.
TELEMETRY_REPS = 5


def _time_telemetry_overhead(
    sample_blocks: Optional[int], progress: Optional[callable]
) -> TelemetryOverhead:
    """Time the quick basket compiled with telemetry off vs on.

    Runs :data:`TELEMETRY_REPS` back-to-back (off, on) pairs after one
    untimed warmup, and reports the *median* per-pair ratio — see
    :class:`TelemetryOverhead` for why that is robust against load bursts.
    When the bench itself runs traced (``--trace-out``), the invocation's
    registry is kept: recording pauses for the disabled legs and resumes —
    without resetting — for the enabled ones.
    """
    from statistics import median

    from repro.telemetry import get_telemetry

    tele = get_telemetry()
    was_enabled = tele.enabled

    def time_basket() -> float:
        total = 0.0
        for abbrev, scale in QUICK_BASKET:
            cls = registry.get(abbrev)
            total += _time_engine(cls(**scale), "compiled", sample_blocks)
        return total

    tele.disable()
    time_basket()  # warmup: page cache, numpy init, import costs
    ratios = []
    disabled_s = enabled_s = float("inf")
    for _ in range(TELEMETRY_REPS):
        tele.disable()
        off = time_basket()
        tele.enable(reset=False)
        on = time_basket()
        disabled_s = min(disabled_s, off)
        enabled_s = min(enabled_s, on)
        ratios.append(on / off if off else 1.0)
    if not was_enabled:
        tele.disable()
        tele.reset()
    overhead = TelemetryOverhead(disabled_s, enabled_s, median(ratios) - 1.0)
    if progress:
        progress(
            f"telemetry: disabled {disabled_s:.2f}s, enabled {enabled_s:.2f}s "
            f"({overhead.overhead:+.1%} median of {TELEMETRY_REPS} pairs)"
        )
    return overhead


def write_bench_json(result: BenchResult, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
