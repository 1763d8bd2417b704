"""Per-layer attribution for one traced repetition.

The traced repetition runs with ``repro.telemetry`` enabled and with each
layer's public entry points wrapped in a span named after the layer
(``simt.silent``, ``trace.consume``, ``api.analyze`` ...).  The wrappers live
here, in the benchmark, so the program under test is unchanged; they are
installed just before the traced repetition and removed right after it, so
the untimed and timed untraced repetitions run unpatched code.

A layer's *self time* is its span duration minus the durations of its
nearest nested layer spans.  Spans the program records itself (``suite``,
``launch``, ``execute``, ``dse.sweep`` ...) are not layers: they are looked
through when finding a layer's nearest layer ancestor.  Counters the
program records itself (``pass.<name>.seconds``, ``engine.compiled.*``,
``cache.hits``, ``dse.cells``) are read as they are.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer span -> the workload whose ``wall_s`` optimising the layer should
#: move, outermost layers first.  Each layer's ``<layer>_share`` metric is
#: its self time over the traced repetition's wall time.  Compile and plan
#: are expected to stay under 0.5% of wall time everywhere: optimising them
#: should move no workload.
LAYERS = {
    "api.characterize": "suite-cold",
    "api.analyze": "analyst-loop",
    "api.evaluate": "analyst-loop",
    "runtime.cache_lookup": "analyst-loop",
    "runtime.cache_store": "suite-cold",
    "trace.serialize": "suite-cold",
    "trace.deserialize": "analyst-loop",
    "workloads.run": "scaled-sampled",
    "workloads.check": "suite-cold",
    "simt.compile": "suite-cold",
    "simt.plan": "suite-cold",
    "simt.silent": "scaled-sampled",
    "simt.observed": "scaled-sampled",
    "simt.record": "profiled-all",
    "trace.consume": "suite-cold",
    "analysis.feature_matrix": "analyst-loop",
    "analysis.standardize": "analyst-loop",
    "analysis.pca": "analyst-loop",
    "analysis.linkage": "analyst-loop",
    "analysis.choose_k": "analyst-loop",
    "analysis.representatives": "analyst-loop",
    "analysis.subspace": "analyst-loop",
    "evaluation.kmeans": "analyst-loop",
    "evaluation.subset": "analyst-loop",
    "uarch.sweep": "analyst-loop",
    "uarch.timing_lookup": "analyst-loop",
    "uarch.timing_store": "analyst-loop",
    "uarch.roofline": "analyst-loop",
    "uarch.cycle": "analyst-loop",
}

#: Analysis pass -> the workload its ``trace.pass.<name>_share`` should move.
PASSES = {
    "mix": "suite-cold",
    "ilp": "suite-cold",
    "branch": "suite-cold",
    "coalescing": "suite-cold",
    "shared": "suite-cold",
    "reuse": "profiled-all",
    "texture": "suite-cold",
}
PLAN_TIERS = ("clear", "symbolic_clear", "footprint_grouped", "pinned")

#: Per-layer metric -> (unit, better, end-to-end metric it should move, on
#: which workload).  ``bench/tests`` checks this table against
#: ``BENCHMARK.json``.
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    **{f"{layer}_share": ("fraction", "lower", "wall_s", w) for layer, w in LAYERS.items()},
    **{f"trace.pass.{name}_share": ("fraction", "lower", "wall_s", w) for name, w in PASSES.items()},
    "simt.silent_batches": ("count", "lower", "wall_s", "scaled-sampled"),
    "simt.observed_batches": ("count", "lower", "wall_s", "scaled-sampled"),
    "simt.observed_useful_frac": ("fraction", "higher", "wall_s", "scaled-sampled"),
    "simt.events": ("count", "lower", "wall_s", "profiled-all"),
    "simt.event_bytes": ("bytes", "lower", "peak_rss_mb", "profiled-all"),
    **{f"simt.plan.{tier}": ("count", "lower" if tier == "pinned" else "higher",
                             "wall_s", "scaled-sampled") for tier in PLAN_TIERS},
    "trace.consume_ns_per_event": ("ns", "lower", "wall_s", "profiled-all"),
    "trace.shard_bytes": ("bytes", "lower", "wall_s", "suite-cold"),
    "runtime.cache_hit_frac": ("fraction", "higher", "wall_s", "analyst-loop"),
    "uarch.timing_hit_frac": ("fraction", "higher", "wall_s", "analyst-loop"),
    "uarch.cells": ("count", "lower", "wall_s", "analyst-loop"),
    "sim.warp_instrs": ("count", "lower", "wall_s", "scaled-sampled"),
    "bench.traced_wall_s": ("s", "lower", "wall_s", "suite-cold"),
    "bench.attributed_frac": ("fraction", "higher", "wall_s", "suite-cold"),
    "bench.trace_overhead_frac": ("fraction", "lower", "wall_s", "suite-cold"),
}


def self_times(spans: Iterable[Any], layers: Iterable[str] = LAYERS) -> Dict[str, float]:
    """Self seconds per layer name from a span tree.

    ``spans`` are objects with ``name``, ``span_id``, ``parent_id`` and
    ``duration`` (:class:`repro.telemetry.Span`).  Each layer span's
    duration is credited to its layer and debited from its nearest layer
    ancestor; spans of other names are transparent.
    """
    layers = frozenset(layers)
    spans = list(spans)
    by_id = {sp.span_id: sp for sp in spans}
    out: Dict[str, float] = defaultdict(float)
    for sp in spans:
        if sp.name not in layers:
            continue
        out[sp.name] += sp.duration
        parent = by_id.get(sp.parent_id)
        while parent is not None and parent.name not in layers:
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            out[parent.name] -= sp.duration
    return dict(out)


class TraceStats:
    """Counts the wrappers gather that the program does not record itself."""

    def __init__(self) -> None:
        self.silent_batches = 0
        self.observed_batches = 0
        self.observed_blocks = 0
        self.profiled_blocks = 0
        self.shard_bytes = 0
        self.sweep_hits = 0
        self.sweep_cells = 0


_MISSING = object()


class Patcher:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        #: (owner, attribute, original value or ``_MISSING`` if inherited).
        self.entries: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        own = getattr(owner, "__dict__", None)
        if own is None:  # an instance with __slots__
            original = getattr(owner, attr)
        else:
            original = own.get(attr, _MISSING)
        self.entries.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.entries:
            owner, attr, original = self.entries.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _spanned(tele, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tele.start_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tele.finish_span(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(tele, stats: TraceStats) -> Patcher:
    """Wrap every layer's entry points in spans; returns the undo record."""
    import repro.api as api
    import repro.core.evaluation as evaluation
    import repro.core.pipeline as pipeline
    import repro.core.runtime as runtime
    import repro.simt.compiled as compiled
    import repro.simt.events as events
    import repro.simt.executor as executor
    import repro.trace.collector as collector
    import repro.uarch as uarch
    import repro.uarch.sweep as sweep
    from repro.core.featurespace import FeatureMatrix
    from repro.uarch.models import get_model, model_names
    from repro.workloads import registry

    p = Patcher()

    def wrap(owner: Any, attr: str, layer: str, after: Optional[Callable] = None) -> None:
        p.set(owner, attr, _spanned(tele, layer, getattr(owner, attr), after))

    for name in ("characterize", "analyze", "evaluate"):
        wrap(api, name, f"api.{name}")

    def shard_size(args, _result) -> None:
        if isinstance(args[1], str) and os.path.exists(args[1]):
            stats.shard_bytes += os.path.getsize(args[1])

    def loaded_size(args, _result) -> None:
        if isinstance(args[0], str):
            stats.shard_bytes += os.path.getsize(args[0])

    wrap(runtime.ProfileCache, "lookup", "runtime.cache_lookup")
    wrap(runtime.ProfileCache, "store", "runtime.cache_store")
    wrap(runtime, "dump_workload_profile", "trace.serialize", shard_size)
    wrap(runtime, "load_workload_profile", "trace.deserialize", loaded_size)

    # A workload inheriting run/check from another class is covered by
    # wrapping the class that defines the method.
    for method in ("run", "check"):
        definers = {
            next(c for c in cls.__mro__ if method in vars(c))
            for cls in registry.all_workloads()
        }
        for cls in sorted(definers, key=lambda c: c.__qualname__):
            wrap(cls, method, f"workloads.{method}")

    # ``compile_kernel`` is bound by name in both the executor and the
    # compiled module.  ``run_silent`` is a slot of each compiled kernel, so
    # it is wrapped per instance as kernels are compiled.
    original_compile = compiled.compile_kernel

    def count_silent(_args, _result) -> None:
        stats.silent_batches += 1

    def compile_kernel(kernel):
        ck = original_compile(kernel)
        if not getattr(ck.run_silent, "_bench_layer", False):
            silent = _spanned(tele, "simt.silent", ck.run_silent, count_silent)
            silent._bench_layer = True
            p.set(ck, "run_silent", silent)
        return ck

    timed_compile = _spanned(tele, "simt.compile", compile_kernel)
    p.set(compiled, "compile_kernel", timed_compile)
    p.set(executor, "compile_kernel", timed_compile)
    wrap(compiled, "plan_batches", "simt.plan")

    def count_observed(args, _result) -> None:
        st = args[0]
        stats.observed_batches += 1
        stats.observed_blocks += st.nblk
        stats.profiled_blocks += len(st.recorder.block_ids) if st.recorder else st.nblk

    original_runner = compiled.CompiledKernel.observed_runner

    def observed_runner(self, hooks):
        run = original_runner(self, hooks)
        return _spanned(tele, "simt.observed", run, count_observed) if hooks else run

    p.set(compiled.CompiledKernel, "observed_runner", observed_runner)
    wrap(events.EventRecorder, "finish", "simt.record")
    wrap(collector.KernelTraceCollector, "on_batch", "trace.consume")

    from_profiles = vars(FeatureMatrix)["from_profiles"].__func__
    p.set(FeatureMatrix, "from_profiles",
          classmethod(_spanned(tele, "analysis.feature_matrix", from_profiles)))
    for attr, layer in (
        ("standardize", "analysis.standardize"),
        ("fit_pca", "analysis.pca"),
        ("linkage", "analysis.linkage"),
        ("choose_k", "analysis.choose_k"),
        ("representatives", "analysis.representatives"),
        ("analyze_subspace", "analysis.subspace"),
    ):
        wrap(pipeline, attr, layer)
    # The package re-exports ``kmeans`` under the submodule's own name, so
    # the module is reached through ``sys.modules``.
    wrap(sys.modules["repro.core.analysis.kmeans"], "kmeans", "evaluation.kmeans")
    wrap(evaluation, "evaluate_subset", "evaluation.subset")

    def count_sweep(_args, result) -> None:
        stats.sweep_hits += result.cache_hits
        stats.sweep_cells += result.cache_hits + result.cache_misses

    wrap(uarch, "run_sweep", "uarch.sweep", count_sweep)
    wrap(sweep.SweepCache, "lookup", "uarch.timing_lookup")
    wrap(sweep.SweepCache, "store", "uarch.timing_store")
    for name in model_names():
        wrap(get_model(name), "time_workload", f"uarch.{name}")
    return p


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tele,
    stats: TraceStats,
    traced_wall: float,
    untraced_wall: float,
    warp_instrs: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced repetition."""
    selfs = self_times(tele.spans)
    counters = tele.counters
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_share"] = _ratio(selfs.get(layer, 0.0), traced_wall)
    for name in PASSES:
        out[f"trace.pass.{name}_share"] = _ratio(
            counters.get(f"pass.{name}.seconds", 0.0), traced_wall
        )
    events = sum(counters.get(f"engine.compiled.events.{k}", 0.0) for k in ("instr", "mem", "branch"))
    consume_s = sum(sp.duration for sp in tele.spans if sp.name == "trace.consume")
    hits = counters.get("cache.hits", 0.0)
    out.update({
        "simt.silent_batches": stats.silent_batches,
        "simt.observed_batches": stats.observed_batches,
        "simt.observed_useful_frac": _ratio(stats.profiled_blocks, stats.observed_blocks),
        "simt.events": int(events),
        "simt.event_bytes": int(counters.get("engine.compiled.event_bytes", 0.0)),
        **{f"simt.plan.{tier}": int(counters.get(f"engine.compiled.hazard.{tier}", 0.0))
           for tier in PLAN_TIERS},
        "trace.consume_ns_per_event": _ratio(consume_s * 1e9, events),
        "trace.shard_bytes": stats.shard_bytes,
        "runtime.cache_hit_frac": _ratio(hits, hits + counters.get("cache.misses", 0.0)),
        "uarch.timing_hit_frac": _ratio(stats.sweep_hits, stats.sweep_cells),
        "uarch.cells": int(counters.get("dse.cells", 0.0)),
        "sim.warp_instrs": int(warp_instrs),
        "bench.traced_wall_s": traced_wall,
        "bench.attributed_frac": _ratio(sum(selfs.values()), traced_wall),
        "bench.trace_overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
    })
    return out
