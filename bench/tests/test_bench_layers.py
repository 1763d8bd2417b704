"""Self-time attribution and the traced repetition's wrappers."""

from collections import namedtuple

import pytest

import layers
import run
import specs
from repro.simt.compiled import compile_kernel
from repro.telemetry import get_telemetry
from repro.workloads.sdk.vectoradd import build_vectoradd_kernel

Span = namedtuple("Span", "name span_id parent_id duration")


def test_self_time_subtracts_nearest_nested_layers():
    spans = [
        Span("api.analyze", "a", None, 10.0),
        Span("analysis.choose_k", "b", "a", 5.0),
        Span("evaluation.kmeans", "c", "b", 3.0),
        Span("evaluation.kmeans", "d", "b", 1.5),
        # In-program spans are looked through: serialize is store's child.
        Span("runtime.cache_store", "e", None, 4.0),
        Span("attempt", "f", "e", 3.0),
        Span("trace.serialize", "g", "f", 2.5),
        Span("launch", "h", None, 7.0),
    ]
    got = layers.self_times(spans)
    assert got == pytest.approx({
        "api.analyze": 5.0,
        "analysis.choose_k": 0.5,
        "evaluation.kmeans": 4.5,
        "runtime.cache_store": 1.5,
        "trace.serialize": 2.5,
    })
    # Self times partition the layer roots' durations.
    assert sum(got.values()) == pytest.approx(10.0 + 4.0)


def _current(entries):
    return [
        getattr(owner, attr) if getattr(owner, "__dict__", None) is None
        else vars(owner).get(attr, layers._MISSING)
        for owner, attr, _original in entries
    ]


def test_wrappers_are_installed_then_restored():
    tele = get_telemetry()
    ck = compile_kernel(build_vectoradd_kernel())
    silent = ck.run_silent
    patcher = layers.install(tele, layers.TraceStats())
    try:
        import repro.simt.compiled as compiled

        compiled.compile_kernel(ck.kernel)
        assert ck.run_silent is not silent
        entries = list(patcher.entries)
        wrapped = _current(entries)
    finally:
        patcher.restore()
    restored = _current(entries)
    assert ck.run_silent is silent
    assert all(w is not r for w, r in zip(wrapped, restored))
    assert all(r is original or (r is layers._MISSING and original is layers._MISSING)
               for r, (_o, _a, original) in zip(restored, entries))


def test_traced_rep_reports_every_layer_metric_and_unpatches(tmp_path):
    spec = specs.Basket("tiny", (("VA", {"n": 4096}),), 48)
    spec.prepare(7, str(tmp_path))
    outcome = specs.Outcome()
    probe = layers.install(get_telemetry(), layers.TraceStats())
    entries = list(probe.entries)
    probe.restore()
    before = _current(entries)
    spec.warmup(outcome)
    metrics = run.traced_rep(spec, outcome, untraced_wall=1.0, chrome=None)
    assert _current(entries) == before
    assert not get_telemetry().enabled
    assert set(metrics) == set(layers.PER_LAYER)
    assert not outcome.failures
    assert metrics["simt.observed_batches"] > 0 and metrics["sim.warp_instrs"] > 0
    assert 0.5 < metrics["bench.attributed_frac"] <= 1.0 + 1e-9
