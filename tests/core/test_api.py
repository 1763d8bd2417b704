"""The stable ``repro.api`` facade and the legacy-entrypoint shims."""

import copy
import dataclasses
import importlib

import numpy as np
import pytest

from repro.api import (
    CharacterizationConfig,
    CharacterizationResult,
    EvaluationResult,
    analyze,
    characterize,
    evaluate,
    trace_session,
)
from repro.workloads import registry

SMALL = ["VA", "BS", "KM", "SS", "HG"]
MODELS = ("roofline", "cycle")


@pytest.fixture(scope="module")
def small_result():
    return characterize(CharacterizationConfig(abbrevs=SMALL, sample_blocks=16))


def test_characterize_returns_result_object(small_result):
    assert isinstance(small_result, CharacterizationResult)
    assert [p.workload for p in small_result.profiles] == SMALL
    assert small_result.failures == []


def test_characterize_rejects_legacy_call_shape():
    with pytest.raises(TypeError, match="CharacterizationConfig"):
        characterize(["VA", "BS"])


def test_analyze_accepts_result_or_profiles(small_result):
    from_result = analyze(small_result)
    from_profiles = analyze(small_result.profiles)
    assert from_result.workloads == from_profiles.workloads
    assert from_result.kmeans_best_k == from_profiles.kmeans_best_k
    assert from_result.representatives


def test_evaluate_end_to_end(small_result):
    ev = evaluate(small_result, subset_k=2)
    assert isinstance(ev, EvaluationResult)
    assert len(ev.representatives) == 2
    assert len(ev.weights) == 2
    assert abs(sum(ev.weights) - 1.0) < 1e-9
    assert 0.0 <= ev.mean_error < 1.0
    assert -1.0 <= ev.kendall_tau <= 1.0
    assert isinstance(ev.same_winner, bool)


def test_evaluate_reuses_provided_analysis(small_result):
    analysis = analyze(small_result)
    a = evaluate(small_result, subset_k=2, analysis=analysis)
    b = evaluate(small_result, subset_k=2)
    assert a.representatives == b.representatives


def _evaluation_record(ev):
    sub = ev.subset
    return (
        ev.model, ev.representatives, ev.weights, sub.design_names, sub.kendall_tau,
        sub.full_speedups.tolist(), sub.subset_speedups.tolist(), sub.relative_errors.tolist(),
    )


def test_evaluate_fits_subset_clustering_once_per_analysis(small_result, monkeypatch):
    kmeans_module = importlib.import_module("repro.core.analysis.kmeans")
    analysis = analyze(small_result)
    original = kmeans_module.kmeans
    fits = []

    def counting(points, k, rng=None, **kwargs):
        fits.append(k)
        return original(points, k, rng, **kwargs)

    monkeypatch.setattr(kmeans_module, "kmeans", counting)
    got = [
        evaluate(small_result, subset_k=2, analysis=analysis, model=model)
        for model in MODELS
        for _leg in ("cold", "warm")
    ]
    assert fits == [2]
    evaluate(small_result, subset_k=3, analysis=analysis)
    evaluate(small_result, subset_k=2, analysis=analysis, seed=1)
    assert fits == [2, 3, 2]
    monkeypatch.undo()
    fresh = {
        model: evaluate(small_result, subset_k=2, analysis=analyze(small_result), model=model)
        for model in MODELS
    }
    assert [_evaluation_record(ev) for ev in got] == [
        _evaluation_record(fresh[model]) for model in MODELS for _leg in ("cold", "warm")
    ]


def test_one_round_digests_each_profile_once(suite_result, monkeypatch, tmp_path):
    # A fresh result (and memo) over the suite's profiles, as a warm
    # characterize returns them.
    result = dataclasses.replace(suite_result)
    analysis = analyze(result)
    sweep_module = importlib.import_module("repro.uarch.sweep")
    original = sweep_module.profile_digest
    digested = []

    def counting(profile):
        digested.append(profile.workload)
        return original(profile)

    def round_trip(source, cache):
        # One analyst round: each model cold (writing timing shards), then warm.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache))
        return [
            _evaluation_record(evaluate(source, analysis=analysis, model=model, jobs=1))
            for model in MODELS
            for _leg in ("cold", "warm")
        ]

    monkeypatch.setattr(sweep_module, "profile_digest", counting)
    got = round_trip(result, "memo")
    assert len(digested) == len(result.profiles) == len(registry.abbrevs())
    assert sorted(digested) == sorted(p.workload for p in result.profiles)
    # Bare profile lists are digested by every sweep, as before; the
    # served cycles and the subset's errors and tau are the same.
    digested.clear()
    assert round_trip(list(result.profiles), "bare") == got
    assert len(digested) == 4 * len(result.profiles)


def test_a_changed_profile_gets_a_fresh_digest(small_result, monkeypatch, tmp_path):
    from repro.uarch.sweep import profile_digest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    uarch = importlib.import_module("repro.uarch")
    original_sweep = uarch.run_sweep
    sweeps = []

    def recording_sweep(*args, **kwargs):
        sweeps.append(original_sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(uarch, "run_sweep", recording_sweep)
    result = dataclasses.replace(small_result, profiles=copy.deepcopy(small_result.profiles))
    before = result.profile_digests()
    evaluate(result, subset_k=2, model="cycle", jobs=1)  # writes the timing shards
    # Edited in place: one workload gets a second copy of its first launch,
    # another a larger instruction count; a third is replaced outright.
    result.profiles[0].kernels.append(copy.deepcopy(result.profiles[0].kernels[0]))
    kernel = result.profiles[1].kernels[0]
    kernel.warp_instrs = {k: 4 * v for k, v in kernel.warp_instrs.items()}
    doubled = result.profiles[2].kernels * 2
    result.profiles[2] = dataclasses.replace(result.profiles[2], kernels=doubled)
    after = result.profile_digests()
    assert after == [profile_digest(p) for p in result.profiles]
    assert [a != b for a, b in zip(after, before)] == [True, True, True, False, False]
    evaluate(result, subset_k=2, model="cycle", jobs=1)
    hits, misses = sweeps[-1].cache_hits, sweeps[-1].cache_misses
    assert misses and 3 * hits == 2 * misses  # only the three changed workloads miss
    evaluate(result, subset_k=2, model="cycle", jobs=1, use_cache=False)
    served, fresh, first = sweeps[-2], sweeps[-1], sweeps[0]
    np.testing.assert_array_equal(served.cycles["cycle"], fresh.cycles["cycle"])
    assert (served.cycles["cycle"][:3] != first.cycles["cycle"][:3]).all()


def test_evaluate_spans_show_fitted_then_reused_clustering(small_result):
    analysis = analyze(small_result)
    with trace_session() as tele:
        for model in MODELS:
            evaluate(small_result, subset_k=2, analysis=analysis, model=model)
        analyze(small_result)
    spans = tele.spans_by_name("evaluate")
    assert [(sp.attrs["model"], sp.attrs["subset_k"], sp.attrs["clustering"]) for sp in spans] == [
        ("roofline", 2, "fitted"),
        ("cycle", 2, "reused"),
    ]
    (span,) = tele.spans_by_name("analyze")
    assert span.attrs["workloads"] == len(SMALL)


def test_trace_session_enables_and_exports(tmp_path):
    from repro.telemetry import get_telemetry, load_trace

    path = tmp_path / "session.json"
    with trace_session(str(path)) as tele:
        assert tele is get_telemetry() and tele.enabled
        with tele.span("custom"):
            tele.count("my.counter", 3)
    assert not get_telemetry().enabled
    data = load_trace(str(path))
    assert [sp["name"] for sp in data.spans] == ["custom"]
    assert data.counters["my.counter"] == 3


def test_trace_session_writes_on_error(tmp_path):
    path = tmp_path / "crash.json"
    with pytest.raises(RuntimeError):
        with trace_session(str(path)) as tele:
            tele.count("before.crash")
            raise RuntimeError("boom")
    from repro.telemetry import load_trace

    assert load_trace(str(path)).counters["before.crash"] == 1


def test_top_level_reexports():
    import repro
    import repro.api as api

    assert repro.characterize is api.characterize
    assert repro.analyze is api.analyze
    assert repro.evaluate is api.evaluate
    assert repro.trace_session is api.trace_session
    assert repro.CharacterizationConfig is CharacterizationConfig


# ----------------------------------------------------------------------
# Legacy shims (removed)
# ----------------------------------------------------------------------


def test_legacy_shims_are_removed():
    import repro.core
    import repro.core.pipeline as pipeline

    for name in ("characterize_suites", "characterize_and_analyze"):
        assert not hasattr(pipeline, name)
        assert not hasattr(repro.core, name)
        assert name not in repro.core.__all__


# ----------------------------------------------------------------------
# REPRO_JOBS validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", ["0", "-3"])
def test_resolve_jobs_rejects_nonpositive_env(monkeypatch, bad):
    from repro.core.runtime import resolve_jobs

    monkeypatch.setenv("REPRO_JOBS", bad)
    with pytest.raises(ValueError, match="REPRO_JOBS must be a positive integer"):
        resolve_jobs(None)


def test_resolve_jobs_explicit_zero_still_means_all_cores(monkeypatch):
    import os

    from repro.core.runtime import resolve_jobs

    monkeypatch.setenv("REPRO_JOBS", "0")  # env is invalid...
    assert resolve_jobs(0) == (os.cpu_count() or 1)  # ...explicit 0 wins
