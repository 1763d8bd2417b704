"""Sweep engine: parity, shard caching, invalidation, derived views."""

import json
import os

import numpy as np
import pytest

from repro.trace.profile import GlobalMemStats, KernelProfile, LocalityStats, WorkloadProfile
from repro.uarch import (
    BASELINE,
    config_key,
    default_space,
    design_cost,
    pareto_frontier,
    profile_digest,
    run_sweep,
)
from repro.uarch import cycle
from repro.uarch.sweep import SweepCache


def _workload(name: str, fp: int, loads: int) -> WorkloadProfile:
    hist = np.zeros(64, dtype=np.int64)
    hist[3] = loads * 4
    kernel = KernelProfile(
        kernel_name=f"{name}-k",
        grid=(64, 1),
        block=(256, 1),
        total_blocks=64,
        profiled_blocks=64,
        threads_total=64 * 256,
        thread_instrs={"fp": fp * 32, "ld.global": loads * 32},
        warp_instrs={"fp": fp, "ld.global": loads},
        gmem=GlobalMemStats(accesses=loads, transactions_32b=loads * 4, transactions_128b=loads * 8),
        locality=LocalityStats(
            reuse_histogram=hist,
            cold_misses=loads * 12,
            line_accesses=loads * 16,
            unique_lines=loads * 12,
        ),
    )
    return WorkloadProfile(name, "synth", [kernel])


@pytest.fixture
def workloads():
    return [
        _workload("compute", fp=80_000, loads=100),
        _workload("memory", fp=2_000, loads=6_000),
        _workload("mixed", fp=40_000, loads=3_000),
    ]


def test_parallel_matches_serial_bit_for_bit(workloads, tmp_path):
    serial = run_sweep(
        workloads, models=None, jobs=1, cache_dir=str(tmp_path / "serial")
    )
    parallel = run_sweep(
        workloads, models=None, jobs=2, cache_dir=str(tmp_path / "parallel")
    )
    assert serial.models == parallel.models
    for model in serial.models:
        assert np.array_equal(serial.cycles[model], parallel.cycles[model])
        assert np.array_equal(
            serial.baseline_cycles[model], parallel.baseline_cycles[model]
        )


def test_warm_cache_serves_every_cell_identically(workloads, tmp_path):
    cold = run_sweep(workloads, models=None, cache_dir=str(tmp_path))
    assert cold.cache_hits == 0 and cold.cache_misses > 0
    warm = run_sweep(workloads, models=None, cache_dir=str(tmp_path))
    assert warm.cache_misses == 0
    assert warm.cache_hits == cold.cache_misses  # 100% of timing shards hit
    for model in cold.models:
        assert np.array_equal(cold.cycles[model], warm.cycles[model])


def test_model_edit_invalidates_only_that_models_shards(workloads, tmp_path, monkeypatch):
    run_sweep(workloads, models=None, cache_dir=str(tmp_path))

    original = SweepCache.model_digest

    def edited(self, name: str) -> str:
        if name == "cycle":
            return "cycle-edited"
        return original(self, name)

    monkeypatch.setattr(SweepCache, "model_digest", edited)
    rerun = run_sweep(workloads, models=None, cache_dir=str(tmp_path))
    n_designs = len(default_space().configs())
    # Roofline shards still hit; every cycle cell is recomputed.
    assert rerun.cache_hits == len(workloads) * n_designs
    assert rerun.cache_misses == len(workloads) * n_designs


@pytest.mark.parametrize(
    "entry",
    [{"cycles": None}, "x", {}, {"cycles": "nan"}, {"cycles": -5}],
    ids=["null", "string", "empty", "nan-string", "negative"],
)
def test_malformed_entry_is_a_miss_and_is_rewritten(workloads, tmp_path, entry):
    cold = run_sweep(workloads, models=("cycle",), cache_dir=str(tmp_path))
    cache = SweepCache(str(tmp_path))
    path = cache.shard_path(
        workloads[1].workload, profile_digest(workloads[1]), "cycle"
    )
    with open(path) as f:
        doc = json.load(f)
    doc["entries"][config_key(BASELINE)] = entry
    with open(path, "w") as f:
        json.dump(doc, f)

    rerun = run_sweep(workloads, models=("cycle",), cache_dir=str(tmp_path))
    assert rerun.cache_misses == 1
    assert np.array_equal(rerun.cycles["cycle"], cold.cycles["cycle"])
    assert np.array_equal(rerun.baseline_cycles["cycle"], cold.baseline_cycles["cycle"])
    # The recomputed cell overwrote the malformed entry.
    assert run_sweep(workloads, models=("cycle",), cache_dir=str(tmp_path)).cache_misses == 0


def test_stored_shard_is_the_compact_json_of_its_document(workloads, tmp_path):
    run_sweep(workloads, models=("roofline",), cache_dir=str(tmp_path))
    cache = SweepCache(str(tmp_path))
    for profile in workloads:
        path = cache.shard_path(profile.workload, profile_digest(profile), "roofline")
        with open(path) as f:
            text = f.read()
        doc = json.loads(text)
        assert doc["entries"] and text == json.dumps(doc)


def test_failed_store_leaves_no_temp_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        SweepCache(str(tmp_path)).store("w", "0" * 16, "roofline", {"k": {"cycles": 1.0}})
    assert list(tmp_path.iterdir()) == []


def test_wave_schedules_are_shared_within_one_worker_call(suite_profiles, tmp_path, monkeypatch):
    """Each distinct wave runs once per workload per sweep, never across sweeps."""
    calls = []
    schedule = cycle._schedule_wave

    def counted(*args):
        calls.append(args)
        return schedule(*args)

    monkeypatch.setattr(cycle, "_schedule_wave", counted)
    configs = default_space().configs()
    expected = 0
    for profile in suite_profiles:
        del calls[:]
        for config in configs:
            for kernel in profile.kernels:
                cycle.simulate_kernel(kernel, config)
        expected += len(set(calls))

    for sweep in ("first", "second"):
        del calls[:]
        run_sweep(
            suite_profiles, models=("cycle",), jobs=1, cache_dir=str(tmp_path / sweep)
        )
        assert len(calls) == expected


def test_numeric_environment_changes_model_digest(tmp_path, monkeypatch):
    before = SweepCache(str(tmp_path)).model_digest("roofline")
    monkeypatch.setattr(np, "__version__", "0.0.0+elsewhere")
    assert SweepCache(str(tmp_path)).model_digest("roofline") != before


def test_new_design_point_tops_up_shard(workloads, tmp_path):
    base_space = default_space().configs()
    run_sweep(workloads, configs=base_space, models=("roofline",), cache_dir=str(tmp_path))
    extended = base_space + [BASELINE.derive("sm64", num_sms=64)]
    topped = run_sweep(
        workloads, configs=extended, models=("roofline",), cache_dir=str(tmp_path)
    )
    # Only the one new design per workload misses.
    assert topped.cache_misses == len(workloads)
    assert topped.cache_hits == len(workloads) * len(base_space)


def test_baseline_appended_when_absent(workloads, tmp_path):
    configs = [BASELINE.derive("sm32", num_sms=32)]
    sweep = run_sweep(
        workloads, configs=configs, models=("roofline",), cache_dir=str(tmp_path)
    )
    assert sweep.design_names == ["sm32"]
    speedups = sweep.speedups("roofline")
    assert speedups.shape == (len(workloads), 1)
    assert np.all(sweep.baseline_cycles["roofline"] > 0)


def test_speedups_baseline_column_is_one(workloads, tmp_path):
    sweep = run_sweep(workloads, models=None, cache_dir=str(tmp_path))
    for model in sweep.models:
        col = sweep.design_names.index("base")
        assert np.allclose(sweep.speedups(model)[:, col], 1.0)


def test_use_cache_false_writes_nothing(workloads, tmp_path):
    sweep = run_sweep(workloads, models=("roofline",), use_cache=False, cache_dir=str(tmp_path))
    assert sweep.cache_hits == 0
    assert list(tmp_path.iterdir()) == []


def test_config_key_is_value_addressed():
    a = BASELINE.derive("one-name", num_sms=32)
    b = BASELINE.derive("other-name", num_sms=32)
    assert config_key(a) == config_key(b)
    assert config_key(a) != config_key(BASELINE)


def test_profile_digest_tracks_content(workloads):
    assert profile_digest(workloads[0]) != profile_digest(workloads[1])
    clone = _workload("compute", fp=80_000, loads=100)
    assert profile_digest(workloads[0]) == profile_digest(clone)


def test_design_cost_baseline_is_one():
    assert design_cost(BASELINE) == pytest.approx(1.0)
    assert design_cost(BASELINE.derive("fat", num_sms=32)) > 1.0
    assert design_cost(BASELINE.derive("lat", mem_latency=200)) > 1.0
    assert design_cost(BASELINE.derive("thin", num_sms=8)) < 1.0


def test_pareto_frontier_drops_dominated_points():
    costs = [1.0, 2.0, 2.0, 3.0]
    speedups = [1.0, 2.0, 1.5, 2.0]
    frontier = pareto_frontier(costs, speedups)
    assert frontier == [0, 1]


def test_telemetry_counts_cache_traffic(workloads, tmp_path):
    from repro.telemetry import get_telemetry

    tele = get_telemetry()
    tele.enable(reset=True)
    try:
        run_sweep(workloads, models=("roofline",), cache_dir=str(tmp_path))
        run_sweep(workloads, models=("roofline",), cache_dir=str(tmp_path))
    finally:
        tele.disable()
    n_cells = len(workloads) * len(default_space().configs())
    assert tele.counters["dse.cache.misses"] == n_cells
    assert tele.counters["dse.cache.hits"] == n_cells
    assert len(tele.spans_by_name("dse.sweep")) == 2
