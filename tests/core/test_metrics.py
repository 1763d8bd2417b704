"""Characteristic registry and extraction semantics."""

import numpy as np
import pytest

from repro.core import metrics
from repro.trace.profile import (
    BranchStats,
    GlobalMemStats,
    KernelProfile,
    SharedMemStats,
    WorkloadProfile,
)


def _kernel(name="k", thread_instrs=None, warp_instrs=None, **kw) -> KernelProfile:
    return KernelProfile(
        kernel_name=name,
        grid=(4, 1),
        block=(128, 1),
        total_blocks=4,
        profiled_blocks=4,
        threads_total=512,
        thread_instrs=thread_instrs or {"int": 80, "fp": 20},
        warp_instrs=warp_instrs or {"int": 20, "fp": 5},
        **kw,
    )


def test_registry_unique_and_grouped():
    specs = metrics.all_metrics()
    names = [s.name for s in specs]
    assert len(names) == len(set(names))
    assert len(names) >= 35
    groups = metrics.metric_groups()
    assert "instruction mix" in groups
    assert "branch divergence" in groups
    assert "memory coalescing" in groups
    assert all(s.description for s in specs)


def test_subspaces_reference_registered_metrics():
    names = set(metrics.metric_names())
    for sub in metrics.SUBSPACES.values():
        assert set(sub) <= names


def test_mix_fractions_sum_to_one():
    k = _kernel()
    wp = WorkloadProfile("w", "s", [k])
    mix = [
        metrics.metric(name).workload_value(wp)
        for name in metrics.metric_names()
        if name.startswith("mix.")
    ]
    assert sum(mix) == pytest.approx(1.0)


def test_weighted_aggregation_over_kernels():
    small = _kernel("a", {"int": 100}, {"int": 25})
    big = _kernel("b", {"fp": 300}, {"fp": 75})
    wp = WorkloadProfile("w", "s", [small, big])
    # Weights: 25 vs 75 warp instructions.
    fp = metrics.metric("mix.fp").workload_value(wp)
    assert fp == pytest.approx(0.75)
    intf = metrics.metric("mix.int").workload_value(wp)
    assert intf == pytest.approx(0.25)


def test_log_metrics():
    k = _kernel()
    wp = WorkloadProfile("w", "s", [k])
    assert metrics.metric("par.threads_log").workload_value(wp) == pytest.approx(np.log2(512))
    assert metrics.metric("par.block_size_log").workload_value(wp) == pytest.approx(7.0)
    assert metrics.metric("par.blocks_log").workload_value(wp) == pytest.approx(2.0)


def test_divergence_metrics_from_branch_stats():
    k = _kernel(branch=BranchStats(events=10, divergent=4, if_events=10))
    wp = WorkloadProfile("w", "s", [k])
    assert metrics.metric("div.rate").workload_value(wp) == pytest.approx(0.4)
    assert metrics.metric("div.loop_frac").workload_value(wp) == 0.0


def test_coalescing_metrics_from_gmem_stats():
    g = GlobalMemStats(accesses=10, transactions_32b=40, transactions_128b=10, coalesced=10)
    k = _kernel(gmem=g)
    wp = WorkloadProfile("w", "s", [k])
    assert metrics.metric("coal.t32_per_access").workload_value(wp) == pytest.approx(4.0)
    assert metrics.metric("coal.coalesced_frac").workload_value(wp) == pytest.approx(1.0)


def test_locality_metrics_empty_profile_are_zero():
    k = _kernel()
    wp = WorkloadProfile("w", "s", [k])
    for name in metrics.metric_names():
        if name.startswith("loc."):
            assert metrics.metric(name).workload_value(wp) == 0.0


def test_shared_conflict_degree_default_one():
    k = _kernel(shmem=SharedMemStats())
    wp = WorkloadProfile("w", "s", [k])
    assert metrics.metric("shm.conflict_degree").workload_value(wp) == 1.0


def test_extract_vector_full_and_subset():
    wp = WorkloadProfile("w", "s", [_kernel()])
    full = metrics.extract_vector(wp)
    assert set(full) == set(metrics.metric_names())
    sub = metrics.extract_vector(wp, ["mix.int", "div.rate"])
    assert list(sub) == ["mix.int", "div.rate"]


def test_extract_kernel_vector():
    k = _kernel()
    v = metrics.extract_kernel_vector(k, ["mix.int"])
    assert v["mix.int"] == pytest.approx(0.8)


def test_empty_workload_returns_zero():
    wp = WorkloadProfile("w", "s", [])
    assert metrics.metric("mix.int").workload_value(wp) == 0.0


def test_simd_efficiency_defaults_to_one():
    k = _kernel()
    wp = WorkloadProfile("w", "s", [k])
    assert metrics.metric("div.simd_efficiency").workload_value(wp) == 1.0


def test_all_metrics_finite_on_real_profiles(suite_profiles):
    for profile in suite_profiles:
        vec = metrics.extract_vector(profile)
        for name, value in vec.items():
            assert np.isfinite(value), f"{profile.workload}.{name} = {value}"


def test_real_suite_known_extremes(suite_profiles):
    by_name = {p.workload: p for p in suite_profiles}
    vec = lambda w: metrics.extract_vector(by_name[w])
    # NB is the FP/ILP monster; VA has no FP at all beyond the add.
    assert vec("NB")["mix.fp"] > 0.3
    assert vec("TR")["mix.fp"] == 0.0
    # MRIQ leans on the SFU; SAD does not.
    assert vec("MRIQ")["mix.sfu"] > vec("SAD")["mix.sfu"]
    # KM's point-major layout is uncoalesced; VA is perfect.
    assert vec("KM")["coal.t32_per_access"] > 8.0
    assert vec("VA")["coal.coalesced_frac"] == 1.0
    # MUM diverges much harder than MM and fetches through textures.
    assert vec("MUM")["div.simd_efficiency"] < vec("MM")["div.simd_efficiency"]
    assert vec("MUM")["mix.texture"] > 0.05
    assert vec("KM")["mix.texture"] > 0.0
    # HG is the atomic workload.
    assert vec("HG")["mix.atomic"] > 0.05


def test_workload_level_metrics():
    k1 = _kernel("a")
    k2 = _kernel("b")
    wp = WorkloadProfile("w", "s", [k1, k2, _kernel("a")])
    assert metrics.metric("krn.launches_log").workload_value(wp) == pytest.approx(np.log2(3))
    assert metrics.metric("krn.unique_kernels_log").workload_value(wp) == pytest.approx(1.0)
    # Kernel-level fallback is constant (dropped by standardization later).
    assert metrics.metric("krn.launches_log").fn(k1) == 0.0


def test_workload_metrics_on_real_suite(suite_profiles):
    by = {p.workload: p for p in suite_profiles}
    launches = metrics.metric("krn.launches_log")
    assert launches.workload_value(by["GA"]) > launches.workload_value(by["VA"])
    uniq = metrics.metric("krn.unique_kernels_log")
    assert uniq.workload_value(by["LUD"]) > uniq.workload_value(by["MUM"])
