"""Analytical timing model: directional correctness on synthetic profiles."""

import numpy as np
import pytest

from repro.trace.profile import GlobalMemStats, KernelProfile, LocalityStats, SharedMemStats, WorkloadProfile
from repro.uarch import (
    BASELINE,
    bottleneck_summary,
    default_space,
    get_model,
    run_sweep,
    time_kernel,
)


def _compute_profile() -> KernelProfile:
    """A compute-bound kernel: lots of warp instructions, no memory."""
    return KernelProfile(
        kernel_name="compute",
        grid=(64, 1),
        block=(256, 1),
        total_blocks=64,
        profiled_blocks=64,
        threads_total=64 * 256,
        thread_instrs={"fp": 10_000_000},
        warp_instrs={"fp": 400_000},
    )


def _memory_profile(reuse_frac=0.0) -> KernelProfile:
    """A bandwidth-bound kernel with an optional cache-friendly reuse CDF."""
    hist = np.zeros(64, dtype=np.int64)
    accesses = 100_000
    reuses = int(accesses * reuse_frac)
    hist[3] = reuses  # distances < 8 lines: hits in any realistic cache
    return KernelProfile(
        kernel_name="mem",
        grid=(64, 1),
        block=(256, 1),
        total_blocks=64,
        profiled_blocks=64,
        threads_total=64 * 256,
        thread_instrs={"ld.global": 200_000},
        warp_instrs={"ld.global": 6_250},
        gmem=GlobalMemStats(accesses=6_250, transactions_32b=25_000, transactions_128b=50_000),
        locality=LocalityStats(
            reuse_histogram=hist,
            cold_misses=accesses - reuses,
            line_accesses=accesses,
            unique_lines=accesses - reuses,
        ),
    )


def test_more_sms_speed_up_compute_bound():
    p = _compute_profile()
    base = time_kernel(p, BASELINE)
    fat = time_kernel(p, BASELINE.derive("sm32", num_sms=32))
    assert base.bottleneck == "compute"
    assert fat.total_cycles < base.total_cycles


def test_sms_beyond_grid_width_do_not_help():
    p = _compute_profile()
    narrow = KernelProfile(**{**p.__dict__, "total_blocks": 4, "grid": (4, 1)})
    a = time_kernel(narrow, BASELINE.derive("sm16", num_sms=16))
    b = time_kernel(narrow, BASELINE.derive("sm64", num_sms=64))
    assert a.compute_cycles == b.compute_cycles


def test_bandwidth_bound_gains_from_bandwidth_not_sms():
    p = _memory_profile()
    base = time_kernel(p, BASELINE)
    assert base.bottleneck == "bandwidth"
    more_sms = time_kernel(p, BASELINE.derive("sm32", num_sms=32))
    more_bw = time_kernel(p, BASELINE.derive("bw", dram_bandwidth=128.0))
    assert more_bw.total_cycles < base.total_cycles
    assert more_sms.total_cycles == pytest.approx(base.total_cycles, rel=0.2)


def test_cache_helps_only_reusing_workloads():
    streaming = _memory_profile(reuse_frac=0.0)
    reusing = _memory_profile(reuse_frac=0.8)
    no_cache = BASELINE.derive("no-l2", l2_lines=0)
    with_cache = BASELINE.derive("l2", l2_lines=4096)
    s0 = time_kernel(streaming, no_cache).total_cycles
    s1 = time_kernel(streaming, with_cache).total_cycles
    r0 = time_kernel(reusing, no_cache).total_cycles
    r1 = time_kernel(reusing, with_cache).total_cycles
    assert s1 == pytest.approx(s0)
    assert r1 < r0 * 0.5


def test_cache_hit_rate_follows_reuse_cdf():
    p = _memory_profile(reuse_frac=0.5)
    t = time_kernel(p, BASELINE.derive("l2", l2_lines=4096))
    assert t.cache_hit_rate == pytest.approx(0.5, abs=0.01)


def test_shared_conflicts_inflate_compute():
    base = _compute_profile()
    conflicted = KernelProfile(
        **{
            **base.__dict__,
            "shmem": SharedMemStats(accesses=200_000, conflict_degree_sum=800_000.0),
        }
    )
    a = time_kernel(base, BASELINE)
    b = time_kernel(conflicted, BASELINE)
    assert b.compute_cycles > a.compute_cycles


def test_sfu_instructions_cost_more():
    p = _compute_profile()
    sfu = KernelProfile(
        **{**p.__dict__, "warp_instrs": {"fp": 200_000, "sfu": 200_000}}
    )
    assert time_kernel(sfu, BASELINE).compute_cycles > time_kernel(p, BASELINE).compute_cycles


def test_latency_bound_when_concurrency_low():
    p = _memory_profile()
    skinny = BASELINE.derive("skinny", max_warps_per_sm=1, num_sms=1, dram_bandwidth=1e9)
    t = time_kernel(p, skinny)
    assert t.bottleneck == "latency"
    fat = BASELINE.derive("fat", max_warps_per_sm=64, num_sms=64, dram_bandwidth=1e9)
    assert time_kernel(p, fat).latency_cycles < t.latency_cycles


def test_sampling_scale_extrapolates():
    p = _compute_profile()
    sampled = KernelProfile(**{**p.__dict__, "profiled_blocks": 16})
    full = time_kernel(p, BASELINE).total_cycles
    est = time_kernel(sampled, BASELINE).total_cycles
    # 1/4 of blocks profiled -> warp instructions scale by 4 -> same estimate.
    assert est == pytest.approx((full - BASELINE.launch_overhead) * 4 + BASELINE.launch_overhead)


def test_time_workload_sums_kernels():
    wp = WorkloadProfile("w", "s", [_compute_profile(), _memory_profile()])
    total = get_model("roofline").time_workload(wp, BASELINE)
    parts = sum(time_kernel(k, BASELINE).total_cycles for k in wp.kernels)
    assert total == pytest.approx(parts)


def test_speedup_matrix_baseline_column_is_one():
    wps = [
        WorkloadProfile("a", "s", [_compute_profile()]),
        WorkloadProfile("b", "s", [_memory_profile()]),
    ]
    configs = [BASELINE, BASELINE.derive("sm32", num_sms=32)]
    m = run_sweep(wps, configs, use_cache=False).speedups("roofline")
    assert m.shape == (2, 2)
    assert np.allclose(m[:, 0], 1.0)
    assert m[0, 1] > 1.0  # compute-bound gains from SMs


def test_default_design_space_well_formed():
    space = default_space().configs()
    names = [c.name for c in space]
    assert len(names) == len(set(names))
    assert BASELINE in space
    assert all(c.num_sms > 0 and c.dram_bandwidth > 0 for c in space)


def test_bottleneck_summary_partitions(suite_profiles):
    groups = bottleneck_summary(suite_profiles, BASELINE)
    listed = [w for group in groups.values() for w in group]
    assert sorted(listed) == sorted(p.workload for p in suite_profiles)
    # The suite must exercise at least two different bottlenecks.
    assert sum(1 for g in groups.values() if g) >= 2


def test_occupancy_limited_by_registers():
    from repro.uarch.model import occupancy_warps

    light = _compute_profile()
    heavy = KernelProfile(**{**light.__dict__, "register_pressure": 64})
    cfg = BASELINE.derive("small-rf", regfile_per_sm=8192)
    # 64 regs * 32 lanes = 2048 regs/warp -> 4 warps from an 8K file.
    assert occupancy_warps(heavy, cfg) == 4
    assert occupancy_warps(light, cfg) > occupancy_warps(heavy, cfg)


def test_occupancy_limited_by_shared_memory():
    from repro.uarch.model import occupancy_warps

    p = _compute_profile()
    fat_shared = KernelProfile(**{**p.__dict__, "shared_bytes": 24576})
    cfg = BASELINE.derive("sh", shared_per_sm=49152)
    # Two blocks of 256 threads fit -> 16 warps.
    assert occupancy_warps(fat_shared, cfg) == 16


def test_occupancy_never_below_one():
    from repro.uarch.model import occupancy_warps

    p = KernelProfile(
        **{**_compute_profile().__dict__, "register_pressure": 10_000, "shared_bytes": 10**6}
    )
    assert occupancy_warps(p, BASELINE) == 1


def test_register_pressure_hurts_latency_bound_kernels():
    p = _memory_profile()
    heavy = KernelProfile(**{**p.__dict__, "register_pressure": 128})
    cfg = BASELINE.derive("rf", regfile_per_sm=8192, dram_bandwidth=1e9)
    light_t = time_kernel(p, cfg)
    heavy_t = time_kernel(heavy, cfg)
    assert heavy_t.latency_cycles > light_t.latency_cycles
