"""Event-driven cycle model: directional behaviour and scheduling invariants."""

import heapq
import random

import numpy as np
import pytest

from repro.trace.profile import GlobalMemStats, KernelProfile, LocalityStats, WorkloadProfile
from repro.uarch import BASELINE, default_space, get_model, run_sweep, simulate_kernel
from repro.uarch import cycle


def _profile(warp_instrs_total=100_000, mem_warp=0, blocks=64, reuse_frac=0.0):
    warps = {"fp": warp_instrs_total - mem_warp}
    if mem_warp:
        warps["ld.global"] = mem_warp
    hist = np.zeros(64, dtype=np.int64)
    accesses = max(mem_warp, 1)
    reuses = int(accesses * reuse_frac)
    hist[3] = reuses
    return KernelProfile(
        kernel_name="synXX",
        grid=(blocks, 1),
        block=(256, 1),
        total_blocks=blocks,
        profiled_blocks=blocks,
        threads_total=blocks * 256,
        thread_instrs={"fp": warp_instrs_total * 32},
        warp_instrs=warps,
        gmem=GlobalMemStats(
            accesses=max(mem_warp, 1),
            transactions_32b=4 * max(mem_warp, 1),
            transactions_128b=max(mem_warp, 1),
        ),
        locality=LocalityStats(
            reuse_histogram=hist,
            cold_misses=accesses - reuses,
            line_accesses=accesses,
            unique_lines=accesses - reuses,
        ),
    )


def test_compute_only_kernel_issue_bound():
    p = _profile(mem_warp=0)
    est = simulate_kernel(p, BASELINE)
    # 100k warp instructions over 16 SMs at issue width 1: ~6250 cycles/SM
    # per wave; waves = ceil(warps_per_sm / resident).
    assert est.issued_instructions > 0
    assert est.stall_fraction < 0.05
    faster = simulate_kernel(p, BASELINE.derive("w2", issue_width=2))
    assert faster.cycles < est.cycles


def test_memory_latency_exposed_with_one_warp():
    p = _profile(warp_instrs_total=1_000, mem_warp=500, blocks=1)
    skinny = BASELINE.derive("skinny", max_warps_per_sm=1, num_sms=1)
    est = simulate_kernel(p, skinny)
    # One warp cannot hide its own misses: stalls dominate.
    assert est.stall_fraction > 0.5


def test_more_warps_hide_latency():
    p = _profile(warp_instrs_total=40_000, mem_warp=4_000, blocks=32)
    few = simulate_kernel(p, BASELINE.derive("few", max_warps_per_sm=2))
    many = simulate_kernel(p, BASELINE.derive("many", max_warps_per_sm=32))
    assert many.cycles < few.cycles
    assert many.stall_fraction < few.stall_fraction


def test_bandwidth_saturation_limits_speed():
    p = _profile(warp_instrs_total=50_000, mem_warp=25_000, blocks=64)
    slow_bw = simulate_kernel(p, BASELINE.derive("bw8", dram_bandwidth=8.0))
    fast_bw = simulate_kernel(p, BASELINE.derive("bw256", dram_bandwidth=256.0))
    assert fast_bw.cycles < slow_bw.cycles


def test_cache_reuse_reduces_misses():
    streaming = simulate_kernel(
        _profile(warp_instrs_total=20_000, mem_warp=5_000, reuse_frac=0.0), BASELINE
    )
    reusing = simulate_kernel(
        _profile(warp_instrs_total=20_000, mem_warp=5_000, reuse_frac=0.9), BASELINE
    )
    assert reusing.misses < streaming.misses
    assert reusing.cycles < streaming.cycles


def test_deterministic():
    p = _profile(warp_instrs_total=30_000, mem_warp=3_000)
    a = simulate_kernel(p, BASELINE)
    b = simulate_kernel(p, BASELINE)
    assert a.cycles == b.cycles
    assert a.misses == b.misses


def test_workload_sums_kernels():
    p1 = _profile(10_000)
    p2 = _profile(20_000)
    wp = WorkloadProfile("w", "s", [p1, p2])
    total = get_model("cycle").time_workload(wp, BASELINE)
    parts = simulate_kernel(p1, BASELINE).cycles + simulate_kernel(p2, BASELINE).cycles
    assert total == pytest.approx(parts)


def test_speedup_matrix_shape_and_baseline():
    wps = [WorkloadProfile("a", "s", [_profile(10_000)]), WorkloadProfile("b", "s", [_profile(5_000, 2_000)])]
    configs = [BASELINE, BASELINE.derive("sm32", num_sms=32)]
    m = run_sweep(wps, configs, models=("cycle",), use_cache=False).speedups("cycle")
    assert m.shape == (2, 2)
    assert np.allclose(m[:, 0], 1.0)


def test_agreement_with_roofline_on_real_suite(suite_profiles):
    """The two independent models must broadly agree on design rankings."""
    from repro.core.evaluation import geomean, kendall_tau
    sweep = run_sweep(suite_profiles, models=("roofline", "cycle"), use_cache=False)
    cm = sweep.speedups("cycle")
    rm = sweep.speedups("roofline")
    cfull = [geomean(cm[:, j]) for j in range(cm.shape[1])]
    rfull = [geomean(rm[:, j]) for j in range(rm.shape[1])]
    assert kendall_tau(cfull, rfull) > 0.8


def _oracle_wave(nwarps, instrs_per_warp, mems_per_warp, miss_rate, service, issue_width, mem_latency):
    """The straightforward per-warp heap schedule the fast scheduler must match."""
    burst = instrs_per_warp // (mems_per_warp + 1)
    remaining_instrs = [instrs_per_warp] * nwarps
    remaining_mems = [mems_per_warp] * nwarps
    ready_at = [0.0] * nwarps
    heap = [(0.0, i, i) for i in range(nwarps)]
    heapq.heapify(heap)
    clock = 0.0
    dram_free = 0.0
    issued = 0
    mems = 0
    misses = 0
    stall = 0.0
    miss_accum = 0.0
    issue = max(issue_width, 1)
    while heap:
        ready, _seq, idx = heapq.heappop(heap)
        if ready > clock:
            stall += ready - clock
            clock = ready
        if remaining_mems[idx] > 0:
            run = min(burst, remaining_instrs[idx] - remaining_mems[idx])
            clock += run / issue + 1.0
            issued += run + 1
            remaining_instrs[idx] -= run + 1
            remaining_mems[idx] -= 1
            mems += 1
            miss_accum += miss_rate
            if miss_accum >= 1.0:
                miss_accum -= 1.0
                misses += 1
                start = max(clock, dram_free)
                dram_free = start + service
                ready_at[idx] = start + mem_latency
            else:
                ready_at[idx] = clock + cycle.HIT_LATENCY
            heapq.heappush(heap, (ready_at[idx], issued, idx))
        elif remaining_instrs[idx] > 0:
            clock += remaining_instrs[idx] / issue
            issued += remaining_instrs[idx]
            remaining_instrs[idx] = 0
    clock = max(clock, max(ready_at, default=0.0), dram_free)
    return clock, issued, mems, misses, stall


def test_schedule_wave_matches_oracle_on_random_scalars():
    rng = random.Random(2010)
    cases = [
        (1, 500, 40, 0.5, 3.0, 1, 400),
        (4, 300, 0, 0.3, 2.0, 1, 400),
        (8, 1000, 30, 0.0, 5.0, 1, 400),
        (8, 1000, 30, 1.0, 5.0, 1, 400),
        (6, 800, 25, 0.7, 0.0, 1, 400),
        (6, 800, 25, 0.7, 4.0, 2, 400),
    ]
    for _ in range(300):
        cases.append((
            rng.randint(1, 48),
            rng.randint(1, 3000),
            rng.choice([0, rng.randint(0, 200)]),
            rng.choice([0.0, 1.0, rng.random()]),
            rng.choice([0.0, rng.uniform(0.0, 60.0)]),
            rng.choice([1, 2, 4]),
            rng.choice([200, 400, 800]),
        ))
    # Every burst shape: full runs only, a partial run, runs shorter than
    # the memory ops, empty bursts.
    for instrs in range(1, 40):
        for mems in range(0, 40):
            cases.append((2, instrs, mems, 0.5, 3.0, 1, 400))
    for args in cases:
        assert cycle._schedule_wave(*args) == _oracle_wave(*args), args


def test_simulate_kernel_matches_oracle_on_suite(suite_profiles, monkeypatch):
    pairs = [
        (kernel, config)
        for profile in suite_profiles
        for kernel in profile.kernels
        for config in default_space().configs()
    ]
    fast = [simulate_kernel(k, c) for k, c in pairs]
    schedules = {}
    shared = [simulate_kernel(k, c, schedules) for k, c in pairs]
    monkeypatch.setattr(cycle, "_schedule_wave", _oracle_wave)
    assert [simulate_kernel(k, c) for k, c in pairs] == fast == shared
