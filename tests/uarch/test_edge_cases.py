"""Degenerate inputs and configs for both uarch models.

The cycle/roofline models sit at the end of every evaluation pipeline, so
they must stay finite and sane on the inputs real sweeps produce at the
margins: empty kernels, single-block grids, one-SM devices, starved
bandwidth, and disabled caches.
"""

import math

import numpy as np
import pytest

from repro.trace.profile import GlobalMemStats, KernelProfile, LocalityStats, WorkloadProfile
from repro.uarch import BASELINE, get_model, run_sweep, simulate_kernel, time_kernel
from repro.uarch.model import occupancy_warps


def _profile(**overrides) -> KernelProfile:
    base = dict(
        kernel_name="edge",
        grid=(4, 1),
        block=(64, 1),
        total_blocks=4,
        profiled_blocks=4,
        threads_total=256,
        thread_instrs={"fp": 8_000},
        warp_instrs={"fp": 256},
    )
    base.update(overrides)
    return KernelProfile(**base)


def _mem_profile(**overrides) -> KernelProfile:
    hist = np.zeros(64, dtype=np.int64)
    return _profile(
        thread_instrs={"ld.global": 8_000},
        warp_instrs={"ld.global": 256},
        gmem=GlobalMemStats(accesses=256, transactions_32b=1_024, transactions_128b=2_048),
        locality=LocalityStats(
            reuse_histogram=hist, cold_misses=2_048, line_accesses=2_048, unique_lines=2_048
        ),
        **overrides,
    )


# --------------------------------------------------------------------------
# Zero-instruction kernels


def test_zero_instruction_kernel_costs_launch_overhead_only():
    empty = _profile(thread_instrs={}, warp_instrs={})
    timing = time_kernel(empty, BASELINE)
    assert timing.total_cycles == pytest.approx(BASELINE.launch_overhead)
    assert timing.dram_transactions == 0
    assert math.isfinite(timing.total_cycles)


def test_zero_instruction_kernel_event_model_finite():
    empty = _profile(thread_instrs={}, warp_instrs={})
    est = simulate_kernel(empty, BASELINE)
    assert math.isfinite(est.cycles)
    assert est.cycles >= BASELINE.launch_overhead
    assert est.misses == 0
    assert 0.0 <= est.stall_fraction <= 1.0


def test_zero_profiled_blocks_scale_to_zero_work():
    unsampled = _profile(profiled_blocks=0, thread_instrs={}, warp_instrs={})
    assert unsampled.sampling_scale == 0.0
    timing = time_kernel(unsampled, BASELINE)
    assert timing.total_cycles == pytest.approx(BASELINE.launch_overhead)


def test_empty_workload_times_to_zero():
    empty = WorkloadProfile(workload="none", suite="t", kernels=[])
    assert get_model("roofline").time_workload(empty, BASELINE) == 0.0
    assert get_model("cycle").time_workload(empty, BASELINE) == 0.0


# --------------------------------------------------------------------------
# Single-block grids


def test_single_block_grid_uses_one_sm():
    solo = _profile(grid=(1, 1), total_blocks=1, profiled_blocks=1, threads_total=64)
    base = time_kernel(solo, BASELINE)
    fat = time_kernel(solo, BASELINE.derive("sm64", num_sms=64))
    # One block can never fill more than one SM: extra SMs must not help,
    # and per the monotonicity invariant must not hurt either.
    assert fat.total_cycles == pytest.approx(base.total_cycles)


def test_single_block_event_model_matches_sm_count():
    solo = _mem_profile(grid=(1, 1), total_blocks=1, profiled_blocks=1, threads_total=64)
    one = simulate_kernel(solo, BASELINE.derive("sm1", num_sms=1))
    many = simulate_kernel(solo, BASELINE.derive("sm32", num_sms=32))
    assert math.isfinite(one.cycles) and math.isfinite(many.cycles)
    assert many.cycles == pytest.approx(one.cycles)


# --------------------------------------------------------------------------
# Degenerate configs: 1 SM, starved bandwidth, disabled caches


def test_one_sm_config_is_finite_and_slower():
    p = _mem_profile()
    tiny = time_kernel(p, BASELINE.derive("sm1", num_sms=1))
    assert math.isfinite(tiny.total_cycles)
    assert tiny.total_cycles >= time_kernel(p, BASELINE).total_cycles


def test_minimal_bandwidth_is_finite_and_bandwidth_bound():
    p = _mem_profile()
    starved_cfg = BASELINE.derive("bw-min", dram_bandwidth=0.001)
    starved = time_kernel(p, starved_cfg)
    assert math.isfinite(starved.total_cycles)
    assert starved.bottleneck == "bandwidth"
    assert starved.total_cycles > time_kernel(p, BASELINE).total_cycles
    est = simulate_kernel(p, starved_cfg)
    assert math.isfinite(est.cycles)
    assert est.cycles >= starved.bandwidth_cycles * 0  # finite, scheduled


def test_disabled_caches_mean_every_access_misses():
    p = _mem_profile()
    no_cache = time_kernel(p, BASELINE.derive("no-cache", l2_lines=0, tex_cache_lines=0))
    assert no_cache.cache_hit_rate == 0.0
    assert no_cache.dram_transactions == pytest.approx(p.gmem.transactions_128b)


def test_zero_bandwidth_event_model_does_not_divide_by_zero():
    p = _mem_profile()
    est = simulate_kernel(p, BASELINE.derive("bw0", dram_bandwidth=0.0))
    assert math.isfinite(est.cycles)


# --------------------------------------------------------------------------
# Occupancy extremes


def test_occupancy_floor_is_one_warp():
    hog = _profile(register_pressure=100_000, shared_bytes=10**9)
    assert occupancy_warps(hog, BASELINE) == 1
    timing = time_kernel(hog, BASELINE)
    assert math.isfinite(timing.total_cycles)


def test_occupancy_with_degenerate_block_shape():
    thin = _profile(block=(0, 0), shared_bytes=1)
    assert occupancy_warps(thin, BASELINE) >= 1


def test_design_space_finite_on_edge_profiles():
    profiles = [
        WorkloadProfile(workload="empty", suite="t", kernels=[_profile(thread_instrs={}, warp_instrs={})]),
        WorkloadProfile(workload="solo", suite="t", kernels=[
            _mem_profile(grid=(1, 1), total_blocks=1, profiled_blocks=1, threads_total=64)
        ]),
    ]
    perf = run_sweep(profiles, use_cache=False).speedups("roofline")
    assert np.isfinite(perf).all()
    assert (perf > 0).all()
