"""Event-driven, cycle-approximate SM model.

A second, independent performance oracle to cross-validate the roofline
model in :mod:`repro.uarch.model`: instead of taking the max of three
bottleneck terms, it *schedules* warps.

Each SM holds its share of resident warps.  A warp's instruction stream is
re-synthesised from the profile's aggregate statistics: ``mem_interval``
compute instructions between consecutive global-memory operations (from the
instruction mix), with every memory operation classified hit/miss by the
profile's reuse-distance CDF (misses spaced deterministically, which keeps
the model reproducible).  The scheduler issues one warp instruction per
cycle per SM, switching among ready warps (fine-grained multithreading);
misses occupy a shared DRAM channel with a service time set by the
configured bandwidth, so both latency-hiding *and* bandwidth saturation
emerge from the schedule instead of being asserted.

The model is event-driven over warp "bursts" (runs of compute instructions
between memory operations), so its cost is proportional to the number of
memory operations, not cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.trace.profile import KernelProfile
from repro.uarch.config import GpuConfig
from repro.uarch.model import _cache_hit_rate, occupancy_warps

#: Latency of an L2/texture-cache hit, cycles (fixed model constant).
HIT_LATENCY = 40


@dataclass
class CycleEstimate:
    """Result of scheduling one kernel on one SM (scaled to the device)."""

    kernel_name: str
    cycles: float
    issued_instructions: int
    memory_ops: int
    misses: int
    #: Fraction of cycles where the SM had no ready warp (exposed latency).
    stall_fraction: float


@dataclass
class _Warp:
    """Synthetic replay state for one resident warp."""

    remaining_instrs: int
    remaining_mems: int
    ready_at: float = 0.0


def _synth_params(profile: KernelProfile, config: GpuConfig):
    """Derive the per-warp synthetic stream shape from profile aggregates."""
    total_warps = max(int(np.ceil(profile.threads_total / 32.0)), 1)
    scale = profile.sampling_scale
    warp_instrs = max(int(profile.total_warp_instrs * scale), 1)
    mem_ops = int(
        (
            profile.warp_instrs.get("ld.global", 0)
            + profile.warp_instrs.get("st.global", 0)
            + profile.warp_instrs.get("atomic", 0)
            + profile.warp_instrs.get("ld.tex", 0)
        )
        * scale
    )
    instrs_per_warp = max(warp_instrs // total_warps, 1)
    mems_per_warp = mem_ops // total_warps
    hit_rate = _cache_hit_rate(profile, config.l2_lines)
    # Transactions per access inflate the DRAM service demand of each op.
    trans_per_mem = max(profile.gmem.trans_per_access_128b, 1.0)
    return total_warps, instrs_per_warp, mems_per_warp, hit_rate, trans_per_mem


def simulate_kernel(profile: KernelProfile, config: GpuConfig) -> CycleEstimate:
    """Schedule one kernel launch; returns device-level cycle estimate."""
    total_warps, instrs_per_warp, mems_per_warp, hit_rate, trans_per_mem = _synth_params(
        profile, config
    )
    effective_sms = min(config.num_sms, max(profile.total_blocks, 1))
    warps_here = int(np.ceil(total_warps / effective_sms))
    resident = min(occupancy_warps(profile, config), warps_here)
    waves = int(np.ceil(warps_here / max(resident, 1)))

    # Deterministic hit/miss pattern: every k-th memory op misses.
    miss_rate = 1.0 - hit_rate
    # DRAM channel shared by all SMs: this SM sees 1/SMs of the bandwidth.
    service = (
        trans_per_mem * 128.0 / (config.dram_bandwidth / effective_sms)
        if config.dram_bandwidth > 0
        else 0.0
    )

    total_cycles = 0.0
    issued = 0
    mem_ops_done = 0
    misses = 0
    stall = 0.0
    for _wave in range(waves):
        nwarps = min(resident, warps_here - _wave * resident)
        if nwarps <= 0:
            break
        cycles, wave_issued, wave_mems, wave_misses, wave_stall = _schedule_wave(
            nwarps,
            instrs_per_warp,
            mems_per_warp,
            miss_rate,
            service,
            config,
        )
        total_cycles += cycles
        issued += wave_issued
        mem_ops_done += wave_mems
        misses += wave_misses
        stall += wave_stall
    total_cycles += config.launch_overhead
    return CycleEstimate(
        kernel_name=profile.kernel_name,
        cycles=total_cycles,
        issued_instructions=issued,
        memory_ops=mem_ops_done,
        misses=misses,
        stall_fraction=stall / total_cycles if total_cycles else 0.0,
    )


def _schedule_wave(
    nwarps: int,
    instrs_per_warp: int,
    mems_per_warp: int,
    miss_rate: float,
    service: float,
    config: GpuConfig,
):
    """Event-driven schedule of one wave of resident warps on one SM."""
    burst = instrs_per_warp // (mems_per_warp + 1)
    warps = [
        _Warp(remaining_instrs=instrs_per_warp, remaining_mems=mems_per_warp)
        for _ in range(nwarps)
    ]
    # Ready queue keyed by ready time (FIFO tie-break via sequence number).
    heap = [(0.0, i, i) for i in range(nwarps)]
    heapq.heapify(heap)
    clock = 0.0
    dram_free = 0.0
    issued = 0
    mems = 0
    misses = 0
    stall = 0.0
    miss_accum = 0.0
    issue = max(config.issue_width, 1)

    while heap:
        ready, _seq, idx = heapq.heappop(heap)
        if ready > clock:
            stall += ready - clock
            clock = ready
        warp = warps[idx]
        if warp.remaining_mems > 0:
            # Burst of compute, then one memory op.
            run = min(burst, warp.remaining_instrs - warp.remaining_mems)
            clock += run / issue + 1.0
            issued += run + 1
            warp.remaining_instrs -= run + 1
            warp.remaining_mems -= 1
            mems += 1
            miss_accum += miss_rate
            if miss_accum >= 1.0:
                miss_accum -= 1.0
                misses += 1
                start = max(clock, dram_free)
                dram_free = start + service
                warp.ready_at = start + config.mem_latency
            else:
                warp.ready_at = clock + HIT_LATENCY
            heapq.heappush(heap, (warp.ready_at, issued, idx))
        elif warp.remaining_instrs > 0:
            # Tail of pure compute.
            clock += warp.remaining_instrs / issue
            issued += warp.remaining_instrs
            warp.remaining_instrs = 0
        # else: warp retired.
    # Outstanding memory must drain before the wave completes.
    last_ready = max((w.ready_at for w in warps), default=0.0)
    clock = max(clock, last_ready, dram_free)
    return clock, issued, mems, misses, stall
