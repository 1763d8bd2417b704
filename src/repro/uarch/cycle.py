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
memory operations, not cycles.  A wave's schedule is a pure function of a
few scalars, and many (kernel, design) pairs share them, so a caller timing
many pairs passes one ``schedules`` dict: the cost then counts the memory
operations of *distinct* wave schedules only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


def simulate_kernel(
    profile: KernelProfile,
    config: GpuConfig,
    schedules: Optional[Dict[tuple, tuple]] = None,
) -> CycleEstimate:
    """Schedule one kernel launch; returns device-level cycle estimate.

    ``schedules`` optionally memoizes wave schedules by their full argument
    tuple; a caller that times many (kernel, config) pairs passes one dict
    so that each distinct wave is scheduled once.
    """
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
        args = (
            nwarps,
            instrs_per_warp,
            mems_per_warp,
            miss_rate,
            service,
            config.issue_width,
            config.mem_latency,
        )
        if schedules is None:
            wave = _schedule_wave(*args)
        else:
            wave = schedules.get(args)
            if wave is None:
                wave = schedules[args] = _schedule_wave(*args)
        cycles, wave_issued, wave_mems, wave_misses, wave_stall = wave
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


def _burst_shape(instrs_per_warp: int, mems_per_warp: int) -> Tuple[int, int, int, int]:
    """Closed form of the compute-run lengths every warp replays.

    A warp with ``remaining`` instructions and ``mems`` memory ops left runs
    ``min(burst, remaining - mems)`` compute instructions, then one memory
    op.  For non-negative counts that is ``k0`` full runs of ``burst``,
    then (if ``k0 < mems_per_warp``) one ``partial`` run, then empty runs;
    ``tail`` compute instructions remain after the last memory op.
    Returns ``(burst, k0, partial, tail)``.
    """
    burst = instrs_per_warp // (mems_per_warp + 1)
    slack = instrs_per_warp - mems_per_warp
    if burst == 0:
        k0 = mems_per_warp if slack >= 0 else 0
    else:
        k0 = min(mems_per_warp, max(slack // burst, 0))
    partial = slack - k0 * burst
    tail = max(partial, 0) if k0 == mems_per_warp else 0
    return burst, k0, partial, tail


def _schedule_wave(
    nwarps: int,
    instrs_per_warp: int,
    mems_per_warp: int,
    miss_rate: float,
    service: float,
    issue_width: int,
    mem_latency: int,
) -> Tuple[float, int, int, int, float]:
    """Event-driven schedule of one wave of resident warps on one SM.

    Returns ``(cycles, issued, memory ops, misses, stall cycles)``.
    """
    issue = max(issue_width, 1)
    # Every warp replays the same burst sequence, so each kind of burst's
    # clock step and issued count is computed once.
    burst, k0, partial, tail = _burst_shape(instrs_per_warp, mems_per_warp)
    full_step, full_count = burst / issue + 1.0, burst + 1
    partial_step, partial_count = partial / issue + 1.0, partial + 1
    tail_step = tail / issue

    # Ready queue keyed by ready time (FIFO tie-break via the issue count);
    # each warp has exactly one entry, so the keys are totally ordered.
    heap = [(0.0, i, i) for i in range(nwarps)]
    bursts_done = [0] * nwarps
    heapreplace = heapq.heapreplace
    clock = 0.0
    dram_free = 0.0
    issued = 0
    misses = 0
    stall = 0.0
    miss_accum = 0.0

    while heap:
        ready, _seq, idx = heap[0]
        if ready > clock:
            stall += ready - clock
            clock = ready
        k = bursts_done[idx]
        if k < mems_per_warp:
            # Burst of compute, then one memory op.
            if k < k0:
                clock += full_step
                issued += full_count
            elif k == k0:
                clock += partial_step
                issued += partial_count
            else:
                clock += 1.0
                issued += 1
            bursts_done[idx] = k + 1
            miss_accum += miss_rate
            if miss_accum >= 1.0:
                miss_accum -= 1.0
                misses += 1
                start = clock if clock >= dram_free else dram_free
                dram_free = start + service
                heapreplace(heap, (start + mem_latency, issued, idx))
            else:
                heapreplace(heap, (clock + HIT_LATENCY, issued, idx))
        else:
            if tail:
                # Tail of pure compute; the warp then retires.
                clock += tail_step
                issued += tail
            heapq.heappop(heap)
    # Outstanding memory must drain before the wave completes.  Every ready
    # time was popped, so the clock already covers the warps themselves.
    if dram_free > clock:
        clock = dram_free
    return clock, issued, nwarps * mems_per_warp, misses, stall
