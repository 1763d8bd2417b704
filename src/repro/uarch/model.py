"""First-order analytical GPU timing model.

Estimates kernel run time on a :class:`GpuConfig` from a
:class:`~repro.trace.profile.KernelProfile` alone — a bottleneck ("roofline
with latency") model:

* **Compute bound** — warp instructions issued over available issue slots,
  inflated by SFU serialisation and shared-memory bank conflicts, deflated
  by nothing (divergence is already *in* the warp instruction count: a
  divergent branch executes both sides at warp granularity).
* **Bandwidth bound** — DRAM transactions (after an LRU-stack cache-hit
  estimate driven by the profile's reuse-distance CDF) over DRAM bandwidth.
* **Latency bound** — misses times latency, divided by the warp-level
  memory parallelism the design can keep in flight.

The paper's evaluation-implications study only needs a *consistent* oracle
that reacts to the characteristics the way real hardware does directionally
(coalescing-bound kernels gain from bandwidth, divergent kernels gain from
SMs, cache-friendly kernels gain from cache); a transparent analytical model
serves that purpose and is fully testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.trace.profile import KernelProfile, WorkloadProfile
from repro.uarch.config import GpuConfig


@dataclass
class KernelTiming:
    """Per-kernel cycle estimate with its bottleneck breakdown."""

    kernel_name: str
    compute_cycles: float
    bandwidth_cycles: float
    latency_cycles: float
    total_cycles: float
    bottleneck: str
    dram_transactions: float
    cache_hit_rate: float


def _cache_hit_rate(profile: KernelProfile, l2_lines: int) -> float:
    """Estimated hit rate of a ``l2_lines``-line LRU cache on this stream.

    Classic stack-distance argument: an access hits a fully-associative LRU
    cache of C lines iff its reuse distance is < C.  Cold misses never hit.
    """
    if l2_lines <= 0:
        return 0.0
    loc = profile.locality
    if loc.line_accesses == 0:
        return 0.0
    reuse_frac = 1.0 - loc.cold_miss_rate
    return reuse_frac * loc.reuse_cdf_at(l2_lines)


def occupancy_warps(profile: KernelProfile, config: GpuConfig) -> int:
    """Resident warps per SM after register-file and shared-memory limits.

    The classic occupancy calculation: the scheduler limit, the register
    file divided by the kernel's per-thread register demand, and how many
    whole blocks the shared-memory budget admits.
    """
    limit = config.max_warps_per_sm
    regs_per_warp = max(profile.register_pressure, 1) * 32
    limit = min(limit, max(config.regfile_per_sm // regs_per_warp, 1))
    if profile.shared_bytes > 0:
        block_threads = max(profile.block[0] * profile.block[1], 1)
        warps_per_block = -(-block_threads // 32)
        blocks_fit = max(config.shared_per_sm // profile.shared_bytes, 1)
        limit = min(limit, blocks_fit * warps_per_block)
    return max(limit, 1)


def time_kernel(profile: KernelProfile, config: GpuConfig) -> KernelTiming:
    """Estimate cycles for one kernel launch on one design point."""
    scale = profile.sampling_scale
    warp_instrs = profile.total_warp_instrs * scale
    total_warps = max(profile.threads_total / 32.0, 1.0)
    blocks = max(profile.total_blocks, 1)

    # A grid narrower than the machine cannot fill every SM.
    effective_sms = min(config.num_sms, blocks)

    sfu_warp = profile.warp_instrs.get("sfu", 0) * scale
    sfu_extra = sfu_warp * max(1.0 / config.sfu_rate - 1.0, 0.0)
    shared_accesses = profile.shmem.accesses * scale
    conflict_extra = (
        shared_accesses
        * max(profile.shmem.conflict_degree - 1.0, 0.0)
        * config.shared_conflict_penalty
    )
    issue_slots = config.issue_width * effective_sms
    compute = (warp_instrs + sfu_extra + conflict_extra) / issue_slots

    transactions = profile.gmem.transactions_128b * scale
    atomics = profile.thread_instrs.get("atomic", 0) * scale
    transactions += atomics  # each atomic lane is a serialised transaction
    hit = _cache_hit_rate(profile, config.l2_lines)
    dram_transactions = transactions * (1.0 - hit)
    # Texture fetches miss through the dedicated texture cache into DRAM.
    tex = profile.texture
    if tex.line_accesses:
        if config.tex_cache_lines > 0:
            reuse_frac = 1.0 - tex.cold_misses / tex.line_accesses
            tex_hit = reuse_frac * tex.reuse_cdf_at(config.tex_cache_lines)
        else:
            tex_hit = 0.0
        dram_transactions += tex.line_accesses * scale * (1.0 - tex_hit)
    bandwidth = dram_transactions * 128.0 / config.dram_bandwidth

    resident = occupancy_warps(profile, config)
    concurrency = max(min(resident * effective_sms, total_warps), 1.0)
    latency = dram_transactions * config.mem_latency / concurrency

    total = max(compute, bandwidth, latency) + config.launch_overhead
    bottleneck = max(
        ("compute", compute), ("bandwidth", bandwidth), ("latency", latency), key=lambda x: x[1]
    )[0]
    return KernelTiming(
        kernel_name=profile.kernel_name,
        compute_cycles=compute,
        bandwidth_cycles=bandwidth,
        latency_cycles=latency,
        total_cycles=total,
        bottleneck=bottleneck,
        dram_transactions=dram_transactions,
        cache_hit_rate=hit,
    )


def bottleneck_summary(
    profiles: Sequence[WorkloadProfile], config: GpuConfig
) -> Dict[str, List[str]]:
    """Workloads grouped by their dominant bottleneck on one design."""
    groups: Dict[str, List[str]] = {"compute": [], "bandwidth": [], "latency": []}
    for p in profiles:
        cycles = {"compute": 0.0, "bandwidth": 0.0, "latency": 0.0}
        for k in p.kernels:
            t = time_kernel(k, config)
            cycles["compute"] += t.compute_cycles
            cycles["bandwidth"] += t.bandwidth_cycles
            cycles["latency"] += t.latency_cycles
        groups[max(cycles, key=cycles.get)].append(p.workload)
    return groups
