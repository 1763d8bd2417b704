"""GPU design-point description and the evaluation design space."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GpuConfig:
    """A first-order GPU design point (GT200/Fermi-class parameter ranges)."""

    name: str
    #: Number of streaming multiprocessors.
    num_sms: int = 16
    #: Warp instructions issued per SM per cycle.
    issue_width: int = 1
    #: Aggregate DRAM bandwidth in bytes per core cycle.
    dram_bandwidth: float = 64.0
    #: DRAM round-trip latency in cycles.
    mem_latency: int = 400
    #: Shared last-level cache capacity in 128B lines (0 disables the cache).
    l2_lines: int = 2048
    #: Maximum resident warps per SM (latency-hiding capacity).
    max_warps_per_sm: int = 32
    #: Per-device texture cache capacity in 128B lines (0 disables it).
    tex_cache_lines: int = 256
    #: 32-bit registers per SM register file (Fermi-class default).
    regfile_per_sm: int = 32768
    #: Shared-memory bytes per SM.
    shared_per_sm: int = 49152
    #: Extra cycles charged per additional conflicting bank way.
    shared_conflict_penalty: float = 1.0
    #: SFU issue rate relative to ALU (0.25 = quarter rate).
    sfu_rate: float = 0.25
    #: Fixed cost per kernel launch, cycles.
    launch_overhead: int = 2000

    def derive(self, name: str, **changes) -> "GpuConfig":
        """A modified copy (one design-space step away)."""
        return replace(self, name=name, **changes)


#: The baseline used for speedup normalisation throughout the evaluation.
BASELINE = GpuConfig(name="base")
