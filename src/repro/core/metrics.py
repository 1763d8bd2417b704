"""Microarchitecture-agnostic GPGPU workload characteristics.

This is the paper's central artifact: a vector of characteristics that
describes a workload in a *microarchitecture-independent* space.  Every
metric is a pure function of the dynamic instruction/address stream — no
cache sizes, no core counts, no latencies.

Metrics are registered with group, name and description, so the full set
renders directly as the paper's characteristics table (T2).  The exact
metric list of the original paper is not recoverable from the abstract; this
set reconstructs it from the abstract's named dimensions (instruction mix,
parallelism, branch divergence, memory coalescing, shared memory, locality)
following the MICA methodology the paper builds on.

Workload-level values aggregate per-kernel values weighted by each kernel
launch's share of warp-level dynamic instructions, so long-running kernels
dominate — exactly how a profiler-weighted characterization behaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.trace.profile import (
    PASS_NAMES,
    KernelProfile,
    WorkloadProfile,
    canonical_passes,
)

KernelMetricFn = Callable[[KernelProfile], float]


@dataclass(frozen=True)
class MetricSpec:
    """One characteristic: identity, documentation and extraction.

    Most characteristics are kernel-level (``fn``) and aggregate to the
    workload with warp-instruction weights; a few are inherently
    workload-level (``workload_fn``), e.g. how many kernel launches the
    workload issues.

    ``requires`` names the analysis passes whose profile sections the
    metric reads — the demand-driven runtime collects exactly the union of
    the requested metrics' requirements.  Every kernel-level metric
    requires ``mix`` even when its own data lives elsewhere, because the
    workload aggregate weights launches by warp-instruction volume (a mix
    quantity).
    """

    name: str
    group: str
    description: str
    fn: KernelMetricFn
    workload_fn: Optional[Callable[[WorkloadProfile], float]] = None
    requires: frozenset = frozenset()

    def workload_value(self, profile: WorkloadProfile) -> float:
        """Workload-level value (weighted kernel aggregate by default)."""
        if self.workload_fn is not None:
            return float(self.workload_fn(profile))
        if not profile.kernels:
            return 0.0
        weights = profile.kernel_weights()
        return float(sum(w * self.fn(k) for w, k in zip(weights, profile.kernels)))


_REGISTRY: Dict[str, MetricSpec] = {}


def _register(
    name: str, group: str, description: str, requires: Sequence[str] = ()
) -> Callable[[KernelMetricFn], KernelMetricFn]:
    # Kernel-level metrics always also need the mix pass: the workload
    # aggregate weights kernels by their warp-instruction share.
    req = frozenset(canonical_passes(set(requires) | {"mix"}))

    def deco(fn: KernelMetricFn) -> KernelMetricFn:
        if name in _REGISTRY:
            raise ValueError(f"duplicate metric {name!r}")
        _REGISTRY[name] = MetricSpec(name, group, description, fn, requires=req)
        return fn

    return deco


def _log2(value: float) -> float:
    return math.log2(value) if value > 0 else 0.0


# ----------------------------------------------------------------------
# Group: instruction mix (fractions of thread-level dynamic instructions)
# ----------------------------------------------------------------------

_MIX = [
    ("mix.int", "int", "integer ALU (arithmetic, logic, shifts)"),
    ("mix.fp", "fp", "floating-point ALU (add/mul/fma/min/max)"),
    ("mix.sfu", "sfu", "special-function unit (sqrt, exp, log, sin, cos, rcp, pow)"),
    ("mix.cmp", "cmp", "comparisons and predicate logic"),
    ("mix.mov", "mov", "data movement, select and conversions"),
    ("mix.ld_global", "ld.global", "global-memory loads"),
    ("mix.st_global", "st.global", "global-memory stores"),
    ("mix.const", "ld.const", "constant-memory loads"),
    ("mix.atomic", "atomic", "global atomics"),
    ("mix.branch", "branch", "control-flow (branches, loop back-edges, returns)"),
]

for _mname, _cat, _desc in _MIX:

    def _mk(cat: str) -> KernelMetricFn:
        def fn(k: KernelProfile) -> float:
            return k.thread_mix_frac(cat)

        return fn

    _register(_mname, "instruction mix", f"Fraction of dynamic instructions: {_desc}")(_mk(_cat))


@_register(
    "mix.texture",
    "instruction mix",
    "Fraction of dynamic instructions: texture fetches",
)
def _mix_texture(k: KernelProfile) -> float:
    return k.thread_mix_frac("ld.tex")


@_register(
    "mix.shared",
    "instruction mix",
    "Fraction of dynamic instructions: shared-memory loads and stores",
)
def _mix_shared(k: KernelProfile) -> float:
    return k.thread_mix_frac("ld.shared") + k.thread_mix_frac("st.shared")


# ----------------------------------------------------------------------
# Group: parallelism
# ----------------------------------------------------------------------

for _w in (32, 64, 128, 256):

    def _mk_ilp(w: int) -> KernelMetricFn:
        def fn(k: KernelProfile) -> float:
            return k.ilp.get(w, 1.0)

        return fn

    _register(
        f"par.ilp{_w}",
        "parallelism",
        f"Per-warp instruction-level parallelism within a {_w}-instruction window "
        "(register dependences only, MICA-style)",
        requires=("ilp",),
    )(_mk_ilp(_w))


@_register("par.threads_log", "parallelism", "log2 of threads per kernel launch (TLP scale)")
def _threads_log(k: KernelProfile) -> float:
    return _log2(k.threads_total)


@_register("par.blocks_log", "parallelism", "log2 of thread blocks per kernel launch")
def _blocks_log(k: KernelProfile) -> float:
    return _log2(k.total_blocks)


@_register("par.block_size_log", "parallelism", "log2 of threads per block")
def _block_size_log(k: KernelProfile) -> float:
    return _log2(k.block[0] * k.block[1])


@_register(
    "par.instrs_per_thread_log",
    "parallelism",
    "log2 of dynamic instructions per thread (work granularity)",
)
def _ipt_log(k: KernelProfile) -> float:
    profiled_threads = k.threads_total * (k.profiled_blocks / max(k.total_blocks, 1))
    if profiled_threads <= 0:
        return 0.0
    return _log2(max(k.total_thread_instrs / profiled_threads, 1.0))


@_register(
    "par.barrier_intensity",
    "parallelism",
    "Barriers per 1000 warp-level instructions (intra-block synchronisation pressure)",
)
def _barrier_intensity(k: KernelProfile) -> float:
    return 1000.0 * k.warp_mix_frac("barrier")


@_register(
    "par.register_pressure",
    "parallelism",
    "Static live-register estimate per thread (occupancy pressure)",
)
def _register_pressure(k: KernelProfile) -> float:
    return float(k.register_pressure)


@_register(
    "par.warp_imbalance",
    "parallelism",
    "Coefficient of variation of per-warp instruction counts within a block "
    "(inter-warp work imbalance)",
)
def _warp_imbalance(k: KernelProfile) -> float:
    return k.warp_imbalance_cv


# ----------------------------------------------------------------------
# Group: branch divergence
# ----------------------------------------------------------------------


@_register(
    "div.rate",
    "branch divergence",
    "Fraction of warp-level branch events where lanes split both ways",
    requires=("branch",),
)
def _div_rate(k: KernelProfile) -> float:
    return k.branch.divergence_rate


@_register(
    "div.simd_efficiency",
    "branch divergence",
    "Mean fraction of active lanes per issued warp instruction (SIMD utilisation)",
)
def _simd_eff(k: KernelProfile) -> float:
    return k.simd_efficiency


@_register(
    "div.taken_std",
    "branch divergence",
    "Standard deviation of the per-warp taken fraction over branch events "
    "(branch outcome variability)",
    requires=("branch",),
)
def _taken_std(k: KernelProfile) -> float:
    return k.branch.taken_frac_std


@_register(
    "div.loop_frac",
    "branch divergence",
    "Fraction of branch events that are loop back-edges (control-flow shape)",
    requires=("branch",),
)
def _loop_frac(k: KernelProfile) -> float:
    return k.branch.loop_frac


# ----------------------------------------------------------------------
# Group: memory coalescing
# ----------------------------------------------------------------------


@_register(
    "coal.t32_per_access",
    "memory coalescing",
    "32B memory transactions per warp-level global access (1..32; lower is "
    "better coalesced)",
    requires=("coalescing",),
)
def _t32(k: KernelProfile) -> float:
    return k.gmem.trans_per_access_32b


@_register(
    "coal.t128_per_access",
    "memory coalescing",
    "128B memory transactions per warp-level global access",
    requires=("coalescing",),
)
def _t128(k: KernelProfile) -> float:
    return k.gmem.trans_per_access_128b


@_register(
    "coal.coalesced_frac",
    "memory coalescing",
    "Fraction of warp accesses touching the minimum possible number of 32B segments",
    requires=("coalescing",),
)
def _coal_frac(k: KernelProfile) -> float:
    return k.gmem.coalesced_frac


@_register(
    "coal.unit_stride_frac",
    "memory coalescing",
    "Fraction of warp accesses with unit stride across adjacent active lanes",
    requires=("coalescing",),
)
def _unit_frac(k: KernelProfile) -> float:
    return k.gmem.unit_stride_frac


@_register(
    "coal.broadcast_frac",
    "memory coalescing",
    "Fraction of warp accesses where all active lanes read one address",
    requires=("coalescing",),
)
def _bcast_frac(k: KernelProfile) -> float:
    return k.gmem.broadcast_frac


@_register(
    "coal.local_zero_frac",
    "memory coalescing",
    "Per-thread consecutive global accesses with zero stride (register-like reuse)",
    requires=("coalescing",),
)
def _local_zero(k: KernelProfile) -> float:
    return k.gmem.local_stride_frac("zero")


@_register(
    "coal.local_unit_frac",
    "memory coalescing",
    "Per-thread consecutive global accesses with one-element stride (streaming)",
    requires=("coalescing",),
)
def _local_unit(k: KernelProfile) -> float:
    return k.gmem.local_stride_frac("unit")


@_register(
    "coal.local_long_frac",
    "memory coalescing",
    "Per-thread consecutive global accesses with stride beyond 128B (scattered)",
    requires=("coalescing",),
)
def _local_long(k: KernelProfile) -> float:
    return k.gmem.local_stride_frac("long")


# ----------------------------------------------------------------------
# Group: shared memory
# ----------------------------------------------------------------------


@_register(
    "shm.conflict_degree",
    "shared memory",
    "Mean max-way bank conflict per shared-memory warp access (1.0 = conflict free)",
    requires=("shared",),
)
def _conflict_degree(k: KernelProfile) -> float:
    return k.shmem.conflict_degree


@_register(
    "shm.conflicted_frac",
    "shared memory",
    "Fraction of shared-memory warp accesses with any bank conflict",
    requires=("shared",),
)
def _conflicted(k: KernelProfile) -> float:
    return k.shmem.conflicted_frac


@_register(
    "shm.bytes_per_block_log",
    "shared memory",
    "log2 of declared shared-memory bytes per block (occupancy pressure)",
)
def _shm_bytes(k: KernelProfile) -> float:
    return _log2(k.shared_bytes)


# ----------------------------------------------------------------------
# Group: texture path
# ----------------------------------------------------------------------


@_register(
    "tex.rd64",
    "texture",
    "Fraction of texture-line reuses with LRU stack distance < 64 lines "
    "(texture-cache friendliness)",
    requires=("texture",),
)
def _tex_rd64(k: KernelProfile) -> float:
    return k.texture.reuse_cdf_at(64)


@_register(
    "tex.unique_ratio",
    "texture",
    "Unique texture lines / texture line accesses (1.0 = pure streaming fetches)",
    requires=("texture",),
)
def _tex_unique(k: KernelProfile) -> float:
    return k.texture.unique_line_ratio


# ----------------------------------------------------------------------
# Group: data locality
# ----------------------------------------------------------------------

for _t in (16, 64, 256, 1024, 8192):

    def _mk_rd(t: int) -> KernelMetricFn:
        def fn(k: KernelProfile) -> float:
            return k.locality.reuse_cdf_at(t)

        return fn

    _register(
        f"loc.rd{_t}",
        "data locality",
        f"Fraction of line reuses with LRU stack distance < {_t} 128B lines",
        requires=("reuse",),
    )(_mk_rd(_t))


@_register(
    "loc.cold_rate",
    "data locality",
    "Fraction of 128B-line accesses that touch a line for the first time",
    requires=("reuse",),
)
def _cold(k: KernelProfile) -> float:
    return k.locality.cold_miss_rate


@_register(
    "loc.unique_ratio",
    "data locality",
    "Unique 128B lines / line accesses (1.0 = every access is a new line)",
    requires=("reuse",),
)
def _uniq_ratio(k: KernelProfile) -> float:
    return k.locality.unique_line_ratio


@_register(
    "loc.footprint_log",
    "data locality",
    "log2 of unique 128B lines touched (working set)",
    requires=("reuse",),
)
def _footprint(k: KernelProfile) -> float:
    return _log2(k.locality.unique_lines)


# ----------------------------------------------------------------------
# Group: kernel-level structure (inherently workload-level)
# ----------------------------------------------------------------------


def _register_workload_metric(name: str, group: str, description: str, workload_fn) -> None:
    """Register a metric computed from the whole workload.

    The kernel-level view of such metrics is a single launch, so the
    per-kernel fallback (used by the kernel-space analysis) is constant and
    gets dropped by standardization there — exactly right.
    """
    if name in _REGISTRY:
        raise ValueError(f"duplicate metric {name!r}")
    _REGISTRY[name] = MetricSpec(
        name, group, description, fn=lambda k: 0.0, workload_fn=workload_fn
    )


_register_workload_metric(
    "krn.launches_log",
    "kernel structure",
    "log2 of kernel launches per workload (iterative/wavefront pipelines rank high)",
    lambda p: _log2(p.launches),
)

_register_workload_metric(
    "krn.unique_kernels_log",
    "kernel structure",
    "log2 of distinct kernels per workload (phase-diverse pipelines rank high)",
    lambda p: _log2(len({k.kernel_name for k in p.kernels})),
)


# ----------------------------------------------------------------------
# Registry access and extraction
# ----------------------------------------------------------------------


def all_metrics() -> List[MetricSpec]:
    """Every registered characteristic, in registration (table) order."""
    return list(_REGISTRY.values())


def metric(name: str) -> MetricSpec:
    return _REGISTRY[name]


def metric_names() -> List[str]:
    return list(_REGISTRY)


def metric_groups() -> List[str]:
    seen: List[str] = []
    for spec in _REGISTRY.values():
        if spec.group not in seen:
            seen.append(spec.group)
    return seen


def passes_for_metrics(names: Sequence[str]) -> tuple:
    """Minimal analysis-pass set needed to compute the named metrics.

    The union of the metrics' ``requires`` sets, in canonical pass order —
    this is what the demand-driven runtime collects for a ``--metrics``
    request.
    """
    needed: set = set()
    for name in names:
        needed |= _REGISTRY[name].requires
    return canonical_passes(needed)


def metrics_for_passes(passes: Optional[Sequence[str]] = None) -> List[str]:
    """Metric names computable from profiles carrying the given passes.

    ``None`` means every pass is available (the full metric list).
    """
    available = set(PASS_NAMES if passes is None else canonical_passes(passes))
    return [name for name, spec in _REGISTRY.items() if spec.requires <= available]


#: Metric subsets defining the paper's workload *subspaces*.
DIVERGENCE_SUBSPACE = (
    "mix.branch",
    "div.rate",
    "div.simd_efficiency",
    "div.taken_std",
    "div.loop_frac",
    "par.warp_imbalance",
)

COALESCING_SUBSPACE = (
    "mix.ld_global",
    "mix.st_global",
    "coal.t32_per_access",
    "coal.t128_per_access",
    "coal.coalesced_frac",
    "coal.unit_stride_frac",
    "coal.broadcast_frac",
    "coal.local_zero_frac",
    "coal.local_unit_frac",
    "coal.local_long_frac",
)

SUBSPACES: Dict[str, Sequence[str]] = {
    "branch divergence": DIVERGENCE_SUBSPACE,
    "memory coalescing": COALESCING_SUBSPACE,
}


def extract_vector(
    profile: WorkloadProfile, names: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Compute the characteristic vector of one workload."""
    names = list(names) if names is not None else metric_names()
    return {name: _REGISTRY[name].workload_value(profile) for name in names}


def extract_kernel_vector(
    kernel: KernelProfile, names: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Compute the characteristic vector of a single kernel launch."""
    names = list(names) if names is not None else metric_names()
    return {name: _REGISTRY[name].fn(kernel) for name in names}
