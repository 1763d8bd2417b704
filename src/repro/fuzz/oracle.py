"""Tri-engine differential oracle.

Each fuzz case runs on:

1. the **interpreted** lockstep engine (with a trace collector) — the
   behavioural baseline;
2. the **compiled** engine at several ``batch_blocks`` values (auto, 1, an
   odd value, and more than the grid) — all must match the baseline
   bit-for-bit in every device buffer *and* in every pass's canonical
   serialized section, and must agree on whether (and with what error
   type) the launch faults;
3. for kernels the static classifier proves **lane-disjoint**, the
   lane-serial **reference** interpreter — must match device memory.

Independently of engine agreement, the baseline profile is checked against
internal accounting invariants (fractions in ``[0, 1]``, per-category
thread/warp instruction consistency, SIMD lane/slot closure, per-space lane
counts, and reuse-histogram mass = line accesses − cold misses).  Corpus
replays also hold the baseline's per-pass section digests to the frozen
``tests/fixtures/section_digests.json`` (``LaunchOutcome.digests``), so
the baseline itself cannot drift unnoticed.

Every leg runs through :func:`launch` (:func:`launch_case` for a case),
the one launch runner the ``repro.verify`` properties use too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz.generator import Case, build_kernel, make_device
from repro.simt import (
    Device,
    DeviceBuffer,
    Executor,
    Kernel,
    SimtError,
    classify_kernel,
    profile_all_blocks,
    run_reference,
    stride_sampler,
)
from repro.simt.types import WARP_SIZE
from repro.trace.collector import CollectorConfig, KernelTraceCollector
from repro.trace.profile import KernelProfile, WorkloadProfile
from repro.trace.serialize import (
    section_digests,
    workload_header_bytes,
    workload_section_bytes,
)

#: Profile-sample stride cap: small enough that several blocks stay silent,
#: so the compiled engine genuinely batches.
SAMPLE_BLOCKS = 2


@dataclass
class LaunchOutcome:
    """What one engine did with one launch: device memory and the collected
    profile, or the type of the fault that stopped it."""

    engine: str
    status: str  # "ok" | "error"
    error_type: str = ""
    buffers: Optional[Dict[str, bytes]] = None
    #: ``None`` for the reference engine, which feeds no collector.
    profile: Optional[WorkloadProfile] = None

    @cached_property
    def header_bytes(self) -> bytes:
        """Canonical bytes of the launch headers."""
        return workload_header_bytes(self.profile)

    @cached_property
    def section_bytes(self) -> Dict[str, bytes]:
        """Canonical bytes of each pass's sections — compared per pass, so a
        mismatch names the offending pass."""
        return {name: workload_section_bytes(self.profile, name) for name in self.profile.passes}

    def digests(self) -> Dict[str, str]:
        """The frozen-fixture form: per-pass section digests, or the fault type."""
        if self.status == "error":
            return {"error": self.error_type}
        return section_digests(self.profile)


@dataclass
class CaseReport:
    """Oracle verdict for one case."""

    case: Case
    tag: str  # "lane-disjoint" | "communicating"
    failures: List[str] = field(default_factory=list)
    engines_run: List[str] = field(default_factory=list)
    #: The interpreted engine's outcome, which every other leg is checked
    #: against.
    baseline: Optional[LaunchOutcome] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def batch_plan(grid: int) -> List[Optional[int]]:
    """The ``batch_blocks`` sweep for the compiled engine: the automatic
    sizing, no batching, an odd mid value, and past-the-grid."""
    return list(dict.fromkeys([None, 1, 3, grid + 1]))


def launch(
    kernel: Kernel,
    dev: Device,
    bufs: Dict[str, DeviceBuffer],
    grid,
    block,
    engine: str,
    batch_blocks: Optional[int] = None,
    block_order: Optional[Sequence[int]] = None,
    sample_blocks: Optional[int] = None,
    passes: Optional[Sequence[str]] = None,
    config: Optional[CollectorConfig] = None,
) -> LaunchOutcome:
    """Launch ``kernel`` once on ``dev`` and collect what it did.

    ``engine`` is an :class:`Executor` engine or ``"reference"`` (the
    lane-serial interpreter, which collects no profile).  The other knobs go
    to the executor (``sample_blocks`` as a stride sampler; ``None``
    profiles every block) and to the trace collector.  A :class:`SimtError`
    becomes an ``"error"`` outcome carrying its type.
    """
    label = engine if batch_blocks is None else f"{engine}(batch={batch_blocks})"
    profile = None
    try:
        if engine == "reference":
            run_reference(kernel, grid, block, bufs, dev)
        else:
            collector = KernelTraceCollector(config=config, passes=passes)
            sampler = stride_sampler(sample_blocks) if sample_blocks else profile_all_blocks
            executor = Executor(
                dev,
                sinks=[collector],
                profile_filter=sampler,
                engine=engine,
                batch_blocks=batch_blocks,
                block_order=block_order,
            )
            executor.launch(kernel, grid, block, bufs)
            profile = WorkloadProfile(workload="fuzz", suite="fuzz", kernels=collector.profiles)
    except SimtError as exc:
        return LaunchOutcome(label, "error", error_type=type(exc).__name__)
    buffers = {name: dev.download(b).tobytes() for name, b in bufs.items()}
    return LaunchOutcome(label, "ok", buffers=buffers, profile=profile)


def launch_case(case: Case, engine: str, **options) -> LaunchOutcome:
    """:func:`launch` of ``case``'s kernel on a fresh deterministic device."""
    dev, bufs = make_device(case)
    kernel = build_kernel(case)
    return launch(kernel, dev, bufs, case["grid"], tuple(case["block"]), engine, **options)


def _compare(base: LaunchOutcome, other: LaunchOutcome, check_profile: bool) -> List[str]:
    if base.status != other.status:
        return [
            f"{other.engine}: status {other.status!r} ({other.error_type}) != "
            f"baseline {base.status!r} ({base.error_type})"
        ]
    if base.status == "error":
        if base.error_type != other.error_type:
            return [f"{other.engine}: error type {other.error_type} != baseline {base.error_type}"]
        return []
    failures = []
    for name in sorted(base.buffers):
        if base.buffers[name] != other.buffers[name]:
            failures.append(f"{other.engine}: buffer {name!r} differs from baseline")
    if check_profile:
        if base.header_bytes != other.header_bytes:
            failures.append(f"{other.engine}: profile launch headers differ from baseline")
        if set(base.section_bytes) != set(other.section_bytes):
            failures.append(
                f"{other.engine}: collected pass set {sorted(other.section_bytes)} "
                f"!= baseline {sorted(base.section_bytes)}"
            )
        else:
            for pass_name in base.section_bytes:
                if base.section_bytes[pass_name] != other.section_bytes[pass_name]:
                    failures.append(
                        f"{other.engine}: {pass_name!r} pass section differs from baseline"
                    )
    return failures


def run_case(case: Case) -> CaseReport:
    """Run the full oracle over one case."""
    classification = classify_kernel(build_kernel(case))
    report = CaseReport(case=case, tag=classification.tag)

    base = launch_case(case, "interpreted", sample_blocks=SAMPLE_BLOCKS)
    report.baseline = base
    report.engines_run.append(base.engine)

    if base.status == "ok":
        report.failures.extend(check_profile_invariants(base.profile))

    for bb in batch_plan(case["grid"]):
        outcome = launch_case(case, "compiled", batch_blocks=bb, sample_blocks=SAMPLE_BLOCKS)
        report.engines_run.append(outcome.engine)
        report.failures.extend(_compare(base, outcome, check_profile=True))

    if reference_applies(case, classification):
        outcome = launch_case(case, "reference")
        report.engines_run.append(outcome.engine)
        report.failures.extend(_compare(base, outcome, check_profile=False))

    return report


def reference_applies(case: Case, classification=None) -> bool:
    """Whether the lane-serial reference engine can run ``case``: no
    inter-lane communication, and a 1-D block where the kernel needs one."""
    if classification is None:
        classification = classify_kernel(build_kernel(case))
    return not classification.communicating and not (
        classification.requires_1d_block and case["block"][1] > 1
    )


def reference_leg(case: Case) -> List[str]:
    """The oracle's reference leg alone: the reference engine's memory (or
    error class) against the interpreted baseline.  The caller checks
    :func:`reference_applies` first."""
    return _compare(
        launch_case(case, "interpreted", sample_blocks=SAMPLE_BLOCKS),
        launch_case(case, "reference"),
        check_profile=False,
    )


# ---------------------------------------------------------------------------
# Profile invariants


def check_profile_invariants(profile: WorkloadProfile) -> List[str]:
    """Internal-consistency checks on a collected profile."""
    failures: List[str] = []
    for kp in profile.kernels:
        failures.extend(_kernel_invariants(kp))
    return failures


def _frac_checks(kp: KernelProfile) -> List[Tuple[str, float]]:
    return [
        ("simd_efficiency", kp.simd_efficiency),
        ("branch.divergence_rate", kp.branch.divergence_rate),
        ("branch.taken_frac_mean", kp.branch.taken_frac_mean),
        ("branch.loop_frac", kp.branch.loop_frac),
        ("gmem.coalesced_frac", kp.gmem.coalesced_frac),
        ("gmem.broadcast_frac", kp.gmem.broadcast_frac),
        ("gmem.unit_stride_frac", kp.gmem.unit_stride_frac),
        ("shmem.conflicted_frac", kp.shmem.conflicted_frac),
        ("locality.cold_miss_rate", kp.locality.cold_miss_rate),
        ("locality.unique_line_ratio", kp.locality.unique_line_ratio),
        ("texture.unique_line_ratio", kp.texture.unique_line_ratio),
    ]


def _kernel_invariants(kp: KernelProfile) -> List[str]:
    bad: List[str] = []
    name = kp.kernel_name

    for label, value in _frac_checks(kp):
        if not (0.0 <= value <= 1.0):
            bad.append(f"{name}: {label}={value} outside [0, 1]")

    if set(kp.thread_instrs) != set(kp.warp_instrs):
        bad.append(f"{name}: thread/warp instruction categories differ")
    for cat, warp_n in kp.warp_instrs.items():
        thread_n = kp.thread_instrs.get(cat, 0)
        if not (warp_n <= thread_n <= warp_n * WARP_SIZE):
            bad.append(
                f"{name}: category {cat!r} thread count {thread_n} outside "
                f"[{warp_n}, {warp_n * WARP_SIZE}]"
            )

    # SIMD slot/lane closure: every warp instruction issues WARP_SIZE slots,
    # and the active lanes across them are exactly the thread instructions.
    if kp.simd_lane_sum != kp.total_thread_instrs:
        bad.append(f"{name}: simd_lane_sum {kp.simd_lane_sum} != thread instrs {kp.total_thread_instrs}")
    if kp.simd_slot_sum != kp.total_warp_instrs * WARP_SIZE:
        bad.append(f"{name}: simd_slot_sum {kp.simd_slot_sum} != 32 * warp instrs")

    # Per-space instruction counts must close against the memory statistics.
    def warp(cat: str) -> int:
        return kp.warp_instrs.get(cat, 0)

    def thread(cat: str) -> int:
        return kp.thread_instrs.get(cat, 0)

    gmem_warp = warp("ld.global") + warp("st.global") + warp("atomic")
    gmem_thread = thread("ld.global") + thread("st.global") + thread("atomic")
    if kp.gmem.accesses != gmem_warp:
        bad.append(f"{name}: gmem.accesses {kp.gmem.accesses} != global warp instrs {gmem_warp}")
    if kp.gmem.lane_accesses != gmem_thread:
        bad.append(f"{name}: gmem.lane_accesses {kp.gmem.lane_accesses} != global thread instrs {gmem_thread}")
    if kp.shmem.accesses != warp("ld.shared") + warp("st.shared"):
        bad.append(f"{name}: shmem.accesses inconsistent with shared warp instrs")
    if kp.texture.accesses != warp("ld.tex"):
        bad.append(f"{name}: texture.accesses != ld.tex warp instrs")
    if kp.texture.lane_accesses != thread("ld.tex"):
        bad.append(f"{name}: texture.lane_accesses != ld.tex thread instrs")

    # Reuse-distance mass closure: every line access is either a cold miss
    # or lands in exactly one histogram bucket; unique lines are exactly the
    # cold misses.
    for label, loc in (("locality", kp.locality), ("texture", kp.texture)):
        mass = int(loc.reuse_histogram.sum())
        if loc.line_accesses != loc.cold_misses + mass:
            bad.append(
                f"{name}: {label} line_accesses {loc.line_accesses} != "
                f"cold {loc.cold_misses} + reuse mass {mass}"
            )
        if loc.unique_lines != loc.cold_misses:
            bad.append(f"{name}: {label} unique_lines != cold_misses")
        if int(loc.reuse_histogram.min()) < 0:
            bad.append(f"{name}: {label} reuse histogram has negative mass")

    if kp.branch.events != kp.branch.if_events + kp.branch.loop_events:
        bad.append(f"{name}: branch events don't split into if + loop events")
    if kp.branch.divergent > kp.branch.events:
        bad.append(f"{name}: more divergent branch events than events")
    if not (0.0 <= kp.branch.taken_frac_sum <= kp.branch.events):
        bad.append(f"{name}: branch taken_frac_sum outside [0, events]")

    return bad
