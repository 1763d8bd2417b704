"""The main trace sink: dispatches executor events to analysis passes.

One :class:`KernelTraceCollector` observes a sequence of kernel launches and
accumulates one :class:`KernelProfile` per launch.  The actual
characterization logic lives in the registered passes under
:mod:`repro.trace.passes` — instruction mix, windowed ILP, branch
divergence, global-memory coalescing, shared-memory bank conflicts, line
reuse/locality and texture fetch behaviour — each owning one section of the
profile.  The collector's job is the plumbing around them: it builds each
launch's header, hands every :class:`~repro.simt.events.EventBatch` to
each enabled pass's ``consume``, and meters per-pass cost under telemetry.

Everything here is microarchitecture *independent*: transaction segments,
cache lines and bank counts are fixed properties of the address stream used
as measurement granularities, not simulated hardware structures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.simt.ir import Kernel
from repro.simt.sink import TraceSink
from repro.telemetry import get_telemetry
from repro.trace.passes import make_passes
from repro.trace.passes.shared import NUM_BANKS  # noqa: F401  (re-export)
from repro.trace.profile import KernelProfile

#: Cache-line granularity (bytes) for locality analysis.
LINE_BYTES = 128
#: Fine/coarse memory-transaction segment sizes (bytes).
SEG_SMALL = 32
SEG_LARGE = 128
#: MICA instruction-window widths for the ILP characteristics.
ILP_WINDOWS: Tuple[int, ...] = (32, 64, 128, 256)


@dataclass
class CollectorConfig:
    """Tunable measurement granularities (ablation knobs)."""

    line_bytes: int = LINE_BYTES
    seg_small: int = SEG_SMALL
    seg_large: int = SEG_LARGE
    ilp_windows: Tuple[int, ...] = ILP_WINDOWS

    def __post_init__(self) -> None:
        # Lines are binned by a shift and segments by an address XOR, and
        # both only bin correctly for power-of-two granularities, so reject
        # anything else instead of silently mis-binning.
        for label in ("line_bytes", "seg_small", "seg_large"):
            value = getattr(self, label)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{label} must be a positive power of two, got {value!r}")
        for window in self.ilp_windows:
            if window <= 0:
                raise ValueError(f"ILP window must be positive, got {window!r}")
        self.line_bits = self.line_bytes.bit_length() - 1


class KernelTraceCollector(TraceSink):
    """Accumulates one :class:`KernelProfile` per observed kernel launch.

    ``passes`` selects which analysis passes run (``None`` = all
    registered); the engines specialize their recorded events to the union
    of the enabled passes' subscriptions, so a subset collector makes the
    whole launch cheaper, not just the collection.
    """

    def __init__(
        self,
        config: Optional[CollectorConfig] = None,
        passes: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config or CollectorConfig()
        self._passes = make_passes(passes, self.config)
        self.pass_names: Tuple[str, ...] = tuple(p.name for p in self._passes)
        self.profiles: List[KernelProfile] = []
        self._p: Optional[KernelProfile] = None
        # Per-pass cost accounting: every lifecycle call and ``consume`` is
        # timed and each pass charged the events of the kinds it subscribes
        # to, flushed to the ``pass.<name>.{seconds,events}`` counters at
        # every kernel end (no-ops while telemetry is disabled).
        self._pass_seconds: Dict[str, float] = {p.name: 0.0 for p in self._passes}
        self._pass_events: Dict[str, int] = {p.name: 0 for p in self._passes}

    def _dispatch(self, hook: str, *args) -> None:
        """Call ``hook`` on every pass, timing each.

        Lifecycle hooks are timed as well as ``consume`` so every enabled
        pass accrues nonzero measured seconds even on workloads that never
        feed it an event (e.g. the texture pass on a texture-free kernel).
        """
        perf = time.perf_counter
        seconds = self._pass_seconds
        for p in self._passes:
            t0 = perf()
            getattr(p, hook)(*args)
            seconds[p.name] += perf() - t0

    def subscriptions(self) -> FrozenSet[str]:
        subs = set()
        for p in self._passes:
            subs |= p.subscribes
        return frozenset(subs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_kernel_begin(
        self, kernel: Kernel, grid: Tuple[int, int], block: Tuple[int, int], nblocks: int
    ) -> None:
        self._p = KernelProfile(
            kernel_name=kernel.name,
            grid=grid,
            block=block,
            total_blocks=nblocks,
            profiled_blocks=0,
            threads_total=nblocks * block[0] * block[1],
            shared_bytes=kernel.shared_bytes,
            register_pressure=_register_pressure_of(kernel),
            passes=self.pass_names,
        )
        self._dispatch("begin_kernel", kernel, self._p)

    def on_kernel_end(self, profiled_blocks: int, total_blocks: int) -> None:
        assert self._p is not None
        p = self._p
        p.profiled_blocks = profiled_blocks
        self._dispatch("end_kernel", p)
        tele = get_telemetry()
        for name, secs in self._pass_seconds.items():
            tele.count(f"pass.{name}.seconds", secs)
            tele.count(f"pass.{name}.events", self._pass_events[name])
            self._pass_seconds[name] = 0.0
            self._pass_events[name] = 0
        self.profiles.append(p)
        self._p = None

    def on_batch(self, batch) -> None:
        """Hand the whole batch to each pass's ``consume``.

        Each pass is charged the batch's events of the kinds it subscribes to.
        """
        self._dispatch("consume", batch)
        counts = batch.event_counts()
        for p in self._passes:
            self._pass_events[p.name] += sum(counts[kind] for kind in p.subscribes)


def _register_pressure_of(kernel: Kernel) -> int:
    """Static register pressure, cached on the kernel instance.

    Cached as an attribute (not in an ``id()``-keyed dict: ids are reused
    after garbage collection, which would silently return another kernel's
    pressure).
    """
    cached = getattr(kernel, "_register_pressure_cache", None)
    if cached is None:
        from repro.simt.disasm import static_stats

        cached = static_stats(kernel).register_pressure
        kernel._register_pressure_cache = cached
    return cached

