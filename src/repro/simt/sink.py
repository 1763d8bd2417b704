"""Trace sink protocol.

The executor emits dynamic-execution events to sinks.  Sinks are how the
characterization layer observes workloads: the executor stays purely
functional and microarchitecture-free, and every statistic lives in a sink.

All callbacks default to no-ops so sinks override only what they need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.events import EventBatch
    from repro.simt.ir import Kernel

#: Event kinds a sink can subscribe to (lifecycle events always fire).
EVENT_KINDS: FrozenSet[str] = frozenset({"instr", "mem", "branch"})


class TraceSink:
    """Observer of the dynamic SIMT instruction stream.

    A kernel launch produces this call sequence::

        on_kernel_begin
          on_batch*               # one per observed batch of profiled blocks
        on_kernel_end

    Each :meth:`on_batch` call carries an
    :class:`~repro.simt.events.EventBatch`: the events of a run of profiled
    blocks as per-kind columns over those blocks (the schema and the
    participation rule are documented in :mod:`repro.simt.events`).
    The interpreted engine delivers one single-block batch per profiled
    block, in visit order; the compiled engine delivers one batch per run
    of observed lockstep batches that recorded the same code lists, whose
    ``block_ids`` ascend.
    """

    def subscriptions(self) -> FrozenSet[str]:
        """Which event kinds this sink needs the engines to record.

        The executor unions the subscriptions of all attached sinks and
        specializes the launch to exactly that set — unsubscribed events are
        compiled out / skipped entirely.  The default subscribes to every
        event kind; demand-driven sinks (the pass-based collector) narrow it.
        """
        return EVENT_KINDS

    def on_kernel_begin(
        self, kernel: "Kernel", grid: Tuple[int, int], block: Tuple[int, int], nblocks: int
    ) -> None:
        pass

    def on_batch(self, batch: "EventBatch") -> None:
        """Consume one batch of profiled blocks' events."""

    def on_kernel_end(self, profiled_blocks: int, total_blocks: int) -> None:
        pass
