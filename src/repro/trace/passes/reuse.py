"""Global-memory line-reuse (locality) pass.

Feeds each block's distinct active 128B lines per global-memory statement
into the reuse-distance stack, block-major; the section is the power-of-two
reuse histogram plus cold-miss/unique-line counts in
:class:`~repro.trace.profile.LocalityStats`.
"""

from __future__ import annotations

from repro.simt.ir import MemSpace
from repro.trace.passes.base import AnalysisPass, register_pass
from repro.trace.profile import LocalityStats
from repro.trace.reuse import ReuseDistanceTracker, block_major_lines


@register_pass
class ReusePass(AnalysisPass):
    name = "reuse"
    subscribes = frozenset({"mem"})
    fields = ("locality",)

    def begin_kernel(self, kernel, profile):
        self._tracker = ReuseDistanceTracker()

    def consume(self, batch):
        # The reuse-distance stack is order-sensitive: the line stream is
        # block-major, each block's statements in emission order.
        mem = batch.mem
        idx = mem.events_in(MemSpace.GLOBAL)
        self._tracker.extend(
            block_major_lines(mem.addrs, batch.lane_rows, mem.slot, idx, self.config.line_bits)
        )

    def end_kernel(self, profile):
        profile.locality = LocalityStats(
            reuse_histogram=self._tracker.histogram,
            cold_misses=self._tracker.cold_misses,
            line_accesses=self._tracker.accesses,
            unique_lines=self._tracker.unique_lines,
        )
        self._tracker = None
