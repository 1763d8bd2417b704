"""Global-memory line-reuse (locality) pass.

Feeds distinct 128B lines per warp access into the reuse-distance stack;
the section is the power-of-two reuse histogram plus cold-miss/unique-line
counts in :class:`~repro.trace.profile.LocalityStats`.
"""

from __future__ import annotations

import numpy as np

from repro.simt.ir import MemSpace
from repro.trace.passes.base import AnalysisPass, register_pass
from repro.trace.profile import LocalityStats
from repro.trace.reuse import ReuseDistanceTracker


@register_pass
class ReusePass(AnalysisPass):
    name = "reuse"
    subscribes = frozenset({"mem"})
    fields = ("locality",)

    def begin_kernel(self, kernel, profile):
        self._tracker = ReuseDistanceTracker() if self.config.track_reuse else None

    def consume(self, batch):
        # The reuse-distance stack is inherently sequential, so the block
        # axis is walked block-major; the line shift is still
        # hoisted to one vectorized pass over each event's address matrix.
        if self._tracker is None:
            return
        evs = [
            (ev[5] >> self.config.line_bits, ev[6])
            for ev in batch.events
            if ev[0] == "mem" and ev[2] is MemSpace.GLOBAL
        ]
        if not evs:
            return
        tracker = self._tracker
        for i in range(len(batch.block_ids)):
            for lines, act in evs:
                row = act[i]
                if row.any():
                    tracker.access_many(np.unique(lines[i][row]))

    def end_kernel(self, profile):
        if self._tracker is not None:
            profile.locality = LocalityStats(
                reuse_histogram=self._tracker.histogram.copy(),
                cold_misses=self._tracker.cold_misses,
                line_accesses=self._tracker.accesses,
                unique_lines=self._tracker.unique_lines,
            )
        self._tracker = None
