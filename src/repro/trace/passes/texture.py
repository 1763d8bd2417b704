"""Texture-fetch pass: access counts plus the fetch stream's line reuse.

The texture path has a dedicated spatially-optimised cache, so the relevant
microarchitecture-independent signal is the locality of the fetch stream,
not transaction counts (no coalescing rules apply).
"""

from __future__ import annotations

import numpy as np

from repro.simt.events import event_chunks, warp_lane_counts
from repro.simt.ir import MemSpace
from repro.trace.passes.base import AnalysisPass, register_pass
from repro.trace.reuse import ReuseDistanceTracker, block_major_lines


@register_pass
class TexturePass(AnalysisPass):
    name = "texture"
    subscribes = frozenset({"mem"})
    fields = ("texture",)

    def begin_kernel(self, kernel, profile):
        self._t = profile.texture
        self._tracker = ReuseDistanceTracker()

    def consume(self, batch):
        # Access counters are integer sums over warp rows (exact in any
        # order); the fetch stream's reuse tracker is order-sensitive and
        # is fed block-major like the reuse pass.
        mem = batch.mem
        idx = mem.events_in(MemSpace.TEXTURE)
        if not idx.size:
            return
        t = self._t
        for sl in event_chunks(idx.size, len(batch) * batch.npad):
            lanes = warp_lane_counts(mem.act[idx[sl]])
            t.accesses += int(np.count_nonzero(lanes))
            t.lane_accesses += int(lanes.sum())
        self._tracker.extend(
            block_major_lines(mem.addrs, mem.act, idx, self.config.line_bits)
        )

    def end_kernel(self, profile):
        t = profile.texture
        t.reuse_histogram = self._tracker.histogram
        t.cold_misses = self._tracker.cold_misses
        t.line_accesses = self._tracker.accesses
        t.unique_lines = self._tracker.unique_lines
        self._t = None
        self._tracker = None
