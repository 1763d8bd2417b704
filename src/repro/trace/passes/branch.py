"""Branch-divergence pass.

The statistics are a pure function of each block's (active, taken) warp
vectors.  Rows are reduced in bulk, grouped by their number of warps with
active lanes, so each row's float sums are the sums over its compressed
warp vector that a row-by-row computation would produce; they are folded
block-major, so the accumulated sums are bit-identical to adding the rows
one at a time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.simt.events import BRANCH_KIND_CODE, event_chunks
from repro.trace.passes.base import AnalysisPass, fold_sum, register_pass


def _contributions(
    active: np.ndarray, taken: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``(rows, nwarps)`` active/taken lane counts: warp events,
    divergent warps, and the taken-fraction sum and square sum over the
    warps with active lanes.  Rows with ``k`` such warps are compressed to
    a contiguous ``(m, k)`` array and summed along its rows, which adds the
    floats exactly as summing each row's ``(k,)`` vector does."""
    has = active > 0
    n = has.sum(axis=1)
    divergent = ((taken > 0) & (taken < active)).sum(axis=1)
    frac_sum = np.zeros(len(n))
    frac_sqsum = np.zeros(len(n))
    for k in np.unique(n[n > 0]).tolist():
        rows = np.flatnonzero(n == k)
        sel = has[rows]
        frac = (taken[rows][sel] / active[rows][sel]).reshape(-1, k)
        frac_sum[rows] = frac.sum(axis=1)
        frac_sqsum[rows] = (frac * frac).sum(axis=1)
    return n, divergent, frac_sum, frac_sqsum


@register_pass
class BranchPass(AnalysisPass):
    name = "branch"
    subscribes = frozenset({"branch"})
    fields = ("branch",)

    def begin_kernel(self, kernel, profile):
        self._stats = profile.branch

    def consume(self, batch):
        # Counters are integer sums; the float sums fold the per-row values
        # strictly in block-major order (each block's events in order), so
        # they add the same floats in the same order however the blocks
        # were batched.
        br = batch.branch
        Eb = len(br)
        if not Eb:
            return
        nwarps = batch.nwarps
        loop = br.kind == BRANCH_KIND_CODE["loop"]
        b = self._stats
        for blocks in event_chunks(len(batch), Eb * nwarps):
            active = br.active[:, blocks].transpose(1, 0, 2).reshape(-1, nwarps)
            taken = br.taken[:, blocks].transpose(1, 0, 2).reshape(-1, nwarps)
            n, divergent, frac_sum, frac_sqsum = _contributions(active, taken)
            loops = int(n[np.tile(loop, len(n) // Eb)].sum())
            total = int(n.sum())
            b.events += total
            b.loop_events += loops
            b.if_events += total - loops
            b.divergent += int(divergent.sum())
            b.taken_frac_sum = fold_sum(b.taken_frac_sum, frac_sum)
            b.taken_frac_sqsum = fold_sum(b.taken_frac_sqsum, frac_sqsum)

    def end_kernel(self, profile):
        self._stats = None
