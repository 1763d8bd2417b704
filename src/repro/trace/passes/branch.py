"""Branch-divergence pass.

The statistics are a pure function of each block's (active, taken) warp
vectors, which repeat heavily across blocks and loop iterations: the
per-row contribution is memoized (same floats added in the same order, so
the accumulated sums are bit-identical to the direct computation).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.trace.passes.base import AnalysisPass, register_pass


def _contribution(row: np.ndarray) -> Tuple[int, int, float, float]:
    """(warp events, divergent, taken-fraction sum, its square sum) of one
    block's active counts concatenated with its taken counts."""
    nw = row.size // 2
    has = row[:nw] > 0
    active = row[:nw][has]
    taken = row[nw:][has]
    if active.size == 0:
        return (0, 0, 0.0, 0.0)
    divergent = (taken > 0) & (taken < active)
    frac = taken / active
    return (
        active.size,
        int(divergent.sum()),
        float(frac.sum()),
        float((frac * frac).sum()),
    )


@register_pass
class BranchPass(AnalysisPass):
    name = "branch"
    subscribes = frozenset({"branch"})
    fields = ("branch",)

    def begin_kernel(self, kernel, profile):
        self._stats = profile.branch
        self._cache: Dict[bytes, Tuple[int, int, float, float]] = {}

    def consume(self, batch):
        # A block row's contribution is keyed by its active+taken bytes.
        # Contributions are looked up event by event and accumulated
        # block-major, so the float sums add in the same order however the
        # blocks were batched.
        cache = self._cache
        contribs = []
        for ev in batch.events:
            if ev[0] != "branch":
                continue
            cs = []
            for row in np.concatenate((ev[3], ev[4]), axis=1):
                key = row.tobytes()
                c = cache.get(key)
                if c is None:
                    c = cache[key] = _contribution(row)
                cs.append(c)
            contribs.append((ev[2] == "loop", cs))
        b = self._stats
        for i in range(len(batch.block_ids)):
            for is_loop, cs in contribs:
                c = cs[i]
                n = c[0]
                if n == 0:
                    continue
                b.events += n
                if is_loop:
                    b.loop_events += n
                else:
                    b.if_events += n
                b.divergent += c[1]
                b.taken_frac_sum += c[2]
                b.taken_frac_sqsum += c[3]

    def end_kernel(self, profile):
        self._stats = None
