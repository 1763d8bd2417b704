"""Instruction-mix pass: thread/warp category counts, SIMD efficiency and
warp-issue imbalance.

Mix counters are additive per static statement: accumulate
``[lanes, warps, category]`` per sid and fold at kernel end instead of
updating two category dicts on every event (the fold iterates sids in
first-occurrence order, matching the direct accumulation exactly).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass


@register_pass
class MixPass(AnalysisPass):
    name = "mix"
    subscribes = frozenset({"instr"})
    fields = (
        "thread_instrs",
        "warp_instrs",
        "simd_lane_sum",
        "simd_slot_sum",
        "warp_imbalance_cv",
    )

    def begin_kernel(self, kernel, profile):
        self._sid_acc: Dict[int, list] = {}
        self._cv_sum = 0.0
        self._cv_blocks = 0

    def consume(self, batch):
        # Category counters are per-sid sums (commutative ints), so the
        # whole event column folds at once; the imbalance CV needs the
        # per-block warp-issue counts, accumulated as one (P, nwarps)
        # matrix (a block that does not take part in an event has an
        # all-false warp-mask row, so the unconditional add is exact).
        P = len(batch.block_ids)
        counts = np.zeros((P, batch.nwarps), dtype=np.int64)
        acc = self._sid_acc
        for ev in batch.events:
            if ev[0] != "instr":
                continue
            counts += ev[4]
            lanes_sum = int(ev[3].sum())
            warps_sum = int(ev[5].sum())
            rec = acc.get(ev[1].sid)
            if rec is None:
                acc[ev[1].sid] = [lanes_sum, warps_sum, ev[2].value]
            else:
                rec[0] += lanes_sum
                rec[1] += warps_sum
        # Per-block CV, one block at a time so the float sum adds in block
        # order however the blocks were batched.
        for i in range(P):
            row = counts[i]
            if row.size > 1 and row.sum() > 0:
                mean = row.mean()
                if mean > 0:
                    self._cv_sum += float(row.std() / mean)
                    self._cv_blocks += 1
            elif row.size >= 1:
                self._cv_blocks += 1

    def end_kernel(self, profile):
        p = profile
        for lanes_sum, warps_sum, cat in self._sid_acc.values():
            p.thread_instrs[cat] = p.thread_instrs.get(cat, 0) + lanes_sum
            p.warp_instrs[cat] = p.warp_instrs.get(cat, 0) + warps_sum
            p.simd_lane_sum += lanes_sum
            p.simd_slot_sum += warps_sum * WARP_SIZE
        p.warp_imbalance_cv = self._cv_sum / self._cv_blocks if self._cv_blocks else 0.0
        self._sid_acc = {}
