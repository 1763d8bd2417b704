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

from repro.simt.events import CATEGORIES
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, fold_sum, register_pass


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
        # Category counters are per-sid integer sums, folded into the
        # accumulator in first-occurrence order.  Per-event lane and warp
        # totals come from the slot tables, and each block's warp-issue
        # counts are the slot multiplicities times the warp-mask table (a
        # block that does not take part in an event has an all-false row).
        ins = batch.instr
        S, P, nwarps = ins.warp_mask.shape
        mult = np.bincount(ins.slot, minlength=S)
        counts = (mult @ ins.warp_mask.reshape(S, P * nwarps)).reshape(P, nwarps)
        if len(ins):
            sids, first, inv = np.unique(ins.sid, return_index=True, return_inverse=True)
            lanes = np.zeros(len(sids), dtype=np.int64)
            warps = np.zeros(len(sids), dtype=np.int64)
            np.add.at(lanes, inv, ins.lanes.sum(axis=1)[ins.slot])
            np.add.at(warps, inv, ins.warp_counts.sum(axis=1)[ins.slot])
            cats = ins.category[first]
            acc = self._sid_acc
            for k in np.argsort(first).tolist():
                sid = int(sids[k])
                rec = acc.get(sid)
                if rec is None:
                    acc[sid] = [int(lanes[k]), int(warps[k]), CATEGORIES[cats[k]].value]
                else:
                    rec[0] += int(lanes[k])
                    rec[1] += int(warps[k])
        # Every block counts towards the CV average; blocks that issued
        # warps add their CV, in block order however the blocks were batched.
        self._cv_blocks += P
        if nwarps > 1:
            busy = counts[counts.sum(axis=1) > 0]
            self._cv_sum = fold_sum(self._cv_sum, busy.std(axis=1) / busy.mean(axis=1))

    def end_kernel(self, profile):
        p = profile
        for lanes_sum, warps_sum, cat in self._sid_acc.values():
            p.thread_instrs[cat] = p.thread_instrs.get(cat, 0) + lanes_sum
            p.warp_instrs[cat] = p.warp_instrs.get(cat, 0) + warps_sum
            p.simd_lane_sum += lanes_sum
            p.simd_slot_sum += warps_sum * WARP_SIZE
        p.warp_imbalance_cv = self._cv_sum / self._cv_blocks if self._cv_blocks else 0.0
        self._sid_acc = {}
