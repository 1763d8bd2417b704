"""Global-memory coalescing pass: warp transaction counts at two segment
granularities, intra-warp stride classification, and the per-thread
"local stride" histogram (the classic MICA profile)."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.simt.ir import MemSpace
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass


def _distinct_per_row(values: np.ndarray) -> np.ndarray:
    """Count distinct values per row of a 2-D array."""
    ordered = np.sort(values, axis=1)
    return (np.diff(ordered, axis=1) != 0).sum(axis=1) + 1


@register_pass
class CoalescingPass(AnalysisPass):
    name = "coalescing"
    subscribes = frozenset({"mem"})
    fields = ("gmem",)

    def begin_kernel(self, kernel, profile):
        self._g = profile.gmem

    def consume(self, batch):
        # Every counter here is an integer sum over independent warp rows,
        # so stacking all blocks' warps into one matrix per event is exact
        # regardless of traversal order.  Local-stride state lives in
        # per-batch flat (P * npad) arrays: a block appears in exactly one
        # batch, so every thread's stride history starts fresh with its
        # block, and lanes only update on events they take part in.
        g = self._g
        cfg = self.config
        prev_state: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for ev in batch.events:
            if ev[0] != "mem" or ev[2] is not MemSpace.GLOBAL:
                continue
            elem_size, addrs, act = ev[4], ev[5], ev[6]
            A2 = addrs.reshape(-1, WARP_SIZE)
            M2 = act.reshape(-1, WARP_SIZE)
            warp_has = M2.any(axis=1)
            if warp_has.any():
                A = A2[warp_has]
                M = M2[warp_has]
                n = A.shape[0]
                g.accesses += n
                g.lane_accesses += int(M.sum())
                # Transactions: distinct segments touched per warp, at two
                # granularities.  Inactive lanes are filled with the warp's
                # first active address so they never add segments.
                first = M.argmax(axis=1)
                fill = A[np.arange(n), first][:, None]
                addr_f = np.where(M, A, fill)
                t32 = _distinct_per_row(addr_f >> cfg.seg_small_bits)
                t128 = _distinct_per_row(addr_f >> cfg.seg_large_bits)
                g.transactions_32b += int(t32.sum())
                g.transactions_128b += int(t128.sum())
                active_cnt = M.sum(axis=1)
                minimal = -(-(active_cnt * elem_size) // cfg.seg_small)
                g.coalesced += int((t32 <= minimal).sum())
                # Intra-warp stride classes over adjacent active lane pairs.
                d = A[:, 1:] - A[:, :-1]
                valid = M[:, 1:] & M[:, :-1]
                has_pair = valid.any(axis=1)
                unit = np.where(has_pair, ((d == elem_size) | ~valid).all(axis=1), False)
                bcast = np.where(has_pair, ((d == 0) | ~valid).all(axis=1), active_cnt > 0)
                single = active_cnt == 1
                g.unit_stride += int((unit & ~single).sum())
                g.broadcast += int((bcast | single).sum())

            # Per-thread consecutive stride histogram, per static instruction.
            flat_act = act.reshape(-1)
            flat_addr = addrs.reshape(-1)
            state = prev_state.get(ev[1].sid)
            if state is None:
                prev = np.zeros(flat_act.size, dtype=np.int64)
                seen = np.zeros(flat_act.size, dtype=bool)
                prev_state[ev[1].sid] = (prev, seen)
            else:
                prev, seen = state
                both = flat_act & seen
                if both.any():
                    diffs = np.abs(flat_addr[both] - prev[both])
                    ls = g.local_strides
                    ls["zero"] += int((diffs == 0).sum())
                    ls["unit"] += int((diffs == elem_size).sum())
                    ls["short"] += int(((diffs > elem_size) & (diffs <= 128)).sum())
                    ls["long"] += int((diffs > 128).sum())
            prev[flat_act] = flat_addr[flat_act]
            seen |= flat_act

    def end_kernel(self, profile):
        self._g = None
