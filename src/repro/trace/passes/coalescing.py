"""Global-memory coalescing pass: warp transaction counts at two segment
granularities, intra-warp stride classification, and the per-thread
"local stride" histogram (the classic MICA profile)."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.simt.events import event_chunks
from repro.simt.ir import MemSpace
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass


def _distinct_per_row(ordered: np.ndarray) -> np.ndarray:
    """Count distinct values per row of a row-sorted 2-D array."""
    return (np.diff(ordered, axis=1) != 0).sum(axis=1) + 1


def _warp_counters(g, cfg, A2: np.ndarray, M2: np.ndarray, esize: np.ndarray) -> None:
    """Add the warp-row counters of ``(rows, WARP_SIZE)`` address and mask
    rows with per-row element sizes (integer sums, so any row order)."""
    warp_has = M2.any(axis=1)
    if warp_has.all():
        A, M = A2, M2
    elif warp_has.any():
        A, M, esize = A2[warp_has], M2[warp_has], esize[warp_has]
    else:
        return
    n = A.shape[0]
    g.accesses += n
    g.lane_accesses += int(M.sum())
    # Transactions: distinct segments touched per warp, at two
    # granularities.  Inactive lanes are filled with the warp's first
    # active address so they never add segments; shifting keeps a sorted
    # row sorted, so one sort serves both granularities.
    if M.all():
        addr_f = np.sort(A, axis=1)
    else:
        fill = A[np.arange(n), M.argmax(axis=1)][:, None]
        addr_f = np.sort(np.where(M, A, fill), axis=1)
    t32 = _distinct_per_row(addr_f >> cfg.seg_small_bits)
    t128 = _distinct_per_row(addr_f >> cfg.seg_large_bits)
    g.transactions_32b += int(t32.sum())
    g.transactions_128b += int(t128.sum())
    active_cnt = M.sum(axis=1)
    minimal = -(-(active_cnt * esize) // cfg.seg_small)
    g.coalesced += int((t32 <= minimal).sum())
    # Intra-warp stride classes over adjacent active lane pairs.
    d = A[:, 1:] - A[:, :-1]
    valid = M[:, 1:] & M[:, :-1]
    has_pair = valid.any(axis=1)
    unit = np.where(has_pair, ((d == esize[:, None]) | ~valid).all(axis=1), False)
    bcast = np.where(has_pair, ((d == 0) | ~valid).all(axis=1), active_cnt > 0)
    single = active_cnt == 1
    g.unit_stride += int((unit & ~single).sum())
    g.broadcast += int((bcast | single).sum())


def _local_strides(ls: Dict[str, int], A: np.ndarray, M: np.ndarray, sid: np.ndarray,
                   esize: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Add the per-thread stride histogram of ``(E, lanes)`` rows sorted by sid.

    Each lane's stride is taken against its last active event of the same
    sid: a forward-fill of active row indices (``np.maximum.accumulate``)
    finds that event wherever it lies at or after the sid group's start.
    Strides are classified in place, with the lanes that have none marked
    ``-1``.  Returns the last sid group's per-lane last address and seen
    flag.
    """
    n, lanes = A.shape
    rows = np.arange(n)
    new = np.ones(n, dtype=bool)
    new[1:] = sid[1:] != sid[:-1]
    start = np.maximum.accumulate(np.where(new, rows, 0))
    last = np.maximum.accumulate(np.where(M, rows[:, None], -1), axis=0)
    tail = (A[np.maximum(last[-1], 0), np.arange(lanes)], last[-1] >= start[-1])
    prev = last[:-1]
    both = M[1:] & (prev >= start[1:, None])
    if both.any():
        prev_addr = np.take_along_axis(A, np.maximum(prev, 0), axis=0)
        diffs = np.where(both, np.abs(A[1:] - prev_addr), -1)
        es = esize[1:, None]
        ls["zero"] += int(np.count_nonzero(diffs == 0))
        ls["unit"] += int(np.count_nonzero(diffs == es))
        ls["short"] += int(np.count_nonzero((diffs > es) & (diffs <= 128)))
        ls["long"] += int(np.count_nonzero(diffs > 128))
    return tail


@register_pass
class CoalescingPass(AnalysisPass):
    name = "coalescing"
    subscribes = frozenset({"mem"})
    fields = ("gmem",)

    def begin_kernel(self, kernel, profile):
        self._g = profile.gmem

    def consume(self, batch):
        # Every counter is an integer sum, so the global events are visited
        # in stable sid order, in bounded chunks.  Local strides are per
        # (sid, thread) over the batch's events: a block appears in exactly
        # one batch, so every thread's stride history starts fresh with its
        # block, and lanes only update on events they take part in.  Each
        # chunk carries the last sid group's per-lane last address and seen
        # flag into the next as a leading pseudo-event that is never counted.
        mem = batch.mem
        idx = mem.events_in(MemSpace.GLOBAL)
        if not idx.size:
            return
        g = self._g
        lanes = batch.npad * len(batch)
        order = idx[np.argsort(mem.sid[idx], kind="stable")]
        # Only sids with two or more events in the batch have strides.
        sids = mem.sid[order]
        repeated = np.zeros(order.size, dtype=bool)
        repeated[1:] = sids[1:] == sids[:-1]
        repeated[:-1] |= repeated[1:]
        carry = None
        for sl in event_chunks(order.size, lanes):
            e = order[sl]
            if (np.diff(e) == 1).all():  # a run in emission order: a view, no copy
                e = slice(e[0], e[-1] + 1)
            A = mem.addrs[e].reshape(-1, lanes)
            M = mem.act[e].reshape(-1, lanes)
            esize = mem.elem_size[e]
            _warp_counters(
                g, self.config, A.reshape(-1, WARP_SIZE), M.reshape(-1, WARP_SIZE),
                np.repeat(esize, lanes // WARP_SIZE),
            )
            multi = repeated[sl]
            if not multi.any():
                carry = None
                continue
            sid = sids[sl]
            if not multi.all():
                A, M, sid, esize = A[multi], M[multi], sid[multi], esize[multi]
            if carry is not None and carry[0] == sid[0]:
                A = np.concatenate((carry[1][None], A))
                M = np.concatenate((carry[2][None], M))
                sid = np.concatenate((sid[:1], sid))
                esize = np.concatenate((esize[:1], esize))
            carry = (sid[-1],) + _local_strides(g.local_strides, A, M, sid, esize)

    def end_kernel(self, profile):
        self._g = None
