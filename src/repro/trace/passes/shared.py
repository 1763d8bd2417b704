"""Shared-memory bank-conflict pass.

Shared addresses are block-relative, so warp rows repeat heavily across
events and profiled blocks: each chunk of rows is deduplicated first and
the distinct rows' contributions are weighted by their multiplicity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.simt.events import event_chunks
from repro.simt.ir import MemSpace
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass

#: Number of shared-memory banks (4-byte interleave), as on GT200/Fermi.
NUM_BANKS = 32

#: Inactive-lane filler of a row of ``int32`` words; sorts after every word.
_NO_WORD = np.iinfo(np.int32).max

#: Odd multipliers hashing a warp row, read as ``WARP_SIZE // 2`` uint64
#: words of two int32 lanes each, into one uint64 key.
_ROW_HASH = (
    np.random.default_rng(0).integers(1, 1 << 63, WARP_SIZE // 2, dtype=np.uint64) | np.uint64(1)
)


def _distinct_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct C-contiguous ``(n, WARP_SIZE)`` int32 rows and their
    multiplicities.

    Rows are keyed by a wrapping multiply-add hash over their lane pairs
    and deduplicated with a 1-D ``np.unique``; the result is verified row
    by row and falls back to the exact, slower ``np.unique(axis=0)`` on a
    hash collision.
    """
    keys = rows.view(np.uint64) @ _ROW_HASH
    _, first, inv, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    if np.array_equal(rows[first][inv], rows):
        return rows[first], counts
    return np.unique(rows, axis=0, return_counts=True)


def _conflict_degree(rows: np.ndarray) -> np.ndarray:
    """Conflict degree of each ``(WARP_SIZE,)`` address row, inactive lanes
    pinned to -1: the most distinct words any one bank serves (same-word
    lanes broadcast for free; distinct words on one bank serialise)."""
    words = np.where(rows != -1, rows >> 2, _NO_WORD)
    words.sort(axis=1)
    distinct = words != _NO_WORD
    distinct[:, 1:] &= words[:, 1:] != words[:, :-1]
    n = len(rows)
    slot = np.arange(n)[:, None] * NUM_BANKS + words % NUM_BANKS
    per_bank = np.bincount(slot[distinct], minlength=n * NUM_BANKS)
    return per_bank.reshape(n, NUM_BANKS).max(axis=1)


@register_pass
class SharedPass(AnalysisPass):
    name = "shared"
    subscribes = frozenset({"mem"})
    fields = ("shmem",)

    def begin_kernel(self, kernel, profile):
        self._s = profile.shmem

    def consume(self, batch):
        # Every warp with an active lane is one access of its conflict
        # degree.  The degree is an integer, so the float degree sum is
        # exact in any order and the rows are reduced chunk by chunk.
        mem = batch.mem
        idx = mem.events_in(MemSpace.SHARED)
        s = self._s
        for sl in event_chunks(idx.size, len(batch) * batch.npad):
            e = idx[sl]
            slot = mem.slot[e]
            rows = np.where(batch.lane_rows[slot], mem.addrs[e], -1).reshape(-1, WARP_SIZE)
            rows = rows[batch.warp_lanes[slot].reshape(-1) > 0]
            if not len(rows):
                continue
            rows, mult = _distinct_rows(rows)
            degree = _conflict_degree(rows)
            s.accesses += int(mult.sum())
            s.conflict_degree_sum += float(mult @ degree)
            s.conflicted += int(mult[degree > 1].sum())

    def end_kernel(self, profile):
        self._s = None
