"""Shared-memory bank-conflict pass.

Shared addresses are block-relative, so each block's (mask, active
addresses) row — and therefore its additive contribution — repeats across
profiled blocks; contributions are cached keyed by the row's bytes.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.simt.ir import MemSpace
from repro.simt.types import WARP_SIZE
from repro.trace.passes.base import AnalysisPass, register_pass

#: Number of shared-memory banks (4-byte interleave), as on GT200/Fermi.
NUM_BANKS = 32


def _contribution(row: np.ndarray) -> Tuple[int, float, int]:
    """(accessing warps, summed conflict degree, conflicted warps) of one
    block's address row, inactive lanes pinned to -1."""
    act = row != -1
    word = row[act] >> 2
    bank = word % NUM_BANKS
    wid = np.flatnonzero(act) // WARP_SIZE
    # Distinct (warp, bank, word) triples: same-word lanes broadcast for
    # free; distinct words on the same bank serialise.
    key = (wid << 44) | (bank << 38) | (word & ((1 << 38) - 1))
    wb = np.unique(key) >> 38  # (warp, bank) pairs
    pairs, counts = np.unique(wb, return_counts=True)
    warp_of = pairs >> 6
    nwarps = row.size // WARP_SIZE
    degree = np.zeros(nwarps, dtype=np.int64)
    np.maximum.at(degree, warp_of, counts)
    present = np.zeros(nwarps, dtype=bool)
    present[warp_of] = True
    return (
        int(present.sum()),
        float(degree[present].sum()),
        int((degree[present] > 1).sum()),
    )


@register_pass
class SharedPass(AnalysisPass):
    name = "shared"
    subscribes = frozenset({"mem"})
    fields = ("shmem",)

    def begin_kernel(self, kernel, profile):
        self._s = profile.shmem
        self._cache: Dict[bytes, Tuple[int, float, int]] = {}

    def consume(self, batch):
        # Inactive lanes are pinned to -1, which no validated shared address
        # can be, so a block row's bytes key its contribution.  Contributions
        # are looked up event by event and accumulated block-major, so
        # conflict_degree_sum adds its floats in the same order however the
        # blocks were batched.
        cache = self._cache
        contribs = []
        for ev in batch.events:
            if ev[0] != "mem" or ev[2] is not MemSpace.SHARED:
                continue
            cs = []
            for row in np.where(ev[6], ev[5], -1):
                key = row.tobytes()
                c = cache.get(key)
                if c is None:
                    c = cache[key] = _contribution(row)
                cs.append(c)
            contribs.append(cs)
        s = self._s
        for i in range(len(batch.block_ids)):
            for cs in contribs:
                c = cs[i]
                if c[0]:
                    s.accesses += c[0]
                    s.conflict_degree_sum += c[1]
                    s.conflicted += c[2]

    def end_kernel(self, profile):
        self._s = None
