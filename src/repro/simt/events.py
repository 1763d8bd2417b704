"""Columnar event buffers: the one transport from the engines to sinks.

Observation is decoupled from execution: while a *batch* of blocks
executes, an :class:`EventRecorder` captures each emitted event once as a
set of per-profiled-block numpy rows, and the whole batch is handed to
sinks in a single :meth:`~repro.simt.sink.TraceSink.on_batch` call.  The
compiled engine records one batch per observed lockstep batch; the
interpreted engine records each profiled block as a batch of one.
Analysis passes consume the buffers with vectorized reductions over the
block-lane axis (see ``AnalysisPass.consume``).

Buffer schema
-------------

An :class:`EventBatch` covers ``P = len(block_ids)`` profiled blocks (the
ascending linear block ids of the batch's profiled subset).  ``events`` is
the emission-ordered list of records, one tuple per dynamic statement:

``("instr", stmt, category, lanes, warp_mask, warp_counts)``
    ``lanes``: ``(P,) int64`` active-lane popcount per block;
    ``warp_mask``: ``(P, nwarps) bool`` warps with >= 1 active lane;
    ``warp_counts``: ``(P,) int64`` popcount of each ``warp_mask`` row.

``("mem", stmt, space, kind, elem_size, addrs, act)``
    ``addrs``: ``(P, npad) int64`` per-lane byte addresses (copied at record
    time — register arrays are mutated in place by later statements);
    ``act``: ``(P, npad) bool`` active-lane mask rows.

``("branch", stmt, kind, warp_active, warp_taken)``
    ``(P, nwarps) int64`` per-warp active/taken lane counts.

A block *participates* in an event when its row has at least one active
lane.  Restricted to its participating events, a block's row sequence is
exactly the event sequence the block emits when executed alone: lockstep
execution visits the union of the batch's control-flow paths, and a block
absent from a path contributes all-inactive rows there, which are filtered.
This is the pipeline's parity invariant — consumers that filter rows by
participation and accumulate block-major (block by block, each in event
order) produce the same bytes whether the blocks arrive in one batch or
one per batch, floats included.

Batch membership itself is decided upstream by the planner
(:func:`repro.simt.compiled.plan_batches`): hazard-flagged launches whose
footprints group into contiguous block runs flush a batch at every group
boundary, so a batch never spans two footprint groups.  Because batches
always cover ascending linear block ids, the invariant above is unchanged
— grouping only shortens batches, it never reorders them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.simt.types import WARP_SIZE


class EventBatch:
    """One batch's recorded events, columnar over the profiled blocks."""

    __slots__ = ("block_ids", "nthreads", "nwarps", "npad", "events")

    def __init__(
        self,
        block_ids: Tuple[int, ...],
        nthreads: int,
        nwarps: int,
        npad: int,
        events: List[tuple],
    ) -> None:
        self.block_ids = block_ids
        self.nthreads = nthreads
        self.nwarps = nwarps
        self.npad = npad
        self.events = events

    def __len__(self) -> int:
        return len(self.block_ids)

    def event_counts(self) -> Dict[str, int]:
        counts = {"instr": 0, "mem": 0, "branch": 0}
        for ev in self.events:
            counts[ev[0]] += 1
        return counts

    def buffer_bytes(self) -> int:
        """Total bytes held by the batch's numpy buffers."""
        total = 0
        for ev in self.events:
            for part in ev:
                if isinstance(part, np.ndarray):
                    total += part.nbytes
        return total


class EventRecorder:
    """Captures one batch's observation events as columnar buffers.

    Installed on the run state (``st.recorder``) by the compiled driver and
    on each profiled block by the interpreter; both engines' ``_note_*``
    hooks route events here.  Active masks are never mutated after they
    are noted (every mask update allocates), so instruction events store
    one reference per distinct mask object and the per-block reductions
    happen once per mask in :meth:`finish`.  Address arrays *are* mutated
    in place by later statements, so memory events copy their profiled
    rows eagerly.
    """

    __slots__ = (
        "block_ids",
        "nthreads",
        "nwarps",
        "npad",
        "_rows",
        "_all",
        "_nblk",
        "_events",
        "_masks",
        "_mask_ids",
    )

    def __init__(
        self,
        block_ids: Sequence[int],
        prof_rows: Sequence[int],
        nblk: int,
        npad: int,
        nwarps: int,
        nthreads: int,
    ) -> None:
        self.block_ids = tuple(block_ids)
        self.nthreads = nthreads
        self.nwarps = nwarps
        self.npad = npad
        self._nblk = nblk
        self._all = len(self.block_ids) == nblk
        self._rows = None if self._all else np.asarray(prof_rows, dtype=np.int64)
        self._events: List[tuple] = []
        self._masks: List[np.ndarray] = []
        self._mask_ids: Dict[int, int] = {}

    def _take(self, arr: np.ndarray, copy: bool) -> np.ndarray:
        """Profiled-block rows of a full-batch lane array, ``(P, npad)``."""
        rows = arr.reshape(self._nblk, self.npad)
        if self._all:
            return rows.copy() if copy else rows
        return rows[self._rows]  # fancy indexing copies

    def _warp_rows(self, mask: np.ndarray) -> np.ndarray:
        """Per-warp active-lane counts for the profiled blocks, ``(P, nwarps)``."""
        sub = self._take(mask, copy=False)
        return (
            sub.reshape(-1, WARP_SIZE)
            .sum(axis=1)
            .reshape(len(self.block_ids), self.nwarps)
        )

    # -- hooks called by the engines' _note_* functions -----------------

    def instr(self, stmt, category, act: np.ndarray) -> None:
        slot = self._mask_ids.get(id(act))
        if slot is None:
            slot = len(self._masks)
            self._masks.append(act)
            self._mask_ids[id(act)] = slot
        self._events.append((0, stmt, category, slot))

    def mem(self, stmt, space, kind, esize, addrs: np.ndarray, act: np.ndarray) -> None:
        act_rows = self._take(act, copy=False)
        if not act_rows.any():
            return  # no profiled lane participates: the event is invisible
        self._events.append((1, stmt, space, kind, esize, self._take(addrs, copy=True), act_rows))

    def branch(self, stmt, kind, act: np.ndarray, taken: np.ndarray) -> None:
        wa = self._warp_rows(act)
        if not wa.any():
            return
        self._events.append((2, stmt, kind, wa, self._warp_rows(taken)))

    def finish(self) -> EventBatch:
        """Resolve mask references into columnar buffers and build the batch."""
        P = len(self.block_ids)
        tables = []
        for mask in self._masks:
            sub = self._take(mask, copy=False)
            lanes = sub.sum(axis=1)
            warp_mask = sub.reshape(-1, WARP_SIZE).any(axis=1).reshape(P, self.nwarps)
            warp_counts = np.count_nonzero(warp_mask, axis=1)
            tables.append((lanes, warp_mask, warp_counts) if lanes.any() else None)
        events: List[tuple] = []
        for ev in self._events:
            tag = ev[0]
            if tag == 0:
                table = tables[ev[3]]
                if table is None:
                    continue  # no profiled lane participates
                events.append(("instr", ev[1], ev[2], table[0], table[1], table[2]))
            elif tag == 1:
                events.append(("mem", ev[1], ev[2], ev[3], ev[4], ev[5], ev[6]))
            else:
                events.append(("branch", ev[1], ev[2], ev[3], ev[4]))
        return EventBatch(self.block_ids, self.nthreads, self.nwarps, self.npad, events)
