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
ascending linear block ids of the batch's profiled subset) and holds one
group of columns per event kind.  Every column keeps emission order within
its kind; no consumer reads order across kinds.  Integer code columns index
the tuples :data:`CATEGORIES`, :data:`MEM_SPACES`, :data:`MEM_KINDS` and
:data:`BRANCH_KINDS`.

``batch.instr`` (:class:`InstrColumns`, ``Ei`` events)
    ``sid``, ``category``, ``slot``: ``(Ei,) int64`` per event.  ``slot``
    indexes the per-distinct-mask tables ``lanes (S, P) int64`` (active-lane
    popcount per block), ``warp_mask (S, P, nwarps) bool`` (warps with >= 1
    active lane) and ``warp_counts (S, P) int64`` (popcount of each
    ``warp_mask`` row).  Straight-line runs share one mask, so ``S`` is
    usually far below ``Ei``.

``batch.mem`` (:class:`MemColumns`, ``Em`` events)
    ``sid``, ``space``, ``kind``, ``elem_size``: ``(Em,) int64`` per event;
    ``addrs``: ``(Em, P, npad) int32`` per-lane byte addresses; ``act``:
    ``(Em, P, npad) bool`` active-lane masks.  Device buffers and a
    kernel's shared segment both end at or below
    :data:`~repro.simt.memory.ADDRESS_LIMIT` (``2**31``), and an access
    that faults ends its launch before its batch is delivered, so every
    active lane's address fits ``int32`` exactly.  Inactive lanes hold
    whatever their address register held, wrapped to 32 bits: consumers
    read addresses only under ``act``.

``batch.branch`` (:class:`BranchColumns`, ``Eb`` events)
    ``sid``, ``kind``: ``(Eb,) int64`` per event; ``active``, ``taken``:
    ``(Eb, P, nwarps) int64`` per-warp active/taken lane counts.

Every per-warp lane count (the mask tables, the branch counts, and the
memory passes' warp rows) comes from :func:`warp_lane_counts`, which
packs each warp's 32 lanes into one word and counts its bits.

An event is recorded only if at least one profiled lane takes part in it.

A block *participates* in an event when its row has at least one active
lane.  Restricted to its participating events, a block's rows in each
kind's columns are exactly the events of that kind the block emits when
executed alone: lockstep
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

from repro.simt.ir import MemSpace, OpCategory

#: Code tables of the integer columns (a column value indexes its tuple).
CATEGORIES: Tuple[OpCategory, ...] = tuple(OpCategory)
MEM_SPACES: Tuple[MemSpace, ...] = tuple(MemSpace)
MEM_KINDS: Tuple[str, ...] = ("load", "store", "atomic")
BRANCH_KINDS: Tuple[str, ...] = ("if", "loop")
CATEGORY_CODE: Dict[OpCategory, int] = {c: i for i, c in enumerate(CATEGORIES)}
SPACE_CODE: Dict[MemSpace, int] = {s: i for i, s in enumerate(MEM_SPACES)}
MEM_KIND_CODE: Dict[str, int] = {k: i for i, k in enumerate(MEM_KINDS)}
BRANCH_KIND_CODE: Dict[str, int] = {k: i for i, k in enumerate(BRANCH_KINDS)}

#: Element bound on the stacked temporaries built from a batch's columns
#: (by the recorder and by the passes).
STACK_ELEMS = 1 << 16


def event_chunks(n: int, per_event: int) -> List[slice]:
    """Contiguous slices of ``range(n)`` of at most about :data:`STACK_ELEMS`
    elements each, ``per_event`` elements per event (at least one event)."""
    step = max(STACK_ELEMS // max(per_event, 1), 1)
    return [slice(i, i + step) for i in range(0, n, step)]


_SWAR = tuple(np.uint32(m) for m in (0x55555555, 0x33333333, 0x0F0F0F0F, 0x01010101))


def warp_lane_counts(mask: np.ndarray) -> np.ndarray:
    """Active lanes per warp of ``(..., n)`` bool lane rows, ``n`` a multiple
    of :data:`~repro.simt.types.WARP_SIZE`: ``(..., n // WARP_SIZE) uint32``.

    Each warp's lanes are packed into one 32-bit word (``np.packbits``, 8
    lanes a byte, so a warp's 4 bytes are one word in any byte order) and
    the word's bits are counted with a SWAR popcount, which runs on every
    supported numpy (``np.bitwise_count`` needs numpy 2.0).
    """
    m1, m2, m4, h01 = _SWAR
    w = np.packbits(mask, axis=-1).view(np.uint32)
    w = w - ((w >> 1) & m1)
    w = (w & m2) + ((w >> 2) & m2)
    w = (w + (w >> 4)) & m4
    return (w * h01) >> 24


class _Columns:
    """One event kind's columns: per-event vectors plus their buffers."""

    __slots__ = ()

    def __init__(self, **columns: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.sid)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns, each buffer counted once."""
        return sum(getattr(self, name).nbytes for name in self.__slots__)


class InstrColumns(_Columns):
    __slots__ = ("sid", "category", "slot", "lanes", "warp_mask", "warp_counts")


class MemColumns(_Columns):
    __slots__ = ("sid", "space", "kind", "elem_size", "addrs", "act")

    def events_in(self, space: MemSpace) -> np.ndarray:
        """Indices of the events in ``space``, in emission order."""
        return np.flatnonzero(self.space == SPACE_CODE[space])


class BranchColumns(_Columns):
    __slots__ = ("sid", "kind", "active", "taken")


class EventBatch:
    """One batch's recorded events, columnar per kind over the profiled blocks."""

    __slots__ = ("block_ids", "nthreads", "nwarps", "npad", "instr", "mem", "branch")

    def __init__(
        self,
        block_ids: Tuple[int, ...],
        nthreads: int,
        nwarps: int,
        npad: int,
        instr: InstrColumns,
        mem: MemColumns,
        branch: BranchColumns,
    ) -> None:
        self.block_ids = block_ids
        self.nthreads = nthreads
        self.nwarps = nwarps
        self.npad = npad
        self.instr = instr
        self.mem = mem
        self.branch = branch

    def __len__(self) -> int:
        return len(self.block_ids)

    def event_counts(self) -> Dict[str, int]:
        return {"instr": len(self.instr), "mem": len(self.mem), "branch": len(self.branch)}

    def buffer_bytes(self) -> int:
        """Total bytes held by the batch's numpy buffers, each counted once."""
        return self.instr.nbytes + self.mem.nbytes + self.branch.nbytes


def _codes(values: List[int], width: int) -> np.ndarray:
    """A flat per-event code list as ``(width, E)`` contiguous rows."""
    return np.ascontiguousarray(np.array(values, dtype=np.int64).reshape(-1, width).T)


def _stacked(rows: List[np.ndarray], shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Stack per-event rows chunk by chunk, releasing each chunk once copied
    so that the batch's buffers are never held twice."""
    out = np.empty((len(rows),) + shape, dtype=dtype)
    for sl in event_chunks(len(rows), int(np.prod(shape))):
        chunk = out[sl]
        np.stack(rows[sl], out=chunk)
        rows[sl] = [None] * len(chunk)
    return out


class EventRecorder:
    """Captures one batch's observation events as columnar buffers.

    Installed on the run state (``st.recorder``) by the compiled driver and
    on each profiled block by the interpreter; both engines' hooks pass the
    statement id and the integer codes of the event's category, space and
    kind.  The compiled engine notes each straight-line run of instruction
    events with one :meth:`instr_run` call; the interpreter notes them one
    at a time with :meth:`instr`.  Neither engine changes an array in
    place once it is noted: every mask update and every register write
    allocates.  So instruction events store one slot per distinct mask
    object, and branch and memory events keep views of their masks and
    address registers; :meth:`finish` reduces and stacks them in bulk and
    drops the events no profiled lane takes part in.
    """

    __slots__ = (
        "block_ids",
        "nthreads",
        "nwarps",
        "npad",
        "_rows",
        "_all",
        "_nblk",
        "_instr",
        "_runs",
        "_masks",
        "_mask_rows",
        "_mask_ids",
        "_mem",
        "_addrs",
        "_act",
        "_branch",
        "_active",
        "_taken",
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
        self._instr: List[int] = []
        self._runs: List[int] = []
        self._masks: List[np.ndarray] = []
        self._mask_rows: List[np.ndarray] = []
        self._mask_ids: Dict[int, int] = {}
        self._mem: List[int] = []
        self._addrs: List[np.ndarray] = []
        self._act: List[np.ndarray] = []
        self._branch: List[int] = []
        self._active: List[np.ndarray] = []
        self._taken: List[np.ndarray] = []

    def _take(self, arr: np.ndarray) -> np.ndarray:
        """Profiled-block rows of a full-batch lane array, ``(P, npad)``."""
        rows = arr.reshape(self._nblk, self.npad)
        return rows if self._all else rows[self._rows]

    def _warp_counts(self, rows: List[np.ndarray]) -> np.ndarray:
        """Per-warp active-lane counts of ``(P, npad)`` mask rows, releasing
        each row once reduced: ``(len(rows), P, nwarps)``."""
        P, nwarps = len(self.block_ids), self.nwarps
        out = np.empty((len(rows), P, nwarps), dtype=np.int64)
        for sl in event_chunks(len(rows), P * self.npad):
            out[sl] = warp_lane_counts(np.stack(rows[sl]))
            rows[sl] = [None] * len(rows[sl])
        return out

    # -- hooks called by the engines -------------------------------------

    def instr_run(self, codes: Tuple[int, ...], act: np.ndarray) -> None:
        """Note a run of instruction events under one mask: ``codes`` holds
        each event's ``sid`` and category code, in emission order."""
        slot = self._mask_ids.get(id(act))
        if slot is None:
            slot = len(self._masks)
            self._masks.append(act)  # keeps the mask, and so its id, alive
            self._mask_rows.append(self._take(act))
            self._mask_ids[id(act)] = slot
        self._instr += codes
        self._runs += (slot, len(codes) >> 1)

    def instr(self, sid: int, category: int, act: np.ndarray) -> None:
        self.instr_run((sid, category), act)

    def mem(
        self, sid: int, space: int, kind: int, esize: int, addrs: np.ndarray, act: np.ndarray
    ) -> None:
        self._mem += (sid, space, kind, esize)
        self._addrs.append(self._take(addrs))
        self._act.append(self._take(act))

    def branch(self, sid: int, kind: int, act: np.ndarray, taken: np.ndarray) -> None:
        self._branch += (sid, kind)
        self._active.append(self._take(act))
        self._taken.append(self._take(taken))

    def finish(self) -> EventBatch:
        """Reduce the noted masks into tables and stack every column."""
        P, nwarps, npad = len(self.block_ids), self.nwarps, self.npad
        S = len(self._masks)
        lanes = np.empty((S, P), dtype=np.int64)
        warp_mask = np.empty((S, P, nwarps), dtype=bool)
        for sl in event_chunks(S, P * npad):
            counts = warp_lane_counts(np.stack(self._mask_rows[sl]))
            lanes[sl] = counts.sum(axis=2)
            np.greater(counts, 0, out=warp_mask[sl])
        # Reduced to the tables: do not hold the masks through consume.
        self._masks.clear()
        self._mask_rows.clear()
        sid, category = _codes(self._instr, 2)
        run_slot, run_len = _codes(self._runs, 2)
        slot = np.repeat(run_slot, run_len)
        live = lanes.any(axis=1)[slot]
        if not live.all():
            sid, category, slot = (c[live] for c in (sid, category, slot))
        instr = InstrColumns(
            sid=sid,
            category=category,
            slot=slot,
            lanes=lanes,
            warp_mask=warp_mask,
            warp_counts=np.count_nonzero(warp_mask, axis=2),
        )
        msid, space, kind, esize = _codes(self._mem, 4)
        act = _stacked(self._act, (P, npad), bool)
        live = act.any(axis=(1, 2))
        if not live.all():
            msid, space, kind, esize, act = (c[live] for c in (msid, space, kind, esize, act))
            self._addrs = [self._addrs[i] for i in np.flatnonzero(live).tolist()]
        # Narrowed while stacked: exact on every active lane (see the schema).
        addrs = _stacked(self._addrs, (P, npad), np.int32)
        mem = MemColumns(sid=msid, space=space, kind=kind, elem_size=esize, addrs=addrs, act=act)
        bsid, bkind = _codes(self._branch, 2)
        active = self._warp_counts(self._active)
        taken = self._warp_counts(self._taken)
        live = active.any(axis=(1, 2))
        if not live.all():
            bsid, bkind, active, taken = (c[live] for c in (bsid, bkind, active, taken))
        branch = BranchColumns(sid=bsid, kind=bkind, active=active, taken=taken)
        return EventBatch(self.block_ids, self.nthreads, nwarps, npad, instr, mem, branch)
