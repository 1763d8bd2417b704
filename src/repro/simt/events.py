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
mask table shared by every event kind, plus one group of columns per
event kind.  Every column keeps emission order within its kind; no
consumer reads order across kinds.  Integer code columns index the tuples
:data:`CATEGORIES`, :data:`MEM_SPACES`, :data:`MEM_KINDS` and
:data:`BRANCH_KINDS`.

The mask table
    Every event names its lane masks by *slot*.  The recorder gives each
    distinct mask object one slot, whichever kind noted it: a
    straight-line run shares one mask, a run's loads and stores pass the
    run's own mask, and a branch's taken mask is the next body run's mask.
    ``batch.warp_lanes`` is ``(S, P, nwarps) uint8``, the active lanes of
    each warp under each slot's mask (at most
    :data:`~repro.simt.types.WARP_SIZE`).  ``batch.lane_rows`` is
    ``(R, P, npad) bool``, the full lane masks of the ``R`` slots memory
    events read; those slots are numbered first, so a memory event's
    ``slot`` indexes both arrays.

``batch.instr`` (:class:`InstrColumns`, ``Ei`` events)
    ``sid``, ``category``, ``slot``: ``(Ei,) int64`` per event.

``batch.mem`` (:class:`MemColumns`, ``Em`` events)
    ``sid``, ``space``, ``kind``, ``elem_size``, ``slot``: ``(Em,) int64``
    per event; ``addrs``: ``(Em, P, npad) int32`` per-lane byte addresses.
    Device buffers and a kernel's shared segment both end at or below
    :data:`~repro.simt.memory.ADDRESS_LIMIT` (``2**31``), and an access
    that faults ends its launch before its batch is delivered, so every
    active lane's address fits ``int32`` exactly.  Inactive lanes hold
    whatever their address register held, wrapped to 32 bits: consumers
    read addresses only under ``lane_rows[slot]``.

``batch.branch`` (:class:`BranchColumns`, ``Eb`` events)
    ``sid``, ``kind``, ``slot`` (the active mask), ``slot_taken`` (the
    taken mask): ``(Eb,) int64`` per event.

Every per-warp lane count comes from :func:`warp_lane_counts`, which packs
each warp's 32 lanes into one word and counts its bits, once per slot.

An event is recorded only if at least one profiled lane takes part in it:
its (active) slot's row of ``warp_lanes`` is not all zero.

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
    __slots__ = ("sid", "category", "slot")


class MemColumns(_Columns):
    __slots__ = ("sid", "space", "kind", "elem_size", "slot", "addrs")

    def events_in(self, space: MemSpace) -> np.ndarray:
        """Indices of the events in ``space``, in emission order."""
        return np.flatnonzero(self.space == SPACE_CODE[space])


class BranchColumns(_Columns):
    __slots__ = ("sid", "kind", "slot", "slot_taken")


class EventBatch:
    """One batch's recorded events over the profiled blocks: the mask table
    and the columns of each kind."""

    __slots__ = (
        "block_ids", "nthreads", "nwarps", "npad", "warp_lanes", "lane_rows",
        "instr", "mem", "branch",
    )

    def __init__(
        self,
        block_ids: Tuple[int, ...],
        nthreads: int,
        nwarps: int,
        npad: int,
        warp_lanes: np.ndarray,
        lane_rows: np.ndarray,
        instr: InstrColumns,
        mem: MemColumns,
        branch: BranchColumns,
    ) -> None:
        self.block_ids = block_ids
        self.nthreads = nthreads
        self.nwarps = nwarps
        self.npad = npad
        self.warp_lanes = warp_lanes
        self.lane_rows = lane_rows
        self.instr = instr
        self.mem = mem
        self.branch = branch

    def __len__(self) -> int:
        return len(self.block_ids)

    def event_counts(self) -> Dict[str, int]:
        return {"instr": len(self.instr), "mem": len(self.mem), "branch": len(self.branch)}

    def buffer_bytes(self) -> int:
        """Total bytes held by the batch's numpy buffers, each counted once."""
        return (
            self.warp_lanes.nbytes + self.lane_rows.nbytes
            + self.instr.nbytes + self.mem.nbytes + self.branch.nbytes
        )


def _codes(values: List[int], width: int) -> np.ndarray:
    """A flat per-event code list as ``(width, E)`` contiguous rows."""
    return np.ascontiguousarray(np.array(values, dtype=np.int64).reshape(-1, width).T)


def _kept(keep: np.ndarray, *columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The columns' entries where ``keep`` is set."""
    return columns if keep.all() else tuple(c[keep] for c in columns)


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
    events with one :meth:`instr_run` call, the interpreter each event as a
    run of one.  Neither engine changes an array in place once it is
    noted: every mask update and every register write allocates.  So every
    event stores one slot per distinct mask object, memory events keep
    views of their address registers, and :meth:`finish` reduces the masks
    into the table and stacks the addresses in bulk.
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
        "_branch",
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
        self._branch: List[int] = []

    def _take(self, arr: np.ndarray) -> np.ndarray:
        """Profiled-block rows of a full-batch lane array, ``(P, npad)``."""
        rows = arr.reshape(self._nblk, self.npad)
        return rows if self._all else rows[self._rows]

    def _slot(self, act: np.ndarray) -> int:
        """The mask object's slot, given on first sight."""
        slot = self._mask_ids.get(id(act))
        if slot is None:
            slot = self._mask_ids[id(act)] = len(self._masks)
            self._masks.append(act)  # keeps the mask, and so its id, alive
            self._mask_rows.append(self._take(act))
        return slot

    # -- hooks called by the engines -------------------------------------

    def instr_run(self, codes: Tuple[int, ...], act: np.ndarray) -> None:
        """Note a run of instruction events under one mask: ``codes`` holds
        each event's ``sid`` and category code, in emission order."""
        self._instr += codes
        self._runs += (self._slot(act), len(codes) >> 1)

    def mem(
        self, sid: int, space: int, kind: int, esize: int, addrs: np.ndarray, act: np.ndarray
    ) -> None:
        self._mem += (sid, space, kind, esize, self._slot(act))
        self._addrs.append(self._take(addrs))

    def branch(self, sid: int, kind: int, act: np.ndarray, taken: np.ndarray) -> None:
        self._branch += (sid, kind, self._slot(act), self._slot(taken))

    def finish(self) -> EventBatch:
        """Reduce the noted masks into the table and stack every column."""
        P, nwarps, npad = len(self.block_ids), self.nwarps, self.npad
        sid, category = _codes(self._instr, 2)
        run_slot, run_len = _codes(self._runs, 2)
        msid, space, kind, esize, mslot = _codes(self._mem, 5)
        bsid, bkind, bslot, btaken = _codes(self._branch, 4)
        # Renumber the slots so that the ones memory events read come first:
        # only those keep their lane rows.
        S = len(self._masks)
        read = np.zeros(S, dtype=bool)
        read[mslot] = True
        order = np.concatenate((np.flatnonzero(read), np.flatnonzero(~read)))
        renumber = np.empty(S, dtype=np.int64)
        renumber[order] = np.arange(S)
        warp_lanes = np.empty((S, P, nwarps), dtype=np.uint8)
        lane_rows = np.empty((int(read.sum()), P, npad), dtype=bool)
        for sl in event_chunks(S, P * npad):
            chunk = np.stack([self._mask_rows[i] for i in order[sl].tolist()])
            warp_lanes[sl] = warp_lane_counts(chunk)
            kept = lane_rows[sl]  # empty past the slots memory events read
            kept[...] = chunk[: len(kept)]
        # Reduced to the table: do not hold the masks through consume.
        self._masks.clear()
        self._mask_rows.clear()
        self._mask_ids.clear()
        # Drop the events no profiled lane takes part in: their slot's
        # counts are all zero.
        live = warp_lanes.any(axis=(1, 2))
        slot = renumber[np.repeat(run_slot, run_len)]
        sid, category, slot = _kept(live[slot], sid, category, slot)
        instr = InstrColumns(sid=sid, category=category, slot=slot)
        mslot = renumber[mslot]
        keep = live[mslot]
        msid, space, kind, esize, mslot = _kept(keep, msid, space, kind, esize, mslot)
        self._addrs = [self._addrs[i] for i in np.flatnonzero(keep).tolist()]
        # Narrowed while stacked: exact on every active lane (see the schema).
        addrs = _stacked(self._addrs, (P, npad), np.int32)
        mem = MemColumns(sid=msid, space=space, kind=kind, elem_size=esize, slot=mslot, addrs=addrs)
        bslot, btaken = renumber[bslot], renumber[btaken]
        bsid, bkind, bslot, btaken = _kept(live[bslot], bsid, bkind, bslot, btaken)
        branch = BranchColumns(sid=bsid, kind=bkind, slot=bslot, slot_taken=btaken)
        return EventBatch(
            self.block_ids, self.nthreads, nwarps, npad, warp_lanes, lane_rows, instr, mem, branch
        )
