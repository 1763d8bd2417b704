"""Synthetic event batches for pass tests, recorded as the engines would.

An event list holds full-width events in emission order, each a tuple of
numpy rows over ``P`` blocks:

* ``("instr", sid, category, act)``: ``act`` is ``(P, npad) bool``; events
  sharing one ``act`` object share one mask slot, like a straight-line run;
* ``("mem", sid, space, kind, elem_size, addrs, act)``: ``(P, npad)`` rows;
* ``("branch", sid, kind, act, taken)``: ``(P, npad) bool`` lane masks.

:func:`record` replays the events of a contiguous block range through an
:class:`~repro.simt.events.EventRecorder`, which drops the events no block
of the range takes part in, exactly as an engine batch of those blocks.
Active addresses must lie in the 31-bit address space, as every valid
device and shared address does; the recorder stores them as ``int32``.
"""

import numpy as np

from repro.simt.events import (
    BRANCH_KIND_CODE,
    CATEGORY_CODE,
    MEM_KIND_CODE,
    SPACE_CODE,
    EventBatch,
    EventRecorder,
)
from repro.simt.memory import ADDRESS_LIMIT
from repro.simt.types import WARP_SIZE


def record(events, nblocks: int, npad: int, blocks: slice = slice(None)) -> EventBatch:
    ids = range(nblocks)[blocks]
    P = len(ids)
    rec = EventRecorder(ids, range(P), P, npad, npad // WARP_SIZE, npad)
    masks = {}

    def flat(rows):
        # One flat mask per original row object, so shared masks stay shared.
        out = masks.get(id(rows))
        if out is None:
            out = masks[id(rows)] = np.ascontiguousarray(rows[blocks]).reshape(-1)
        return out

    for ev in events:
        if ev[0] == "instr":
            _, sid, category, act = ev
            rec.instr_run((sid, CATEGORY_CODE[category]), flat(act))
        elif ev[0] == "mem":
            _, sid, space, kind, esize, addrs, act = ev
            live = np.asarray(addrs)[blocks][np.asarray(act)[blocks]]
            assert ((live >= 0) & (live < ADDRESS_LIMIT)).all(), "address outside 31 bits"
            rec.mem(sid, SPACE_CODE[space], MEM_KIND_CODE[kind], esize, flat(addrs), flat(act))
        else:
            _, sid, kind, act, taken = ev
            rec.branch(sid, BRANCH_KIND_CODE[kind], flat(act), flat(taken))
    batch = rec.finish()
    assert batch.mem.addrs.dtype == np.int32
    return batch
