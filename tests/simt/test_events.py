"""The recorder's one mask table: every event kind names its masks by slot,
and one mask object is one slot whichever kind noted it."""

import numpy as np
import pytest

from repro.simt import Device, DType, Executor, KernelBuilder
from repro.simt.executor import ENGINES
from repro.simt.sink import TraceSink


class _Batches(TraceSink):
    def __init__(self):
        self.batches = []

    def on_batch(self, batch):
        self.batches.append(batch)


def _record(kernel, grid, block, bufs, dev, engine):
    sink = _Batches()
    Executor(dev, sinks=[sink], engine=engine).launch(kernel, grid, block, bufs)
    return sink.batches


def _copy_plus_one(dev):
    b = KernelBuilder("copy_plus_one")
    src, dst = b.param_buf("src", DType.I32), b.param_buf("dst", DType.I32)
    i = b.global_thread_id()
    b.st(dst, i, b.iadd(b.ld(src, i), 1))
    bufs = {
        "src": dev.from_array("src", np.arange(128), DType.I32),
        "dst": dev.alloc("dst", 128, DType.I32),
    }
    return b.finalize(), bufs


@pytest.mark.parametrize("engine", ENGINES)
def test_straight_line_run_shares_one_slot_and_one_kept_row(engine):
    dev = Device()
    kernel, bufs = _copy_plus_one(dev)
    batches = _record(kernel, 2, 64, bufs, dev, engine)
    assert np.array_equal(dev.download(bufs["dst"]), np.arange(1, 129))
    for batch in batches:
        ins, mem = batch.instr, batch.mem
        assert len(mem) == 2 and len(ins) > len(mem)
        # One mask for the whole run: the load, the store and every
        # instruction event name the same slot, which keeps one lane row.
        assert set(ins.slot.tolist()) == set(mem.slot.tolist()) == {0}
        assert batch.warp_lanes.shape[0] == 1
        assert batch.lane_rows.shape == (1, len(batch), batch.npad)


@pytest.mark.parametrize("engine", ENGINES)
def test_loop_taken_mask_is_the_next_body_runs_slot(engine):
    # Lanes leave the loop at different trip counts, so the taken masks
    # narrow from one iteration to the next.
    dev = Device()
    b = KernelBuilder("trips")
    out = b.param_buf("out", DType.I32)
    tid = b.tid_x
    acc = b.let_i32(0)
    j = b.let_i32(0)
    loop = b.while_loop()
    with loop.cond():
        loop.set_cond(b.ilt(j, b.imod(tid, 5)))
    with loop.body():
        b.assign(acc, b.iadd(acc, j))
        b.assign(j, b.iadd(j, 1))
    b.st(out, b.global_thread_id(), acc)
    bufs = {"out": dev.alloc("out", 128, DType.I32)}
    batches = _record(b.finalize(), 2, 64, bufs, dev, engine)
    t = np.arange(64) % 5
    assert np.array_equal(dev.download(bufs["out"]), np.tile(t * (t - 1) // 2, 2))
    shared = 0
    for batch in batches:
        br = batch.branch
        taken = br.slot_taken[batch.warp_lanes[br.slot_taken].any(axis=(1, 2))]
        assert taken.size
        assert set(taken.tolist()) <= set(batch.instr.slot.tolist())
        shared += taken.size
    assert shared == 4 * len(batches)  # trip counts 1..4


def test_buffer_bytes_count_the_table_and_kept_rows_once():
    dev = Device()
    kernel, bufs = _copy_plus_one(dev)
    (batch,) = _record(kernel, 2, 64, bufs, dev, "compiled")
    columns = [
        getattr(kind, name)
        for kind in (batch.instr, batch.mem, batch.branch)
        for name in kind.__slots__
    ]
    # Two memory events read one kept row: P * npad bools, not two of them.
    assert batch.lane_rows.nbytes == len(batch) * batch.npad
    assert batch.warp_lanes.nbytes == len(batch) * batch.nwarps
    assert batch.buffer_bytes() == (
        batch.warp_lanes.nbytes + batch.lane_rows.nbytes + sum(c.nbytes for c in columns)
    )
