"""Delivery of observed batches: the compiled engine hands its sinks one
batch per run of observed lockstep batches that recorded the same code
lists, never past the planner's lane-budget cap, with the sections the
interpreter's one-block batches give."""

import numpy as np
import pytest

from repro.simt import Device, DType, Executor, KernelBuilder, compiled, stride_sampler
from repro.simt.executor import profile_all_blocks
from repro.simt.sink import TraceSink
from repro.trace.collector import KernelTraceCollector
from repro.trace.profile import WorkloadProfile
from repro.trace.serialize import workload_to_dict


class _Log(TraceSink):
    """Logs each delivered batch's block ids into a shared event log."""

    def __init__(self, log):
        self.log = log

    def on_batch(self, batch):
        self.log.append(("deliver", batch.block_ids))


@pytest.fixture
def run_log(monkeypatch):
    """The log each observed body run appends its profiled blocks to, as
    it starts."""
    log = []
    original = compiled.CompiledKernel.observed_runner

    def observed_runner(self, hooks):
        run = original(self, hooks)

        def logged(st, act):
            log.append(("run", st.recorder.block_ids))
            return run(st, act)

        return logged

    monkeypatch.setattr(compiled.CompiledKernel, "observed_runner", observed_runner)
    return log


def _launch(kernel, grid, block, engine, pf, log=None, batch_blocks=None):
    """Device memory and profile sections of one launch on fresh buffers."""
    n = grid * block
    dev = Device()
    bufs = {
        "src": dev.from_array("src", np.arange(n) % 7 - 3, DType.I32),
        "o": dev.alloc("o", n, DType.I32),
    }
    collector = KernelTraceCollector()
    sinks = [collector] + ([_Log(log)] if log is not None else [])
    ex = Executor(dev, sinks=sinks, profile_filter=pf, engine=engine, batch_blocks=batch_blocks)
    ex.launch(kernel, grid, block, bufs)
    profile = WorkloadProfile(workload="T", suite="T", kernels=collector.profiles)
    return dev.download(bufs["o"]).tobytes(), workload_to_dict(profile), ex.last_launch_stats


def _assert_interpreter_agrees(kernel, grid, block, pf, compiled_run):
    mem, sections, _ = _launch(kernel, grid, block, "interpreted", pf)
    assert compiled_run[0] == mem
    assert compiled_run[1] == sections


def _uniform_kernel():
    b = KernelBuilder("uniform")
    src, o = b.param_buf("src", DType.I32), b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.imul(b.ld(src, i), 3), b.tid_x))
    return b.finalize()


def _delivered(log):
    return [ids for what, ids in log if what == "deliver"]


def test_uniform_sampled_launch_delivers_fewer_batches_than_it_observes(run_log):
    # 1024-thread blocks: the lane-budget cap is 8 profiled blocks.
    kernel, grid, block = _uniform_kernel(), 48, 1024
    cap = compiled.lane_budget_cap(block)
    assert cap == 8
    pf = stride_sampler(24)
    out = _launch(kernel, grid, block, "compiled", pf, run_log, batch_blocks=2)
    runs = [ids for what, ids in run_log if what == "run"]
    delivered = _delivered(run_log)
    assert len(runs) == 24
    assert len(delivered) < len(runs)
    assert [len(ids) for ids in delivered] == [cap] * 3
    flat = [b for ids in delivered for b in ids]
    assert flat == sorted(flat) == [b for ids in runs for b in ids]
    stats = out[2]
    assert stats["observed_batches"] == len(delivered)
    assert stats["profiled_blocks"] == 24
    _assert_interpreter_agrees(kernel, grid, block, pf, out)


def _path_kernel():
    # Blocks 0-3 and 6-7 take the then list, blocks 4-5 the else list.
    b = KernelBuilder("paths")
    src, o = b.param_buf("src", DType.I32), b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    c = b.ctaid_x
    ife = b.if_else(b.por(b.ilt(c, 4), b.igt(c, 5)))
    with ife.then():
        b.st(o, i, b.ld(src, i))
    with ife.otherwise():
        b.st(o, i, b.iadd(b.ld(src, b.isub(i, 1)), 1))
    return b.finalize()


def test_sampled_blocks_that_take_different_paths_are_never_joined(run_log):
    kernel, grid, block = _path_kernel(), 8, 64
    pf = stride_sampler(4)  # blocks 0, 2, 4 and 6
    out = _launch(kernel, grid, block, "compiled", pf, run_log, batch_blocks=1)
    # Block 6 takes block 0's path again, but block 4 lies between.
    assert _delivered(run_log) == [(0, 2), (4,), (6,)]
    _assert_interpreter_agrees(kernel, grid, block, pf, out)


def test_batches_at_the_cap_are_delivered_before_the_next_observed_body(run_log):
    kernel, grid, block = _uniform_kernel(), 24, 1024
    out = _launch(kernel, grid, block, "compiled", profile_all_blocks, run_log)
    batches = [tuple(range(k, k + 8)) for k in (0, 8, 16)]
    assert run_log == [(what, ids) for ids in batches for what in ("run", "deliver")]
    _assert_interpreter_agrees(kernel, grid, block, profile_all_blocks, out)


class _Keep(TraceSink):
    def __init__(self):
        self.batches = []

    def on_batch(self, batch):
        self.batches.append(batch)


def test_a_memory_event_no_profiled_lane_takes_keeps_no_lane_row():
    # Blocks 0 and 1 share a batch; only block 0 is profiled, and only
    # block 1 runs the guarded load and store.
    b = KernelBuilder("guarded")
    src, o = b.param_buf("src", DType.I32), b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, i)
    with b.if_(b.ieq(b.ctaid_x, 1)):
        b.st(o, i, b.ld(src, i))
    dev = Device()
    bufs = {
        "src": dev.from_array("src", np.arange(64), DType.I32),
        "o": dev.alloc("o", 64, DType.I32),
    }
    sink = _Keep()
    Executor(dev, sinks=[sink], profile_filter=lambda blk, n: blk == 0).launch(
        b.finalize(), 2, 32, bufs
    )
    assert dev.download(bufs["o"]).tolist() == list(range(64))
    (batch,) = sink.batches
    assert batch.block_ids == (0,)
    # Only the unguarded store is recorded, and only its slot keeps a row.
    assert batch.mem.sid.size == 1
    assert batch.lane_rows.shape[0] == np.unique(batch.mem.slot).size == 1
    assert batch.lane_rows[batch.mem.slot].all()
