"""Windowed ILP pass: analytic cases, invariants, and the naive tracker oracle.

The analytic cases feed synthetic ``(dest, srcs)`` streams through the
pass's ``consume``/``end_kernel``, sid ``i`` standing for ``stream[i]``;
``_contribution`` is pinned to the naive tracker in ``ilp_reference.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import Device, Executor, KernelBuilder
from repro.simt.ir import OpCategory
from repro.trace import ILP_WINDOWS, CollectorConfig, KernelTraceCollector
from repro.trace.passes.ilp import IlpPass
from repro.trace.serialize import kernel_section_bytes
from tests.trace.batches import record
from tests.trace.ilp_reference import tracker_contribution


def _kernel():
    b = KernelBuilder("ilp")
    b.iadd(b.tid_x, 1)
    return b.finalize()


def _pass(stream, windows):
    """A begun pass whose sid ``i`` has the register dependences ``stream[i]``."""
    ilp = IlpPass(CollectorConfig(ilp_windows=windows))
    ilp.begin_kernel(_kernel(), None)
    ilp._deps = dict(enumerate(stream))
    ilp._feeds = np.ones(len(stream), dtype=bool)
    return ilp


def _pass_ilp(stream, windows=ILP_WINDOWS, blocks=1):
    """The ``ilp`` section for ``blocks`` blocks that each run ``stream``."""
    ilp = _pass(stream, windows)
    if stream:
        act = np.ones((blocks, 32), dtype=bool)
        events = [("instr", sid, OpCategory.INT, act) for sid in range(len(stream))]
        ilp.consume(record(events, blocks, 32))
    profile = SimpleNamespace()
    ilp.end_kernel(profile)
    return profile.ilp


def test_fully_independent_stream():
    assert _pass_ilp([(f"r{i}", ()) for i in range(8)], (8,)) == {8: 8.0}


def test_fully_serial_chain():
    stream = [("r0", ())] + [(f"r{i}", (f"r{i-1}",)) for i in range(1, 8)]
    assert _pass_ilp(stream, (8,)) == {8: 1.0}


def test_two_independent_chains():
    stream = []
    for i in range(4):
        stream.append(("a", ("a",) if i else ()))
        stream.append(("b", ("b",) if i else ()))
    assert _pass_ilp(stream, (8,)) == {8: 2.0}


def test_partial_window_via_flush():
    # The block's end closes its partial last window.
    assert _pass_ilp([("a", ()), ("b", ())], (100,)) == {100: 2.0}


def test_window_reset_clears_dependences():
    # Window 1: a <- (), b <- a : cp 2, ilp 1.
    # Window 2: c <- b crosses the window boundary, so the dep is dropped.
    stream = [("a", ()), ("b", ("a",)), ("c", ("b",)), ("d", ())]
    assert _pass_ilp(stream, (2,)) == {2: (2 / 2 + 2 / 1) / 2}


def test_empty_stream_reports_serial_floor():
    assert _pass_ilp([]) == {w: 1.0 for w in ILP_WINDOWS}


def test_invalid_window_rejected():
    for windows in [(0,), (32, -1)]:
        with pytest.raises(ValueError, match="ILP window must be positive"):
            CollectorConfig(ilp_windows=windows)


def test_bank_runs_all_windows():
    stream = [(f"r{i}", (f"r{i-1}",) if i else ()) for i in range(300)]
    results = _pass_ilp(stream, blocks=3)
    assert list(results) == [32, 64, 128, 256]
    assert all(v == 1.0 for v in results.values())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.lists(st.integers(0, 5), max_size=3)),
        min_size=1,
        max_size=100,
    ),
    st.sampled_from([4, 16, 64]),
)
def test_ilp_bounds(stream, window):
    """1 <= ILP <= window, always."""
    deps = [(f"r{dest}", tuple(f"r{s}" for s in srcs)) for dest, srcs in stream]
    assert 1.0 <= _pass_ilp(deps, (window,))[window] <= window


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200))
def test_independent_stream_window_average(n):
    q, r = divmod(n, 32)
    expected = (32.0 * q + r) / (q + (1 if r else 0))
    got = _pass_ilp([(f"r{i}", ()) for i in range(n)], (32,))[32]
    assert got == pytest.approx(expected)


def _random_table(rng, nsids=40, nregs=6):
    """Static ``(dest, srcs)`` per sid over a few registers, so dests repeat;
    the last quarter of the sids write nothing (stores, branches)."""
    regs = [f"r{i}" for i in range(nregs)]
    table = []
    for sid in range(nsids):
        dest = regs[rng.integers(nregs)] if sid < 3 * nsids // 4 else None
        srcs = tuple(regs[i] for i in rng.integers(0, nregs, rng.integers(0, 4)))
        table.append((dest, srcs))
    return table


def test_contribution_matches_naive_tracker():
    rng = np.random.default_rng(2024)
    table = _random_table(rng)
    ilp = _pass(table, ILP_WINDOWS)
    no_dest = np.flatnonzero([dest is None for dest, _ in table])
    loop = rng.integers(0, len(table), 45)
    streams = [rng.integers(0, len(table), n) for n in (1, 5, 31, 32, 33, 257, 700)]
    quiet = rng.choice(no_dest, 70)  # windows with no producer at all
    streams += [quiet, np.concatenate([quiet[:64], streams[-1]])]
    streams += [np.tile(loop, reps) for reps in (1, 6, 13)]  # repeated windows
    assert any(s.size < 32 for s in streams)
    assert any(s.size % w for s in streams for w in ILP_WINDOWS)  # partial last windows
    for stream in streams:
        deps = [table[sid] for sid in stream.tolist()]
        assert ilp._contribution(stream) == tracker_contribution(deps, ILP_WINDOWS)


def _looping_kernel():
    """Each block runs ``trips + blockIdx.x`` iterations of a short chain."""
    b = KernelBuilder("ilp_loop")
    out = b.param_buf("out")
    trips = b.param_i32("trips")
    acc = b.let_f32(1.0)
    with b.for_range(0, b.iadd(trips, b.ctaid_x)):
        b.assign(acc, b.fadd(b.fmul(acc, 0.5), 1.0))
    b.st(out, b.global_thread_id(), acc)
    return b.finalize()


def _launch_ilp(kernel, trips, windows):
    dev = Device()
    out = dev.alloc("out", 4 * 64)
    collector = KernelTraceCollector(config=CollectorConfig(ilp_windows=windows))
    Executor(dev, sinks=[collector]).launch(kernel, 4, 64, {"out": out, "trips": trips})
    return kernel_section_bytes(collector.profiles[0], "ilp")


@pytest.mark.parametrize("windows", [ILP_WINDOWS, (8, 24)])
def test_launches_of_one_kernel_match_fresh_passes(windows):
    # The second launch replays some of the first launch's streams and
    # windows from the kernel's tables, and adds new ones.
    kernel = _looping_kernel()
    shared = [_launch_ilp(kernel, trips, windows) for trips in (3, 5)]
    tables = kernel._ilp_tables
    assert tables.contribs[tuple(windows)] and tables.windows
    fresh = [_launch_ilp(_looping_kernel(), trips, windows) for trips in (3, 5)]
    assert shared == fresh
    # Another window tuple keeps its own stream contributions.
    other = (16,) if tuple(windows) != (16,) else (32,)
    assert _launch_ilp(kernel, 3, other) == _launch_ilp(_looping_kernel(), 3, other)
    assert set(tables.contribs) == {tuple(windows), other}
