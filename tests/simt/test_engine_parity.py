"""Engine parity: the compiled/batched engine vs the reference interpreter.

The compiled engine's contract is *bit-for-bit* equivalence: for every
workload, both engines must leave identical bytes in every device buffer
and emit identical serialized profiles.  Sampling is enabled so the
compiled engine actually exercises block batching (silent blocks stack into
wide multi-block launches) alongside observed single-block runs.  Profiles
are also checked against ``tests/fixtures/section_digests.json``, frozen
from the interpreted engine, so agreement between the engines cannot hide
a change both of them made.
"""

import numpy as np
import pytest

from repro.simt import Device, DType, ExecutionError, Executor, KernelBuilder, TraceSink
from repro.simt.executor import profile_all_blocks, stride_sampler
from repro.trace.collector import KernelTraceCollector
from repro.trace.profile import WorkloadProfile
from repro.trace.serialize import section_digests, workload_to_dict
from repro.workloads import registry
from repro.workloads.base import RunContext
from tests.conftest import DIGEST_REGEN_HINT, load_section_digests

DIGESTS = load_section_digests()

#: Small sample cap: observed blocks stay cheap while leaving plenty of
#: silent blocks for the compiled engine to batch.
SAMPLE_BLOCKS = 8


def _run_engine(cls, engine):
    device = Device()
    collector = KernelTraceCollector()
    executor = Executor(
        device,
        sinks=[collector],
        profile_filter=stride_sampler(SAMPLE_BLOCKS),
        engine=engine,
    )
    ctx = RunContext(device, executor, seed=1234)
    wl = cls()
    wl.run(ctx)
    buffers = {b.name: device.download(b) for b in device.buffers}
    profile = WorkloadProfile(workload=wl.abbrev, suite=wl.suite, kernels=collector.profiles)
    return buffers, profile, executor


@pytest.mark.parametrize("abbrev", registry.abbrevs())
def test_workload_parity(abbrev):
    cls = registry.get(abbrev)
    ibufs, iprof, iex = _run_engine(cls, "interpreted")
    cbufs, cprof, cex = _run_engine(cls, "compiled")
    # One launch record for both engines: same fields, same profiled blocks,
    # and the interpreter counts each profiled block as one observed batch.
    assert set(iex.last_launch_stats) == set(cex.last_launch_stats)
    itotals, ctotals = iex.launch_stats_totals, cex.launch_stats_totals
    assert itotals["profiled_blocks"] == ctotals["profiled_blocks"]
    assert itotals["observed_batches"] == itotals["profiled_blocks"]
    assert sorted(ibufs) == sorted(cbufs)
    for name, iarr in ibufs.items():
        carr = cbufs[name]
        assert iarr.dtype == carr.dtype, f"buffer {name!r} dtype differs"
        # tobytes() is an exact bitwise comparison (NaNs included).
        assert iarr.tobytes() == carr.tobytes(), f"buffer {name!r} differs"
    assert workload_to_dict(iprof) == workload_to_dict(cprof)
    assert section_digests(iprof) == DIGESTS["workloads"][abbrev], DIGEST_REGEN_HINT


def test_interpreted_launch_record_counts_delivered_batches():
    _, _, ex = _run_engine(registry.get("VA"), "interpreted")
    totals = ex.launch_stats_totals
    assert totals["observed_batches"] == totals["profiled_blocks"] == SAMPLE_BLOCKS
    assert all(n > 0 for n in totals["event_counts"].values())
    assert totals["event_bytes"] > 0


# ---------------------------------------------------------------------------
# batch_blocks edge sweep on a small workload basket

#: Tiny scales: fast enough to sweep, large enough for multi-block grids.
SWEEP_BASKET = (
    ("VA", {"n": 1 << 12}),
    ("BS", {"n": 1 << 10}),
    ("NN", {"n": 1 << 10}),
)

#: Forced batch widths: no batching at all, an odd prime (so batches
#: misalign with every power-of-two grid), and far beyond any grid size
#: (the whole silent tail lands in one batch).
SWEEP_BATCH_BLOCKS = (1, 7, 1 << 20)


def _run_scaled(abbrev, scale, engine, batch_blocks=None, sample_blocks=SAMPLE_BLOCKS):
    from repro.workloads.runner import run_workload

    return run_workload(
        registry.get(abbrev)(**scale),
        verify=False,
        sample_blocks=sample_blocks,
        engine=engine,
        batch_blocks=batch_blocks,
    )


@pytest.mark.parametrize("abbrev,scale", SWEEP_BASKET, ids=[a for a, _ in SWEEP_BASKET])
def test_batch_blocks_edge_sweep(abbrev, scale):
    # Every forced batch width must reproduce the interpreter's profile
    # bit-for-bit (memory parity over the full registry is covered by
    # test_workload_parity; profiles pin the observe path per batch shape).
    baseline = workload_to_dict(_run_scaled(abbrev, scale, "interpreted"))
    for bb in SWEEP_BATCH_BLOCKS:
        swept = workload_to_dict(_run_scaled(abbrev, scale, "compiled", batch_blocks=bb))
        assert swept == baseline, f"profile diverged at batch_blocks={bb}"


@pytest.mark.parametrize("abbrev,scale", SWEEP_BASKET, ids=[a for a, _ in SWEEP_BASKET])
def test_all_blocks_profiled_matches_frozen_digests(abbrev, scale):
    # With every block profiled, observed batches are as wide as the plan
    # allows; each engine and batch width must still reproduce the frozen
    # interpreted sections.
    frozen = DIGESTS["sweep_all_blocks"][abbrev]
    assert frozen["scale"] == scale, DIGEST_REGEN_HINT
    runs = [("interpreted", None)] + [("compiled", bb) for bb in SWEEP_BATCH_BLOCKS]
    for engine, bb in runs:
        profile = _run_scaled(abbrev, scale, engine, batch_blocks=bb, sample_blocks=None)
        assert section_digests(profile) == frozen["digests"], (
            f"{engine} batch_blocks={bb}: {DIGEST_REGEN_HINT}"
        )


# ---------------------------------------------------------------------------
# Batching semantics on hand-built kernels


def _run_both(build, grid, block, nbufs, counts, dtypes=None):
    """Run a built kernel under both engines (no sinks: everything batches).

    ``build`` receives a KernelBuilder plus the buffer params it declares;
    returns per-engine downloaded buffers.
    """
    outs = {}
    for engine in ("interpreted", "compiled"):
        b = KernelBuilder("k")
        bufs = [
            b.param_buf(f"o{i}", (dtypes or [DType.I32] * nbufs)[i]) for i in range(nbufs)
        ]
        build(b, *bufs)
        dev = Device()
        dbufs = {
            f"o{i}": dev.alloc(f"o{i}", counts[i], (dtypes or [DType.I32] * nbufs)[i])
            for i in range(nbufs)
        }
        Executor(dev, engine=engine).launch(b.finalize(), grid, block, dbufs)
        outs[engine] = {n: dev.download(d) for n, d in dbufs.items()}
    return outs


def test_batched_barrier_with_per_block_trip_counts():
    # The lavaMD shape: a barrier inside a loop whose trip count depends on
    # ctaid, so batched blocks reach the barrier on different iterations.
    # Per-block barrier semantics must allow that (each block only waits on
    # its own lanes) while producing identical results to the interpreter.
    def build(b, o):
        s = b.shared("s", 32, DType.I32)
        tid = b.tid_x
        acc = b.let_i32(0)
        j = b.let_i32(0)
        trips = b.iadd(b.ctaid_x, 1)
        loop = b.while_loop()
        with loop.cond():
            loop.set_cond(b.ilt(j, trips))
        with loop.body():
            b.sst(s, tid, b.iadd(b.imul(tid, 10), j))
            b.barrier()
            b.assign(acc, b.iadd(acc, b.sld(s, b.imod(b.iadd(tid, 1), 32))))
            b.barrier()
            b.assign(j, b.iadd(j, 1))
        b.st(o, b.global_thread_id(), acc)

    outs = _run_both(build, 6, 32, 1, [6 * 32])
    assert np.array_equal(outs["interpreted"]["o0"], outs["compiled"]["o0"])


def test_batched_early_return_per_block():
    # Data-dependent early return: each block retires a different lane
    # subset, so the batch's live mask is ragged across blocks.
    def build(b, o):
        i = b.global_thread_id()
        b.st(o, i, -1)
        b.ret_if(b.ige(b.tid_x, b.imul(b.iadd(b.ctaid_x, 1), 8)))
        b.st(o, i, b.tid_x)

    outs = _run_both(build, 4, 64, 1, [4 * 64])
    assert np.array_equal(outs["interpreted"]["o0"], outs["compiled"]["o0"])
    expected = np.concatenate(
        [np.where(np.arange(64) < (c + 1) * 8, np.arange(64), -1) for c in range(4)]
    )
    assert np.array_equal(outs["compiled"]["o0"], expected)


def test_loop_with_early_return_profiles_match():
    # Lanes retire inside a loop body on different iterations, so each
    # iteration's taken mask loses lanes after it is recorded: a recorded
    # mask must never change afterwards, in either engine.
    def run(engine):
        b = KernelBuilder("loopret")
        o = b.param_buf("o", DType.I32)
        i = b.let_i32(0)
        loop = b.while_loop()
        with loop.cond():
            loop.set_cond(b.ilt(i, 6))
        with loop.body():
            b.ret_if(b.ieq(b.imod(b.tid_x, 7), i))
            b.assign(i, b.iadd(i, 1))
        b.st(o, b.global_thread_id(), i)
        dev = Device()
        collector = KernelTraceCollector()
        Executor(dev, sinks=[collector], profile_filter=profile_all_blocks, engine=engine).launch(
            b.finalize(), 4, 64, {"o": dev.alloc("o", 4 * 64, DType.I32)}
        )
        return section_digests(WorkloadProfile("loopret", "test", collector.profiles))

    assert run("interpreted") == run("compiled")


def test_divergent_barrier_still_detected_under_batching():
    def build(b, o):
        with b.if_(b.ilt(b.tid_x, 16)):
            b.barrier()
        b.st(o, b.global_thread_id(), 1)

    for engine in ("interpreted", "compiled"):
        b = KernelBuilder("k")
        o = b.param_buf("o", DType.I32)
        build(b, o)
        dev = Device()
        obuf = dev.alloc("o", 128, DType.I32)
        with pytest.raises(ExecutionError, match="divergent barrier"):
            Executor(dev, engine=engine).launch(b.finalize(), 4, 32, {"o": obuf})


def _store_only_kernel():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.st(o, b.global_thread_id(), b.ctaid_x)
    return b.finalize()


def test_columnar_mode_batches_profiled_blocks():
    # The compiled engine batches profiled blocks alongside silent ones and
    # delivers events per batch.
    k = _store_only_kernel()
    dev = Device()
    obuf = dev.alloc("o", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(k, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["engine"] == "compiled"
    assert stats["profiled_blocks"] == 2
    assert stats["batched_blocks"] == stats["blocks"] == 8
    assert stats["largest_batch"] > 1
    assert stats["observed_batches"] >= 1
    assert stats["event_counts"]["instr"] > 0
    assert stats["event_bytes"] > 0

    # With every block profiled, every batch is an observed batch.
    dev = Device()
    obuf = dev.alloc("o", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=profile_all_blocks,
        engine="compiled",
    )
    ex.launch(k, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["profiled_blocks"] == 8
    assert stats["observed_batches"] == stats["batches"]
    assert stats["largest_batch"] > 1


class _BatchLog(TraceSink):
    """A sink implementing only ``on_batch``: it logs every batch."""

    def __init__(self):
        self.batches = []

    def on_batch(self, batch):
        self.batches.append(batch)


def test_on_batch_only_sink_receives_every_profiled_block():
    # The interpreter hands a sink one single-block batch per profiled
    # block, in visit order (a permuted block_order included); the compiled
    # engine hands it batches whose ascending block_ids together cover
    # exactly the profiled blocks.
    k = _store_only_kernel()
    pf = stride_sampler(4)
    profiled = [b for b in range(16) if pf(b, 16)]
    reverse = list(range(15, -1, -1))

    def launch(engine, block_order=None):
        sink = _BatchLog()
        dev = Device()
        obuf = dev.alloc("o", 16 * 32, DType.I32)
        ex = Executor(
            dev, sinks=[sink], profile_filter=pf, engine=engine, block_order=block_order
        )
        ex.launch(k, 16, 32, {"o": obuf})
        assert all(sum(batch.event_counts().values()) for batch in sink.batches)
        return [batch.block_ids for batch in sink.batches]

    assert launch("interpreted") == [(b,) for b in profiled]
    assert launch("interpreted", reverse) == [(b,) for b in reverse if b in profiled]
    batches = launch("compiled")
    assert all(list(ids) == sorted(ids) for ids in batches)
    assert [b for ids in batches for b in ids] == profiled
    assert max(len(ids) for ids in batches) > 1


def test_load_store_overlap_planning_tiers():
    # A per-lane RMW (``o[gid] += 1``) is hazard-flagged by the buffer
    # dataflow, but the footprint analysis proves every block touches a
    # private address range: the launch batches at full width and device
    # memory stays bit-identical to the interpreter.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, i), 1))
    k = b.finalize()

    init = np.arange(8 * 32, dtype=np.int32)
    results = {}
    for engine in ("interpreted", "compiled"):
        dev = Device()
        obuf = dev.alloc("o", 8 * 32, DType.I32)
        dev.upload(obuf, init)
        ex = Executor(
            dev,
            sinks=[KernelTraceCollector()],
            profile_filter=stride_sampler(2),
            engine=engine,
        )
        ex.launch(k, 8, 32, {"o": obuf})
        results[engine] = dev.download(obuf)
        stats = ex.last_launch_stats
    assert np.array_equal(results["interpreted"], results["compiled"])
    assert stats["hazard_tier"] == "symbolic_clear"
    assert stats["batch_limit"] > 1
    assert stats["largest_batch"] > 1
    # A shifted read of the same buffer (``o[gid] = o[gid + 1] + 1``) makes
    # every block's reads overlap its neighbour's writes: no grouping is
    # possible and the launch pins to one block per batch.
    b = KernelBuilder("kshift")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, b.iadd(i, 1)), 1))
    kshift = b.finalize()
    dev = Device()
    obuf = dev.alloc("o", 8 * 32 + 1, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(kshift, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["hazard_tier"] == "pinned"
    assert stats["pin_reason"] == "footprint-overlap"
    assert stats["batch_limit"] == 1
    assert stats["largest_batch"] == 1
    # An indirect store address (loaded from memory) is opaque to the
    # affine analysis, so the launch pins outright.
    b = KernelBuilder("kind")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, b.ld(o, i), 1)
    kind = b.finalize()
    dev = Device()
    obuf = dev.alloc("o", 8 * 32, DType.I32)
    ex = Executor(dev, engine="compiled")
    ex.launch(kind, 8, 32, {"o": obuf})
    stats = ex.last_launch_stats
    assert stats["hazard_tier"] == "pinned"
    assert stats["pin_reason"] == "opaque-address"
    assert stats["batch_limit"] == 1
    # Disjoint load/store buffers never flag a hazard in the first place.
    b = KernelBuilder("k2")
    src = b.param_buf("src", DType.I32)
    dst = b.param_buf("dst", DType.I32)
    i = b.global_thread_id()
    b.st(dst, i, b.ld(src, i))
    k2 = b.finalize()
    dev = Device()
    sbuf = dev.alloc("src", 8 * 32, DType.I32)
    dbuf = dev.alloc("dst", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(k2, 8, 32, {"src": sbuf, "dst": dbuf})
    assert ex.last_launch_stats["hazard_tier"] == "clear"
    assert ex.last_launch_stats["batch_limit"] > 1
    # Binding one buffer to both params aliases them; the footprint pass
    # still proves the copy per-lane private, so it batches anyway.
    dev = Device()
    buf = dev.alloc("b", 8 * 32, DType.I32)
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ex.launch(k2, 8, 32, {"src": buf, "dst": buf})
    assert ex.last_launch_stats["hazard_tier"] == "symbolic_clear"
    assert ex.last_launch_stats["batch_limit"] > 1


def test_commuting_int_atomics_batch_and_match_the_interpreter():
    # Integer ADD/MIN/MAX whose old values nobody reads, on buffers nothing
    # else touches, give the same final memory in any lane order: the
    # launch batches, and memory and every profile section match the
    # interpreter bit for bit.  ``atomic_add`` keeps a destination
    # register by default; it is simply never read.
    b = KernelBuilder("k")
    src = b.param_buf("src", DType.I32)
    hist = b.param_buf("hist", DType.I32)
    lo = b.param_buf("lo", DType.I32)
    v = b.ld(src, b.global_thread_id())
    with b.for_range(0, 3) as j:
        b.atomic_add(hist, b.imod(b.iadd(v, j), 7), b.iadd(v, 1))
    b.atomic_min(lo, b.imod(v, 3), v, want_old=False)
    b.atomic_min(lo, 0, b.ineg(v), want_old=False)
    k = b.finalize()

    def run(engine):
        dev = Device()
        data = np.random.default_rng(5).integers(0, 1000, 8 * 32)
        bufs = {
            "src": dev.from_array("src", data, DType.I32),
            "hist": dev.alloc("hist", 7, DType.I32),
            "lo": dev.alloc("lo", 3, DType.I32, fill=1 << 20),
        }
        collector = KernelTraceCollector()
        ex = Executor(dev, sinks=[collector], profile_filter=stride_sampler(2), engine=engine)
        ex.launch(k, 8, 32, bufs)
        memory = {name: dev.download(buf).tobytes() for name, buf in bufs.items()}
        profile = WorkloadProfile(workload="k", suite="t", kernels=collector.profiles)
        return memory, workload_to_dict(profile), ex.last_launch_stats

    imem, iprof, _ = run("interpreted")
    cmem, cprof, stats = run("compiled")
    assert stats["hazard_tier"] == "clear"
    assert stats["pin_reason"] is None
    assert stats["largest_batch"] > 1
    assert cmem == imem
    assert cprof == iprof
