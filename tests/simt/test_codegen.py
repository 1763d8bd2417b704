"""Generated kernel bodies: which writes bind, deep nesting, undefined
reads, and one recorder call per straight-line run."""

import numpy as np
import pytest

from repro.simt import (
    Device,
    DType,
    ExecutionError,
    Executor,
    KernelBuilder,
    SimtError,
    compiled,
)
from repro.simt.events import EventRecorder
from repro.simt.ir import Instr, While, walk_stmts
from repro.trace.collector import KernelTraceCollector
from repro.trace.profile import WorkloadProfile
from repro.trace.serialize import workload_to_dict

N = 96


def _run(kernel, engine, grid=2, block=48):
    dev = Device()
    out = dev.alloc("out", grid * block, DType.I32)
    collector = KernelTraceCollector()
    Executor(dev, sinks=[collector], engine=engine).launch(
        kernel, grid, block, {"out": out, "n": N}
    )
    profile = WorkloadProfile(workload="T", suite="T", kernels=collector.profiles)
    return dev.download(out), workload_to_dict(profile)


def _assert_engines_agree(kernel):
    imem, iprof = _run(kernel, "interpreted")
    cmem, cprof = _run(kernel, "compiled")
    assert imem.tobytes() == cmem.tobytes()
    assert iprof == cprof
    return cmem


def _generated(kernel, hooks=frozenset({"instr", "mem", "branch"})):
    gen = compiled._Generator(compiled.compile_kernel(kernel), hooks)
    gen.build()
    return gen


def test_run_local_temps_are_single_definitions_read_later_in_their_list():
    b = KernelBuilder("temps")
    out = b.param_buf("out", DType.I32)
    n = b.param_i32("n")
    t = b.global_thread_id()
    acc = b.let_i32(0)
    with b.if_(b.ilt(t, n)):
        tmp = b.iadd(t, 1)  # read later in the then list only: a temp
        b.assign(acc, tmp)  # acc has two definitions: merged
    with b.for_range(0, 3) as j:  # j: two definitions; its predicate: a temp
        b.assign(acc, b.iadd(acc, j))
    b.st(out, t, acc)
    kernel = b.finalize()
    temps = compiled._run_local_temps(kernel.body)
    dest_of = {s.sid: s.dest.name for s in walk_stmts(kernel.body) if isinstance(s, Instr)}
    names = {dest_of[sid] for sid in temps}
    assert tmp.name in names
    assert acc.name not in names
    assert j.name not in names
    loop = next(s for s in walk_stmts(kernel.body) if isinstance(s, While))
    assert loop.cond.name in names
    _assert_engines_agree(kernel)


def test_masked_writes_keep_the_lanes_outside_the_branch():
    b = KernelBuilder("masked")
    out = b.param_buf("out", DType.I32)
    n = b.param_i32("n")
    t = b.global_thread_id()
    v = b.let_i32(7)
    ife = b.if_else(b.ilt(b.imod(t, 3), 1))
    with ife.then():
        b.assign(v, b.iadd(t, 100))
    with ife.otherwise():
        with b.if_(b.ilt(t, n)):
            b.assign(v, b.imul(t, 2))
    b.st(out, t, v)
    mem = _assert_engines_agree(b.finalize())
    t = np.arange(96)
    assert np.array_equal(mem, np.where(t % 3 < 1, t + 100, np.where(t < N, 2 * t, 7)))


def test_nesting_deeper_than_cpython_allows_in_one_function():
    b = KernelBuilder("deep")
    out = b.param_buf("out", DType.I32)
    n = b.param_i32("n")
    t = b.global_thread_id()
    acc = b.let_i32(0)
    # 30 guards in a row: each leaves the rest of the body one level deeper.
    for k in range(30):
        b.ret_if(b.ieq(t, 60 + k))
    # 24 nested loops (CPython allows 20 per function), one trip each ...
    loops = []
    for _ in range(24):
        loops.append(b.for_range(0, 1))
        loops[-1].__enter__()
    # ... around 50 nested divergent ifs.
    ifs = []
    for k in range(50):
        ifs.append(b.if_(b.ine(t, k)))
        ifs[-1].__enter__()
        b.assign(acc, b.iadd(acc, 1))
    for ctx in reversed(loops + ifs):
        ctx.__exit__(None, None, None)
    b.st(out, t, acc)
    kernel = b.finalize()
    assert len(_generated(kernel).sources) > 1  # parts moved out of line
    mem = _assert_engines_agree(kernel)
    t = np.arange(96)
    expect = np.minimum(t, 50)
    expect[(t >= 60) & (t < 90)] = 0  # retired before writing
    assert np.array_equal(mem, expect)


def test_read_before_any_write_faults_alike():
    b = KernelBuilder("undefined")
    out = b.param_buf("out", DType.I32)
    n = b.param_i32("n")
    t = b.global_thread_id()
    with b.if_(b.ilt(t, b.isub(n, 1000))):  # no lane takes it
        v = b.iadd(t, 1)
    b.st(out, t, v)
    kernel = b.finalize()
    messages = []
    for engine in ("interpreted", "compiled"):
        with pytest.raises(ExecutionError) as err:
            _run(kernel, engine)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "read before any write" in messages[0]


def test_one_recorder_call_per_straight_line_run(monkeypatch):
    b = KernelBuilder("runs")
    out = b.param_buf("out", DType.I32)
    n = b.param_i32("n")
    t = b.global_thread_id()
    with b.if_(b.ilt(t, n)):
        b.st(out, t, b.iadd(b.imul(t, 3), 1))
    kernel = b.finalize()
    calls = []
    real = EventRecorder.instr_run

    def counting(self, codes, act):
        calls.append(len(codes) // 2)
        real(self, codes, act)

    monkeypatch.setattr(EventRecorder, "instr_run", counting)
    _run(kernel, "compiled", grid=1)
    # One call per run: the thread id, the compare and the If's own event,
    # then the then list's two ALU ops, address arithmetic and store.
    assert calls == [4, 5]


def test_else_mask_uses_the_condition_as_it_was_on_entry():
    # The then list clears the condition register; lanes that took it must
    # not run the else list too.
    from repro.simt.reference import run_reference

    b = KernelBuilder("cond_rewrite")
    out = b.param_buf("out", DType.I32)
    n = b.param_i32("n")
    t = b.global_thread_id()
    p = b.ilt(t, 40)
    ife = b.if_else(p)
    with ife.then():
        b.assign(p, False)
        b.st(out, t, 1)
    with ife.otherwise():
        b.st(out, t, 2)
    kernel = b.finalize()
    mem = _assert_engines_agree(kernel)
    assert np.array_equal(mem, np.where(np.arange(96) < 40, 1, 2))
    dev = Device()
    ref = dev.alloc("out", 96, DType.I32)
    run_reference(kernel, 2, 48, {"out": ref, "n": N}, dev)
    assert np.array_equal(dev.download(ref), mem)


# -- memory sites under a mask holding every lane of the array -------------


def _copy_kernel(guarded=False, offset=0):
    """``out[i] = src[i + offset] * 2``, behind ``i < n`` when guarded."""
    b = KernelBuilder("copy")
    src, out = b.param_buf("src", DType.I32), b.param_buf("out", DType.I32)
    n = b.param_i32("n")
    i = b.global_thread_id()
    if guarded:
        with b.if_(b.ilt(i, n)):
            b.st(out, i, b.imul(b.ld(src, i), 2))
    else:
        b.st(out, i, b.imul(b.ld(src, b.iadd(i, offset)), 2))
    return b.finalize()


def _shared_kernel(block):
    """Each block reverses its slice of ``src`` through shared memory."""
    b = KernelBuilder("reverse")
    src, out = b.param_buf("src", DType.I32), b.param_buf("out", DType.I32)
    b.param_i32("n")
    s = b.shared("s", block, DType.I32)
    i = b.global_thread_id()
    b.sst(s, b.tid_x, b.ld(src, i))
    b.barrier()
    b.st(out, i, b.iadd(b.sld(s, b.isub(block - 1, b.tid_x)), b.sld(s, b.tid_x)))
    return b.finalize()


#: ``(kernel, grid, block, src elements)``.
_SITES = {
    # 48 lanes: every warp row has padding lanes, so no mask is full.
    "partial-warps": (_copy_kernel(), 4, 48, 192),
    # The last block's lanes past n hold addresses past the end of src.
    "guarded-last-block": (_copy_kernel(guarded=True), 4, 32, 100),
    # The last lane of a full mask reads one element past the end.
    "faulting-full-mask": (_copy_kernel(), 4, 32, 127),
    # One block: a batch's fault names its largest bad element, which for
    # several blocks is not the first block's (the interpreter's).
    "faulting-every-lane": (_copy_kernel(offset=1000), 1, 64, 64),
    "shared": (_shared_kernel(64), 3, 64, 192),
}


def _site_outcome(kernel, grid, block, n, engine, batch_blocks=None):
    dev = Device()
    bufs = {
        "src": dev.from_array("src", np.arange(n) * 3 - 50, DType.I32),
        "out": dev.alloc("out", grid * block, DType.I32),
        "n": n,
    }
    collector = KernelTraceCollector()
    ex = Executor(dev, sinks=[collector], engine=engine, batch_blocks=batch_blocks)
    try:
        ex.launch(kernel, grid, block, bufs)
    except SimtError as exc:
        return f"{type(exc).__name__}: {exc}"
    profile = WorkloadProfile(workload="T", suite="T", kernels=collector.profiles)
    return dev.download(bufs["out"]).tobytes(), workload_to_dict(profile)


@pytest.mark.parametrize("case", sorted(_SITES))
@pytest.mark.parametrize("batch_blocks", [None, 1])
def test_full_mask_memory_sites_match_the_interpreter(case, batch_blocks):
    kernel, grid, block, n = _SITES[case]
    want = _site_outcome(kernel, grid, block, n, "interpreted")
    assert _site_outcome(kernel, grid, block, n, "compiled", batch_blocks) == want
    if case.startswith("faulting"):
        assert want.startswith("MemoryFault: out-of-bounds access")


def test_a_full_mask_load_binds_without_spreading(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(compiled, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(compiled, name, wrapper)
        monkeypatch.setitem(compiled._NAMESPACE, name, wrapper)

    counting("_spread")
    counting("_merge")
    kernel, grid, block, n = _copy_kernel(), 2, 64, 128
    mem, _ = _site_outcome(kernel, grid, block, n, "compiled")
    assert np.frombuffer(mem, dtype=np.int64).tolist() == (np.arange(n) * 6 - 100).tolist()
    assert calls == []
    # A guarded load runs under a mask that is not full in the last block.
    _site_outcome(_copy_kernel(guarded=True), 2, 64, 100, "compiled")
    assert calls == ["_spread"]
