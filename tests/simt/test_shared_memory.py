"""Shared memory: :class:`SharedMemory` against the per-declaration
reference loop, and exact values through ``__shared__`` on both engines."""

import numpy as np
import pytest

from repro.simt import Device, DType, ExecutionError, Executor, KernelBuilder
from repro.simt.executor import ENGINES
from repro.simt.memory import SharedMemory
from tests.simt.shared_reference import SharedReference

#: Lanes per block in the seeded cases.
NPAD = 64


def _kernel(decls):
    b = KernelBuilder("shk")
    for name, count, dtype in decls:
        b.shared(name, count, dtype)
    return b.finalize()


#: Packed declarations of every dtype: I32 at 0, F32 at 64, PRED at 96
#: (1-byte elements) and I32 at 108, ending at 128 bytes.
MIXED = _kernel([
    ("a", 16, DType.I32), ("f", 8, DType.F32), ("p", 12, DType.PRED), ("t", 5, DType.I32),
])
SINGLE = _kernel([("s", 32, DType.I32)])
NONE = _kernel([])


def _addresses(rng, kernel, n, esize):
    """``n`` byte addresses of one seeded shape: inside one declaration,
    across declarations, up to and past the last one's end, or negative."""
    decls = kernel.shared
    end = max((d.offset + d.nbytes for d in decls), default=64)
    mode = rng.choice(["inside", "inside", "cross", "edge", "past", "negative"])
    if mode == "inside" and decls:
        d = decls[rng.integers(len(decls))]
        return d.offset + rng.integers(0, d.count, n) * d.dtype.element_size
    if mode == "cross":
        return rng.integers(0, end // esize, n) * esize
    if mode == "edge" and decls:
        # The last element and the first one past each declaration's end.
        d = decls[rng.integers(len(decls))]
        last = d.offset + (d.count - 1) * esize
        return rng.choice([last, last + esize, d.offset], n)
    if mode == "past":
        return rng.integers(0, end // esize + 3, n) * esize
    return rng.integers(-8, end // esize, n) * esize


def _values(rng, n):
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(-(2**62), 2**62, n) + np.int64(2**53 + 1)
    if kind == 1:
        return rng.standard_normal(n) * 1e3
    return rng.random(n) < 0.5


def _outcome(fn):
    try:
        return "ok", fn()
    except ExecutionError as exc:
        return "error", str(exc)


def _assert_same_arrays(mem, ref):
    assert len(mem.arrays) == len(ref.decls)
    for arr, decl in zip(mem.arrays, ref.decls):
        want = ref.flat(decl.name)
        assert arr.dtype == want.dtype
        assert arr.tobytes() == want.tobytes(), decl.name


@pytest.mark.parametrize("kernel", [MIXED, SINGLE, NONE], ids=["mixed", "single", "none"])
@pytest.mark.parametrize("seed", range(12))
def test_shared_memory_matches_per_declaration_loop(kernel, seed):
    rng = np.random.default_rng(seed)
    nblk = int(rng.choice([1, 2, 3, 5]))
    mem, ref = SharedMemory(kernel, nblk), SharedReference(kernel, nblk)
    lanes = np.arange(nblk * NPAD)
    faults = 0
    for _ in range(60):
        act = rng.random(lanes.size) < rng.choice([1.0, 0.5, 0.1, 0.0])
        rows = lanes[act] // NPAD
        esize = int(rng.choice([4, 4, 1]))
        addrs = _addresses(rng, kernel, rows.size, esize).astype(np.int64)
        if rng.random() < 0.5:
            values = _values(rng, rows.size)
            got = _outcome(lambda: mem.scatter(addrs, rows, values, esize))
            want = _outcome(lambda: ref.scatter(addrs, rows, values, esize))
        else:
            got = _outcome(lambda: mem.gather(addrs, rows, esize))
            want = _outcome(lambda: ref.gather(addrs, rows, esize))
            if got[0] == want[0] == "ok":
                assert got[1].dtype == want[1].dtype
                got = "ok", got[1].tobytes()
                want = "ok", want[1].tobytes()
        assert got == want
        faults += got[0] == "error"
        if kernel.shared:
            _assert_same_arrays(mem, ref)
    # Every case meets faults; the declared ones also succeed.
    assert faults and (faults < 60 or not kernel.shared)


@pytest.mark.parametrize(
    "kernel,addrs,esize,message",
    [
        (NONE, [0], 4, "kernel 'shk' accesses shared memory but declares none"),
        (MIXED, [4, -4], 4, "kernel 'shk': negative shared address"),
        (MIXED, [128, -4], 4, "kernel 'shk': negative shared address"),
        (MIXED, [0, 63], 1, "kernel 'shk': shared array 'a' index out of bounds (size 16)"),
        (MIXED, [64, 63, 128], 1, "kernel 'shk': shared array 'a' index out of bounds (size 16)"),
        (MIXED, [0, 128], 4, "kernel 'shk': shared array 't' index out of bounds (size 5)"),
        (SINGLE, [124, 128], 4, "kernel 'shk': shared array 's' index out of bounds (size 32)"),
    ],
)
def test_fault_messages(kernel, addrs, esize, message):
    addrs = np.array(addrs, dtype=np.int64)
    rows = np.zeros(addrs.size, dtype=np.int64)
    for access in (
        lambda: SharedMemory(kernel).gather(addrs, rows, esize),
        lambda: SharedMemory(kernel).scatter(addrs, rows, np.ones(addrs.size), esize),
        lambda: SharedReference(kernel).gather(addrs, rows, esize),
    ):
        with pytest.raises(ExecutionError) as info:
            access()
        assert str(info.value) == message


@pytest.mark.parametrize("engine", ENGINES)
def test_integers_above_2_53_round_trip_exactly(engine):
    big = 2**53 + 1
    b = KernelBuilder("exact")
    o = b.param_buf("o", DType.I32)
    d = b.param_buf("d", DType.I32)
    s = b.shared("s", 32, DType.I32)
    i = b.global_thread_id()
    v = b.iadd(i, big)
    b.st(d, i, v)
    b.sst(s, b.tid_x, v)
    b.barrier()
    b.st(o, i, b.sld(s, b.tid_x))
    dev = Device()
    o_buf, d_buf = dev.alloc("o", 96, DType.I32), dev.alloc("d", 96, DType.I32)
    Executor(dev, engine=engine).launch(b.finalize(), 3, 32, {"o": o_buf, "d": d_buf})
    want = [big + t for t in range(96)]
    assert dev.download(d_buf).tolist() == want
    assert dev.download(o_buf).tolist() == want
