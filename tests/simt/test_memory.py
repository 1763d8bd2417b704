"""Device memory: allocation, bounds, alignment, read-only enforcement."""

import numpy as np
import pytest

from repro.simt import Device, DType, Executor, KernelBuilder, LaunchError, MemoryFault, memory
from repro.simt.executor import ENGINES
from repro.simt.memory import ADDRESS_LIMIT
from repro.simt.sink import TraceSink


def test_alloc_alignment_and_disjointness():
    dev = Device()
    a = dev.alloc("a", 10)
    b = dev.alloc("b", 10)
    assert a.base % 256 == 0
    assert b.base % 256 == 0
    assert b.base >= a.end


def test_upload_download_roundtrip():
    dev = Device()
    buf = dev.alloc("x", 16)
    data = np.arange(16.0)
    dev.upload(buf, data)
    assert np.array_equal(dev.download(buf), data)


def test_download_is_a_copy():
    dev = Device()
    buf = dev.from_array("x", np.arange(4.0))
    out = dev.download(buf)
    out[0] = 99
    assert dev.download(buf)[0] == 0.0


def test_from_array_infers_dtype():
    dev = Device()
    fb = dev.from_array("f", np.array([1.5, 2.5]))
    ib = dev.from_array("i", np.array([1, 2]))
    assert fb.dtype is DType.F32
    assert ib.dtype is DType.I32


def test_fill_value():
    dev = Device()
    buf = dev.alloc("x", 4, DType.I32, fill=-1)
    assert np.all(dev.download(buf) == -1)


def test_upload_size_mismatch_rejected():
    dev = Device()
    buf = dev.alloc("x", 4)
    with pytest.raises(LaunchError, match="mismatch"):
        dev.upload(buf, np.zeros(5))


def test_duplicate_name_rejected():
    dev = Device()
    dev.alloc("x", 4)
    with pytest.raises(LaunchError, match="duplicate"):
        dev.alloc("x", 4)


def test_nonpositive_size_rejected():
    dev = Device()
    with pytest.raises(LaunchError):
        dev.alloc("x", 0)


def test_gather_in_bounds():
    dev = Device()
    buf = dev.from_array("x", np.array([10.0, 20.0, 30.0]))
    addrs = np.array([buf.base, buf.base + 8, buf.base + 4])
    assert np.array_equal(dev.gather(addrs, 4), [10.0, 30.0, 20.0])


def test_gather_below_heap_faults():
    dev = Device()
    dev.alloc("x", 4)
    with pytest.raises(MemoryFault, match="below heap"):
        dev.gather(np.array([0]), 4)


def test_gather_past_end_faults():
    dev = Device()
    buf = dev.alloc("x", 4)
    with pytest.raises(MemoryFault, match="out-of-bounds"):
        dev.gather(np.array([buf.base + 4 * 4]), 4)


def test_misaligned_access_faults():
    dev = Device()
    buf = dev.alloc("x", 4)
    with pytest.raises(MemoryFault, match="misaligned"):
        dev.gather(np.array([buf.base + 2]), 4)


def test_scatter_last_lane_wins():
    dev = Device()
    buf = dev.alloc("x", 4, DType.I32)
    addrs = np.array([buf.base, buf.base, buf.base + 4])
    dev.scatter(addrs, np.array([1, 2, 3]), 4)
    out = dev.download(buf)
    assert out[0] == 2  # duplicate address: highest lane index wins
    assert out[1] == 3


def test_store_to_readonly_faults():
    dev = Device()
    buf = dev.from_array("x", np.arange(4.0), readonly=True)
    with pytest.raises(MemoryFault, match="read-only"):
        dev.scatter(np.array([buf.base]), np.array([1.0]), 4)


def test_atomic_on_readonly_faults():
    dev = Device()
    buf = dev.from_array("x", np.arange(4), readonly=True)
    with pytest.raises(MemoryFault, match="read-only"):
        dev.atomic_lane_view(np.array([buf.base]), 4)


def test_gather_spanning_two_buffers():
    dev = Device()
    a = dev.from_array("a", np.array([1.0, 2.0]))
    b = dev.from_array("b", np.array([3.0, 4.0]))
    addrs = np.array([a.base, b.base, a.base + 4, b.base + 4])
    assert np.array_equal(dev.gather(addrs, 4), [1.0, 3.0, 2.0, 4.0])


def test_buffer_lookup_by_name():
    dev = Device()
    dev.alloc("x", 4)
    assert dev.buffer("x").name == "x"
    assert len(dev.buffers) == 1


def test_access_on_empty_device_faults():
    dev = Device()
    with pytest.raises(MemoryFault):
        dev.gather(np.array([0x1000]), 4)


def test_atomic_add_duplicate_addresses_apply_in_lane_order():
    # Three lanes hit the same f32 word; ascending-lane serialisation is the
    # documented contract, and float rounding makes the order observable:
    # 0 + 1e16 -> 1e16, + 1.0 -> 1e16 (absorbed), - 1e16 -> 0.0.
    from repro.simt.ir import AtomicOp

    dev = Device()
    buf = dev.from_array("x", np.zeros(2, dtype=np.float32), DType.F32)
    addrs = np.array([buf.base, buf.base, buf.base], dtype=np.int64)
    vals = np.array([1e16, 1.0, -1e16], dtype=np.float32)
    olds = dev.atomic_update(addrs, vals, AtomicOp.ADD, 4)
    assert np.array_equal(olds, np.array([0.0, 1e16, 1e16], dtype=np.float32))
    assert dev.download(buf)[0] == 0.0


def test_atomic_add_duplicates_without_old_values():
    from repro.simt.ir import AtomicOp

    dev = Device()
    buf = dev.alloc("x", 4, DType.I32)
    addrs = np.array([buf.base, buf.base + 4, buf.base, buf.base], dtype=np.int64)
    vals = np.array([1, 10, 2, 4], dtype=np.int64)
    assert dev.atomic_update(addrs, vals, AtomicOp.ADD, 4, need_old=False) is None
    assert np.array_equal(dev.download(buf), [7, 10, 0, 0])


def test_atomic_exch_duplicate_addresses_chain_in_lane_order():
    from repro.simt.ir import AtomicOp

    dev = Device()
    buf = dev.from_array("x", np.array([5], dtype=np.int64), DType.I32)
    addrs = np.array([buf.base, buf.base, buf.base], dtype=np.int64)
    vals = np.array([7, 8, 9], dtype=np.int64)
    olds = dev.atomic_update(addrs, vals, AtomicOp.EXCH, 4)
    # Each lane observes the previous lane's exchange.
    assert np.array_equal(olds, [5, 7, 8])
    assert dev.download(buf)[0] == 9


def test_atomic_min_max_duplicates_match_serial_order():
    from repro.simt.ir import AtomicOp

    dev = Device()
    buf = dev.from_array("x", np.array([50, -50], dtype=np.int64), DType.I32)
    addrs = np.array([buf.base, buf.base, buf.base + 4, buf.base + 4], dtype=np.int64)
    olds = dev.atomic_update(
        addrs, np.array([30, 40, -10, -80], dtype=np.int64), AtomicOp.MIN, 4
    )
    assert np.array_equal(olds, [50, 30, -50, -50])
    assert np.array_equal(dev.download(buf), [30, -80])


@pytest.mark.parametrize("need_old", [True, False])
@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("dtype", [DType.I32, DType.F32])
@pytest.mark.parametrize("op_name", ["ADD", "MIN", "MAX"])
def test_atomic_update_matches_scalar_lane_loop(op_name, dtype, duplicates, need_old):
    # Whatever path atomic_update takes (one gather/scatter, ufunc.at or the
    # lane loop), memory and old values must equal the ascending-lane loop
    # over the scalar semantics.
    from repro.simt.ir import AtomicOp
    from repro.simt.memory import _ATOMIC_SCALAR

    op = AtomicOp[op_name]
    rng = np.random.default_rng(7)
    dev = Device()
    buf = dev.alloc("x", 64, dtype)
    if dtype is DType.I32:
        dev.upload(buf, rng.integers(-100, 100, 64))
        values = rng.integers(-100, 100, 32).astype(buf.data.dtype)
    else:
        dev.upload(buf, rng.standard_normal(64) * 100)
        values = (rng.standard_normal(32) * 100).astype(buf.data.dtype)
    elems = rng.integers(0, 8, 32) if duplicates else rng.permutation(64)[:32]
    expected = dev.download(buf)
    expected_olds = np.empty(32, dtype=buf.data.dtype)
    for lane, (elem, value) in enumerate(zip(elems, values)):
        expected_olds[lane] = expected[elem]
        expected[elem] = _ATOMIC_SCALAR[op](expected[elem], value)

    addrs = (buf.base + elems * buf.elem_size).astype(np.int64)
    olds = dev.atomic_update(addrs, values, op, buf.elem_size, need_old=need_old)
    assert dev.download(buf).tobytes() == expected.tobytes()
    if need_old:
        assert olds.tobytes() == expected_olds.tobytes()


def test_empty_gather_returns_zero_length_array():
    dev = Device()
    dev.alloc("x", 4)
    out = dev.gather(np.array([], np.int64), 4)
    assert isinstance(out, np.ndarray)
    assert out.shape == (0,)


# ----------------------------------------------------------------------
# Resolution equivalence: gather/scatter/atomic_update against a scalar
# per-lane oracle over seeded address vectors.
# ----------------------------------------------------------------------

#: (dtype, count, readonly) per buffer.  Counts of 64 and 128 fill their
#: 256-byte slot exactly (the next base is the end address); the others
#: leave an alignment gap.
_LAYOUTS = [
    [(DType.F32, 3, False)],
    [(DType.I32, 64, False), (DType.F32, 5, True), (DType.PRED, 7, False)],
    [(DType.F32, 70, False), (DType.I32, 128, False), (DType.I32, 1, True)],
    [(DType.PRED, 64, True), (DType.F32, 64, False), (DType.I32, 9, False)],
]


def _layout_device(layout, rng):
    dev = Device()
    for i, (dtype, count, readonly) in enumerate(layout):
        buf = dev.alloc(f"b{i}", count, dtype, readonly=readonly)
        buf.data[:] = rng.integers(-50, 50, count).astype(buf.data.dtype)
    return dev


def _oracle(dev, addrs, esize):
    """Per-lane ``(buffer index, element)`` pairs, or the fault message.

    Checks in the documented order: an empty device, any lane below the
    heap base, then each touched buffer in address order (element size,
    first misaligned lane, largest out-of-bounds element).
    """
    bufs = dev.buffers
    if not bufs:
        return "access on a device with no buffers"
    owners = []
    for a in addrs.tolist():
        below = [k for k, b in enumerate(bufs) if b.base <= a]
        if not below:
            return f"access below heap base: 0x{a:x}"
        owners.append(below[-1])
    for k in sorted(set(owners)):
        buf = bufs[k]
        mine = [a for a, o in zip(addrs.tolist(), owners) if o == k]
        if buf.elem_size != esize:
            return (
                f"access to {buf.name!r} with element size {esize}, "
                f"buffer element size is {buf.elem_size}"
            )
        for a in mine:
            if (a - buf.base) % esize:
                return f"misaligned access to {buf.name!r} at 0x{a:x}"
        top = max((a - buf.base) // esize for a in mine)
        if top >= buf.count:
            return f"out-of-bounds access to {buf.name!r}: element {top} of {buf.count}"
    return [(k, (a - bufs[k].base) // esize) for a, k in zip(addrs.tolist(), owners)]


def _address_vectors(dev, rng, n):
    """Seeded address vectors: in-buffer, edges, gaps, crossings, faults."""
    bufs = dev.buffers
    edges = [a for b in bufs for a in (b.base, b.end - 4, b.end, b.end + 4)]
    yield np.array([], np.int64)
    yield np.array([0x1000 - 4], np.int64)
    for a in edges:
        yield np.array([a], np.int64)
    for _ in range(n):
        buf = bufs[rng.integers(len(bufs))]
        lanes = int(rng.integers(1, 40))
        addrs = buf.base + 4 * rng.integers(0, buf.count, lanes)
        kind = rng.integers(6)
        if kind == 1:  # cross-buffer
            other = bufs[rng.integers(len(bufs))]
            addrs[rng.integers(lanes)] = other.base + 4 * rng.integers(other.count)
        elif kind == 2:  # edges and alignment gaps
            addrs[rng.integers(lanes)] = rng.choice(edges)
        elif kind == 3:  # misaligned
            addrs[rng.integers(lanes)] += rng.integers(1, 4)
        elif kind == 4:  # below the heap base
            addrs[rng.integers(lanes)] = rng.integers(-8, 0x1000)
        yield addrs.astype(np.int64)


def _outcome(call):
    try:
        return call(), None
    except MemoryFault as exc:
        return None, str(exc)


def _memory(dev):
    return [b.data.tobytes() for b in dev.buffers]


@pytest.mark.parametrize("layout_index", range(len(_LAYOUTS) + 1))
def test_resolution_matches_scalar_oracle(layout_index):
    from repro.simt.ir import AtomicOp

    rng = np.random.default_rng(1000 + layout_index)
    layout = _LAYOUTS[layout_index] if layout_index < len(_LAYOUTS) else []
    dev = _layout_device(layout, rng)
    bufs = dev.buffers
    vectors = list(_address_vectors(dev, rng, 150)) if layout else [
        np.array([], np.int64),
        np.array([0x1000], np.int64),
    ]
    for addrs in vectors:
        for esize in (4, 4, 4, 1, 8):
            expected = _oracle(dev, addrs, esize)
            values = rng.integers(-9, 9, addrs.size)
            label = f"{addrs.tolist()} esize={esize}"

            got, err = _outcome(lambda: dev.gather(addrs, esize))
            if isinstance(expected, str):
                assert err == expected, label
            else:
                assert err is None, label
                assert got.tolist() == [bufs[k].data[e] for k, e in expected], label

            # Stores: read-only buffers fault in address order, after the
            # stores to the writable buffers before them.
            want_mem = [b.data.copy() for b in bufs]
            want_err = expected if isinstance(expected, str) else None
            if want_err is None:
                for k in sorted({k for k, _ in expected}):
                    if bufs[k].readonly:
                        want_err = f"store to read-only buffer {bufs[k].name!r}"
                        break
                    for (o, e), v in zip(expected, values):
                        if o == k:
                            want_mem[k][e] = v
            _, err = _outcome(lambda: dev.scatter(addrs, values, esize))
            assert err == want_err, label
            assert _memory(dev) == [m.tobytes() for m in want_mem], label

            # Atomic add: every read-only check precedes any update.
            want_mem = [b.data.copy() for b in bufs]
            want_err = expected if isinstance(expected, str) else None
            want_olds = []
            if want_err is None:
                ro = sorted(k for k, _ in expected if bufs[k].readonly)
                if ro:
                    want_err = f"atomic on read-only buffer {bufs[ro[0]].name!r}"
                else:
                    for (k, e), v in zip(expected, values):
                        want_olds.append(want_mem[k][e])
                        want_mem[k][e] = want_mem[k][e] + v
            olds, err = _outcome(
                lambda: dev.atomic_update(addrs, values, AtomicOp.ADD, esize)
            )
            assert err == want_err, label
            assert _memory(dev) == [m.tobytes() for m in want_mem], label
            if want_err is None:
                assert olds.tolist() == want_olds, label


def _high_device(monkeypatch, room):
    """A device whose heap starts ``room`` bytes below the address limit."""
    monkeypatch.setattr(memory, "_HEAP_BASE", ADDRESS_LIMIT - room)
    return Device()


def test_a_buffer_may_end_exactly_at_the_address_limit(monkeypatch):
    dev = _high_device(monkeypatch, 1024)
    top = dev.alloc("top", 256, DType.I32)
    assert top.end == ADDRESS_LIMIT
    with pytest.raises(LaunchError, match=r"buffer 'more' .* limit 0x80000000"):
        dev.alloc("more", 1)


def test_an_allocation_one_element_past_the_limit_raises(monkeypatch):
    dev = _high_device(monkeypatch, 1024)
    with pytest.raises(
        LaunchError,
        match=r"buffer 'over' would end at 0x80000004, past the global address "
        r"space limit 0x80000000 \(2\*\*31 bytes\)",
    ):
        dev.alloc("over", 257, DType.I32)
    assert not dev.buffers
    assert dev.alloc("fits", 256, DType.I32).end == ADDRESS_LIMIT


def test_a_kernel_past_the_shared_limit_does_not_launch():
    b = KernelBuilder("huge_shared")
    out = b.param_buf("out")
    big = b.shared("big", 1 << 29, DType.I32)  # exactly 2**31 bytes: allowed
    b.shared("one", 1, DType.I32)
    b.st(out, b.tid_x, b.sld(big, b.tid_x))
    kernel = b.finalize()
    assert kernel.shared_bytes == ADDRESS_LIMIT + 4
    dev = Device()
    with pytest.raises(LaunchError, match=r"'huge_shared' declares 2147483652 shared bytes"):
        Executor(dev).launch(kernel, 1, 32, {"out": dev.alloc("out", 32)})


class _Batches(TraceSink):
    def __init__(self):
        self.batches = []

    def on_batch(self, batch):
        self.batches.append(batch)


@pytest.mark.parametrize("engine", ENGINES)
def test_recorded_addresses_are_exact_up_to_the_limit(monkeypatch, engine):
    # dst and src fill the top 2 KiB of the address space; src's last
    # element is the last 4 bytes below 2**31.
    dev = _high_device(monkeypatch, 2048)
    dst = dev.alloc("dst", 256, DType.I32)
    src = dev.from_array("src", np.arange(256), DType.I32)
    assert src.end == ADDRESS_LIMIT
    b = KernelBuilder("top_copy")
    s, d = b.param_buf("src", DType.I32), b.param_buf("dst", DType.I32)
    i = b.global_thread_id()
    b.st(d, i, b.ld(s, i))
    sink = _Batches()
    Executor(dev, sinks=[sink], engine=engine).launch(b.finalize(), 2, 128, {"src": src, "dst": dst})
    assert np.array_equal(dev.download(dst), np.arange(256))
    seen = set()
    for batch in sink.batches:
        mem = batch.mem
        assert mem.addrs.dtype == np.int32
        seen.update(mem.addrs[batch.lane_rows[mem.slot]].tolist())
    assert seen == set(range(dst.base, ADDRESS_LIMIT, 4))
    assert max(seen) == ADDRESS_LIMIT - 4
