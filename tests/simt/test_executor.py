"""Executor semantics: control flow, divergence, loops, atomics, barriers."""

import numpy as np
import pytest

from repro.simt import (
    Device,
    DType,
    ExecutionError,
    Executor,
    KernelBuilder,
    LaunchError,
    MemoryFault,
)
from tests.conftest import build_copy_kernel


def _launch(kernel, grid, block, args, device=None, **kw):
    device = device or Device()
    Executor(device, **kw).launch(kernel, grid, block, args)
    return device


def test_guarded_copy():
    k = build_copy_kernel()
    dev = Device()
    h = np.arange(100.0)
    src = dev.from_array("src", h)
    dst = dev.alloc("dst", 100)
    _launch(k, 2, 64, {"src": src, "dst": dst, "n": 100}, device=dev)
    assert np.array_equal(dev.download(dst), h)


def test_if_else_both_paths():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    r = b.let_i32(0)
    ife = b.if_else(b.ilt(i, 10))
    with ife.then():
        b.assign(r, 1)
    with ife.otherwise():
        b.assign(r, 2)
    b.st(o, i, r)
    dev = Device()
    o_buf = dev.alloc("o", 64, DType.I32)
    _launch(b.finalize(), 1, 64, {"o": o_buf}, device=dev)
    out = dev.download(o_buf)
    assert np.array_equal(out[:10], np.ones(10))
    assert np.array_equal(out[10:], np.full(54, 2))


def test_nested_divergence():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    r = b.let_i32(0)
    with b.if_(b.ilt(i, 32)):
        with b.if_(b.ilt(i, 16)):
            b.assign(r, 1)
        with b.if_(b.ige(i, 16)):
            b.assign(r, 2)
    b.st(o, i, r)
    dev = Device()
    o_buf = dev.alloc("o", 64, DType.I32)
    _launch(b.finalize(), 1, 64, {"o": o_buf}, device=dev)
    out = dev.download(o_buf)
    assert np.array_equal(out, [1] * 16 + [2] * 16 + [0] * 32)


def test_data_dependent_loop_trip_counts():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    total = b.let_i32(0)
    j = b.let_i32(0)
    loop = b.while_loop()
    with loop.cond():
        loop.set_cond(b.ilt(j, i))
    with loop.body():
        b.assign(total, b.iadd(total, j))
        b.assign(j, b.iadd(j, 1))
    b.st(o, i, total)
    dev = Device()
    o_buf = dev.alloc("o", 64, DType.I32)
    _launch(b.finalize(), 1, 64, {"o": o_buf}, device=dev)
    expected = np.array([sum(range(i)) for i in range(64)])
    assert np.array_equal(dev.download(o_buf), expected)


def test_early_return_retires_lanes():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, 1)
    b.ret_if(b.ilt(i, 32))
    b.st(o, i, 2)
    dev = Device()
    o_buf = dev.alloc("o", 64, DType.I32)
    _launch(b.finalize(), 1, 64, {"o": o_buf}, device=dev)
    out = dev.download(o_buf)
    assert np.array_equal(out, [1] * 32 + [2] * 32)


def test_return_inside_loop():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    with b.for_range(0, 10) as j:
        with b.if_(b.ige(j, i)):
            b.ret()
        b.st(o, i, b.iadd(j, 1))
    dev = Device()
    o_buf = dev.alloc("o", 32, DType.I32)
    _launch(b.finalize(), 1, 32, {"o": o_buf}, device=dev)
    out = dev.download(o_buf)
    # Thread i writes values 1..min(i,10); buffer keeps the last write.
    expected = [0] + [min(i, 10) for i in range(1, 32)]
    assert np.array_equal(out, expected)


def test_grid_and_block_2d_indexing():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    x = b.global_thread_id()
    y = b.global_thread_id_y()
    width = b.imul(b.ntid_x, b.nctaid_x)
    b.st(o, b.iadd(b.imul(y, width), x), b.iadd(b.imul(y, 1000), x))
    dev = Device()
    o_buf = dev.alloc("o", 16 * 8, DType.I32)
    _launch(b.finalize(), (2, 2), (8, 4), {"o": o_buf}, device=dev)
    out = dev.download(o_buf).reshape(8, 16)
    for y in range(8):
        for x in range(16):
            assert out[y, x] == y * 1000 + x


def test_shared_memory_communication():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    s = b.shared("s", 64, DType.I32)
    tid = b.tid_x
    b.sst(s, tid, b.imul(tid, 3))
    b.barrier()
    # Read the neighbour's slot (wrapping).
    b.st(o, tid, b.sld(s, b.imod(b.iadd(tid, 1), 64)))
    dev = Device()
    o_buf = dev.alloc("o", 64, DType.I32)
    _launch(b.finalize(), 1, 64, {"o": o_buf}, device=dev)
    expected = [((t + 1) % 64) * 3 for t in range(64)]
    assert np.array_equal(dev.download(o_buf), expected)


def test_shared_memory_is_per_block():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    s = b.shared("s", 1, DType.I32)
    tid = b.tid_x
    with b.if_(b.ieq(tid, 0)):
        b.sst(s, 0, b.iadd(b.ctaid_x, 100))
    b.barrier()
    b.st(o, b.global_thread_id(), b.sld(s, 0))
    dev = Device()
    o_buf = dev.alloc("o", 64, DType.I32)
    _launch(b.finalize(), 2, 32, {"o": o_buf}, device=dev)
    out = dev.download(o_buf)
    assert np.array_equal(out, [100] * 32 + [101] * 32)


def test_atomic_add_returns_old_values():
    b = KernelBuilder("k")
    c = b.param_buf("c", DType.I32)
    olds = b.param_buf("olds", DType.I32)
    old = b.atomic_add(c, 0, 1)
    b.st(olds, b.global_thread_id(), old)
    dev = Device()
    c_buf = dev.alloc("c", 1, DType.I32)
    olds_buf = dev.alloc("olds", 64, DType.I32)
    _launch(b.finalize(), 2, 32, {"c": c_buf, "olds": olds_buf}, device=dev)
    assert dev.download(c_buf)[0] == 64
    # Old values must be a permutation of 0..63 (deterministic lane order).
    assert sorted(dev.download(olds_buf)) == list(range(64))


def test_atomic_min_max_exch_cas():
    b = KernelBuilder("k")
    buf = b.param_buf("buf", DType.I32)
    i = b.global_thread_id()
    b.atomic_min(buf, 0, i)
    b.atomic_max(buf, 1, i)
    b.atomic_exch(buf, 2, i)
    b.atomic_cas(buf, 3, 0, b.iadd(i, 1))
    dev = Device()
    v = dev.alloc("buf", 4, DType.I32)
    dev.upload(v, np.array([999, -1, -1, 0]))
    _launch(b.finalize(), 1, 32, {"buf": v}, device=dev)
    out = dev.download(v)
    assert out[0] == 0  # min over lanes
    assert out[1] == 31  # max over lanes
    assert out[2] == 31  # exch: last lane wins (serialised order)
    assert out[3] == 1  # CAS: only lane 0 succeeds against compare=0


def test_strict_barrier_divergence_raises():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    with b.if_(b.ilt(b.tid_x, 16)):
        b.barrier()
    b.st(o, b.tid_x, 1)
    k = b.finalize()
    dev = Device()
    o_buf = dev.alloc("o", 32, DType.I32)
    with pytest.raises(ExecutionError, match="divergent barrier"):
        _launch(k, 1, 32, {"o": o_buf}, device=dev)


def test_barrier_after_returns_is_legal():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ret_if(b.ige(b.tid_x, 16))
    b.barrier()
    b.st(o, b.tid_x, 1)
    dev = Device()
    o_buf = dev.alloc("o", 32, DType.I32)
    _launch(b.finalize(), 1, 32, {"o": o_buf}, device=dev)
    assert dev.download(o_buf).sum() == 16


def test_integer_division_by_zero_raises():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.st(o, 0, b.idiv(1, b.isub(b.tid_x, b.tid_x)))
    dev = Device()
    o_buf = dev.alloc("o", 1, DType.I32)
    with pytest.raises(ExecutionError, match="division by zero"):
        _launch(b.finalize(), 1, 32, {"o": o_buf}, device=dev)


def test_inactive_lane_division_by_zero_is_fine():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    with b.if_(b.igt(i, 0)):
        b.st(o, i, b.idiv(100, i))
    dev = Device()
    o_buf = dev.alloc("o", 32, DType.I32)
    _launch(b.finalize(), 1, 32, {"o": o_buf}, device=dev)
    assert dev.download(o_buf)[4] == 25


def test_missing_argument_rejected():
    k = build_copy_kernel()
    dev = Device()
    src = dev.alloc("src", 4)
    with pytest.raises(LaunchError, match="missing argument"):
        Executor(dev).launch(k, 1, 32, {"src": src})


def test_unknown_argument_rejected():
    k = build_copy_kernel()
    dev = Device()
    src = dev.alloc("src", 64)
    dst = dev.alloc("dst", 64)
    with pytest.raises(LaunchError, match="unknown arguments"):
        Executor(dev).launch(k, 1, 32, {"src": src, "dst": dst, "n": 64, "extra": 1})


def test_scalar_for_buffer_param_rejected():
    k = build_copy_kernel()
    dev = Device()
    dst = dev.alloc("dst", 64)
    with pytest.raises(LaunchError, match="DeviceBuffer"):
        Executor(dev).launch(k, 1, 32, {"src": 5, "dst": dst, "n": 64})


def test_buffer_for_scalar_param_rejected():
    k = build_copy_kernel()
    dev = Device()
    src = dev.alloc("src", 64)
    dst = dev.alloc("dst", 64)
    with pytest.raises(LaunchError, match="scalar"):
        Executor(dev).launch(k, 1, 32, {"src": src, "dst": dst, "n": src})


def test_oversized_block_rejected():
    k = build_copy_kernel()
    with pytest.raises(LaunchError, match="1024"):
        Executor(Device()).launch(k, 1, 2048, {})


def test_out_of_bounds_access_faults():
    k = build_copy_kernel()
    dev = Device()
    src = dev.from_array("src", np.arange(16.0))
    dst = dev.alloc("dst", 16)
    with pytest.raises(MemoryFault):
        Executor(dev).launch(k, 1, 32, {"src": src, "dst": dst, "n": 32})


def test_shared_out_of_bounds_faults():
    b = KernelBuilder("k")
    o = b.param_buf("o")
    s = b.shared("s", 8)
    b.sst(s, b.tid_x, 1.0)  # tids 8..31 out of range
    b.st(o, 0, b.sld(s, 0))
    dev = Device()
    o_buf = dev.alloc("o", 1)
    with pytest.raises(ExecutionError, match="out of bounds"):
        _launch(b.finalize(), 1, 32, {"o": o_buf}, device=dev)


def test_read_before_write_register_raises():
    from repro.simt.ir import Instr, Op, Reg

    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    ghost = Reg("ghost", DType.I32)
    b._emit(Instr(Op.MOV, DType.I32, b._new_reg(DType.I32), (ghost,)))
    b.st(o, 0, 1)
    dev = Device()
    o_buf = dev.alloc("o", 1, DType.I32)
    with pytest.raises(ExecutionError, match="read"):
        _launch(b.finalize(), 1, 32, {"o": o_buf}, device=dev)


def _late_predicate_kernel(loop: bool):
    """A kernel whose branch condition is written only inside an If no lane
    takes."""
    b = KernelBuilder("kk")
    o = b.param_buf("o", DType.I32)
    p = b._new_reg(DType.PRED, "p")
    with b.if_(b.ilt(b.tid_x, 0)):
        b.assign(p, b.ige(b.tid_x, 0))
    if loop:
        w = b.while_loop()
        with w.cond():
            w.set_cond(p)
        with w.body():
            b.st(o, b.tid_x, 1)
    else:
        with b.if_(p):
            b.st(o, b.tid_x, 1)
    return b.finalize(), p.name


@pytest.mark.parametrize("loop", [False, True], ids=["if", "while"])
def test_unwritten_branch_condition_raises_the_same_error_on_both_engines(loop):
    kernel, name = _late_predicate_kernel(loop)
    errors = []
    for engine in ("compiled", "interpreted"):
        dev = Device()
        o_buf = dev.alloc("o", 32, DType.I32)
        with pytest.raises(Exception) as info:
            _launch(kernel, 1, 32, {"o": o_buf}, device=dev, engine=engine)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (
        ExecutionError, f"kernel 'kk': register {name!r} read before any write reached it"
    )


def test_select_and_conversions():
    b = KernelBuilder("k")
    o = b.param_buf("o")
    i = b.global_thread_id()
    f = b.i2f(i)
    r = b.sel(b.flt(f, 4.0), b.fmul(f, 10.0), b.fneg(f))
    b.st(o, i, r)
    dev = Device()
    o_buf = dev.alloc("o", 8)
    _launch(b.finalize(), 1, 8, {"o": o_buf}, device=dev)
    expected = [0.0, 10.0, 20.0, 30.0, -4.0, -5.0, -6.0, -7.0]
    assert np.allclose(dev.download(o_buf), expected)


def test_truncating_int_division_matches_c():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    v = b.isub(i, 4)  # -4..3
    b.st(o, i, b.idiv(v, 3))
    dev = Device()
    o_buf = dev.alloc("o", 8, DType.I32)
    _launch(b.finalize(), 1, 8, {"o": o_buf}, device=dev)
    # C semantics: trunc toward zero.
    expected = [int(v / 3) if v >= 0 else -((-v) // 3) for v in range(-4, 4)]
    assert np.array_equal(dev.download(o_buf), expected)


def test_uniform_scalar_address_load():
    b = KernelBuilder("k")
    src = b.param_buf("src")
    dst = b.param_buf("dst")
    b.st(dst, b.global_thread_id(), b.ld(src, 0))
    dev = Device()
    s = dev.from_array("src", np.array([42.0]))
    d = dev.alloc("dst", 32)
    _launch(b.finalize(), 1, 32, {"src": s, "dst": d}, device=dev)
    assert np.all(dev.download(d) == 42.0)


def test_for_range_negative_step():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    acc = b.let_i32(0)
    with b.for_range(5, 0, step=-1) as j:
        b.assign(acc, b.iadd(acc, j))
    b.st(o, b.tid_x, acc)
    dev = Device()
    o_buf = dev.alloc("o", 32, DType.I32)
    _launch(b.finalize(), 1, 32, {"o": o_buf}, device=dev)
    assert dev.download(o_buf)[0] == 5 + 4 + 3 + 2 + 1


def test_non_multiple_of_warp_block():
    k = build_copy_kernel()
    dev = Device()
    h = np.arange(48.0)
    src = dev.from_array("src", h)
    dst = dev.alloc("dst", 48)
    _launch(k, 1, 48, {"src": src, "dst": dst, "n": 48}, device=dev)
    assert np.array_equal(dev.download(dst), h)


# ---------------------------------------------------------------------------
# Block launch-order permutation (used by the verify properties)


def _ctaid_writer():
    """Each block writes its own ctaid.x into its slot of ``o``."""
    b = KernelBuilder("who")
    o = b.param_buf("o", DType.I32)
    with b.if_(b.ieq(b.tid_x, 0)):
        b.st(o, b.ctaid_x, b.ctaid_x)
    return b.finalize()


def test_block_order_preserves_block_identity():
    k = _ctaid_writer()
    dev = Device()
    o = dev.alloc("o", 6, DType.I32)
    ex = Executor(dev, engine="interpreted", block_order=[5, 4, 3, 2, 1, 0])
    ex.launch(k, 6, 32, {"o": o})
    # Visiting blocks in reverse must not change which ctaid each block sees.
    assert dev.download(o).tolist() == [0, 1, 2, 3, 4, 5]


def test_block_order_must_be_a_permutation():
    k = _ctaid_writer()
    dev = Device()
    o = dev.alloc("o", 4, DType.I32)
    with pytest.raises(LaunchError, match="permutation"):
        Executor(dev, engine="interpreted", block_order=[0, 1, 2]).launch(
            k, 4, 32, {"o": o}
        )
    with pytest.raises(LaunchError, match="permutation"):
        Executor(dev, engine="interpreted", block_order=[0, 1, 2, 2]).launch(
            k, 4, 32, {"o": o}
        )


def test_block_order_rejected_on_non_interpreted_engines():
    with pytest.raises(LaunchError, match="interpreted"):
        Executor(Device(), engine="compiled", block_order=[0])
    with pytest.raises(LaunchError, match="interpreted"):
        Executor(Device(), block_order=[0])  # default engine is compiled
