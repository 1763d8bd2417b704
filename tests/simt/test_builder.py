"""Builder DSL: IR construction, validation and misuse errors."""

import pytest

from repro.simt import BuildError, DType, KernelBuilder, MemSpace
from repro.simt.ir import If, Instr, Load, Op, Store


def test_simple_kernel_structure():
    b = KernelBuilder("k")
    x = b.param_buf("x")
    n = b.param_i32("n")
    i = b.global_thread_id()
    with b.if_(b.ilt(i, n)):
        b.st(x, i, b.fadd(b.ld(x, i), 1.0))
    k = b.finalize()
    assert k.name == "k"
    assert len(k.params) == 2
    ifs = [s for s in k.walk() if isinstance(s, If)]
    assert len(ifs) == 1
    assert any(isinstance(s, Store) for s in k.walk())


def test_sids_unique_and_dense():
    b = KernelBuilder("k")
    x = b.param_buf("x")
    with b.for_range(0, 4) as i:
        b.st(x, i, 1.0)
    k = b.finalize()
    sids = [s.sid for s in k.walk()]
    assert sorted(sids) == list(range(len(sids)))


def test_finalize_idempotent():
    b = KernelBuilder("k")
    b.iadd(1, 2)
    assert b.finalize() is b.finalize()


def test_emit_after_finalize_rejected():
    b = KernelBuilder("k")
    b.finalize()
    with pytest.raises(BuildError):
        b.iadd(1, 2)


def test_duplicate_param_rejected():
    b = KernelBuilder("k")
    b.param_i32("n")
    with pytest.raises(BuildError, match="duplicate"):
        b.param_f32("n")


def test_duplicate_shared_rejected():
    b = KernelBuilder("k")
    b.shared("s", 16)
    with pytest.raises(BuildError, match="duplicate"):
        b.shared("s", 16)


def test_shared_offsets_are_disjoint():
    b = KernelBuilder("k")
    s1 = b.shared("a", 16, DType.F32)
    s2 = b.shared("b", 8, DType.I32)
    assert s1.decl.offset == 0
    assert s2.decl.offset == 16 * 4
    k = b.finalize()
    assert k.shared_bytes == 16 * 4 + 8 * 4


def test_nonpositive_shared_rejected():
    b = KernelBuilder("k")
    with pytest.raises(BuildError):
        b.shared("s", 0)


def test_branch_condition_must_be_predicate():
    b = KernelBuilder("k")
    r = b.iadd(1, 2)
    with pytest.raises(BuildError, match="predicate"):
        with b.if_(r):
            pass


def test_while_without_cond_rejected_at_finalize():
    b = KernelBuilder("k")
    loop = b.while_loop()
    with loop.cond():
        b.ilt(1, 2)  # computed but never set
    with loop.body():
        pass
    with pytest.raises(BuildError, match="no condition"):
        b.finalize()


def test_while_body_before_cond_rejected():
    b = KernelBuilder("k")
    loop = b.while_loop()
    with pytest.raises(BuildError):
        with loop.body():
            pass


def test_if_else_otherwise_before_then_rejected():
    b = KernelBuilder("k")
    ife = b.if_else(b.ilt(1, 2))
    with pytest.raises(BuildError):
        with ife.otherwise():
            pass


def test_for_range_zero_step_rejected():
    b = KernelBuilder("k")
    with pytest.raises(BuildError):
        with b.for_range(0, 4, step=0):
            pass


def test_finalize_inside_open_block_rejected():
    b = KernelBuilder("k")
    cm = b.if_(b.ilt(1, 2))
    cm.__enter__()
    with pytest.raises(BuildError, match="open control-flow"):
        b.finalize()


def test_store_to_const_buffer_rejected():
    b = KernelBuilder("k")
    c = b.param_buf("c", space=MemSpace.CONST)
    with pytest.raises(BuildError, match="const"):
        b.st(c, 0, 1.0)


def test_shared_buf_param_rejected():
    b = KernelBuilder("k")
    with pytest.raises(BuildError):
        b.param_buf("s", space=MemSpace.SHARED)


def test_atomic_on_const_rejected():
    b = KernelBuilder("k")
    c = b.param_buf("c", DType.I32, space=MemSpace.CONST)
    with pytest.raises(BuildError):
        b.atomic_add(c, 0, 1)


def test_immediate_coercion():
    b = KernelBuilder("k")
    r = b.fadd(1.5, 2)  # int immediate coerced into the fp context
    k_instr = b._body[-1]
    assert isinstance(k_instr, Instr)
    assert k_instr.op is Op.FADD
    assert r.dtype is DType.F32


def test_bad_operand_rejected():
    b = KernelBuilder("k")
    with pytest.raises(BuildError):
        b.iadd("nope", 1)  # type: ignore[arg-type]


def test_address_arithmetic_emitted_for_ld():
    b = KernelBuilder("k")
    x = b.param_buf("x")
    b.ld(x, b.tid_x)
    k = b.finalize()
    ops = [s.op for s in k.walk() if isinstance(s, Instr)]
    assert Op.ISHL in ops  # strength-reduced scale
    assert Op.IADD in ops  # base + offset
    assert any(isinstance(s, Load) for s in k.walk())


def test_ret_if_creates_if_with_return():
    from repro.simt.ir import Return

    b = KernelBuilder("k")
    b.ret_if(b.ilt(b.tid_x, 1))
    k = b.finalize()
    assert any(isinstance(s, Return) for s in k.walk())


def test_kernel_param_lookup():
    b = KernelBuilder("k")
    b.param_i32("n")
    k = b.finalize()
    assert k.param("n").dtype is DType.I32
    with pytest.raises(BuildError):
        k.param("missing")


def test_walk_covers_nested_bodies():
    b = KernelBuilder("k")
    x = b.param_buf("x", DType.I32)
    with b.for_range(0, 2):
        with b.if_(b.ilt(b.tid_x, 1)):
            b.st(x, 0, 1)
    k = b.finalize()
    kinds = {type(s).__name__ for s in k.walk()}
    assert {"While", "If", "Store", "Instr"} <= kinds
