"""Disassembler and static kernel analysis."""

from repro.simt import DType, KernelBuilder
from repro.simt.disasm import disassemble, static_stats
from repro.workloads.sdk.matrixmul import build_matrixmul_kernel
from repro.workloads.sdk.reduction import build_reduce3_kernel
from tests.conftest import build_copy_kernel


def test_disassemble_structure():
    k = build_copy_kernel()
    text = disassemble(k)
    assert text.startswith(".kernel copy")
    assert ".param buffer src" in text
    assert "ld.global" in text
    assert "st.global" in text
    assert "if {" in text


def test_disassemble_loop_and_shared():
    k = build_reduce3_kernel(128)
    text = disassemble(k)
    assert ".shared f32 sdata[128]" in text
    assert "while {" in text
    assert "bar.sync" in text


def test_disassemble_if_else():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    ife = b.if_else(b.ilt(b.tid_x, 4))
    with ife.then():
        b.st(o, 0, 1)
    with ife.otherwise():
        b.st(o, 1, 2)
    text = disassemble(b.finalize())
    assert "} else {" in text


def test_disassemble_atomic_and_return():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ret_if(b.ige(b.tid_x, 8))
    b.atomic_add(o, 0, 1)
    text = disassemble(b.finalize())
    assert "atom.add" in text
    assert "ret" in text


def test_static_stats_counts():
    k = build_copy_kernel()
    stats = static_stats(k)
    assert stats.static_instructions == k.num_static_stmts
    assert stats.branches == 1
    assert stats.loops == 0
    assert stats.barriers == 0
    assert stats.category_counts["ld.global"] == 1
    assert stats.category_counts["st.global"] == 1
    assert stats.max_nesting == 1


def test_static_stats_reduction():
    k = build_reduce3_kernel(256)
    stats = static_stats(k)
    assert stats.loops == 2  # grid-stride loop + tree loop
    assert stats.barriers == 2
    assert stats.shared_bytes == 256 * 4
    assert stats.max_nesting >= 2


def test_register_pressure_scales_with_live_values():
    def pressure(n_live: int) -> int:
        b = KernelBuilder("k")
        o = b.param_buf("o")
        vals = [b.fadd(float(i), 0.0) for i in range(n_live)]
        total = vals[0]
        for v in vals[1:]:
            total = b.fadd(total, v)
        b.st(o, 0, total)
        return static_stats(b.finalize()).register_pressure

    assert pressure(16) > pressure(4) > 0


def test_register_pressure_accumulator_is_small():
    b = KernelBuilder("k")
    o = b.param_buf("o")
    acc = b.let_f32(0.0)
    for i in range(32):
        b.assign(acc, b.fadd(acc, float(i)))  # one live accumulator
    b.st(o, 0, acc)
    stats = static_stats(b.finalize())
    assert stats.register_pressure <= 4


def test_matrixmul_pressure_reasonable():
    stats = static_stats(build_matrixmul_kernel(64))
    # A tiled GEMM keeps indices + accumulator live: small two-digit range.
    assert 4 <= stats.register_pressure <= 40
