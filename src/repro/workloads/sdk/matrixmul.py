"""Matrix multiplication (CUDA SDK ``matrixMul``).

Classic shared-memory tiled GEMM: 16x16 tiles of A and B staged through
shared memory with barriers, inner-product accumulation in registers.
Dense FP/FMA mix, perfectly coalesced loads, high ILP — the compute-bound
reference point of the workload space.
"""

from __future__ import annotations

from repro.simt import KernelBuilder
from repro.workloads.base import RunContext, Workload, assert_close
from repro.workloads.registry import register

TILE = 16


def build_matrixmul_kernel(width: int):
    """C = A @ B for square matrices of compile-time ``width``."""
    b = KernelBuilder("matrixmul")
    pa = b.param_buf("A")
    pb = b.param_buf("B")
    pc = b.param_buf("C")
    sa = b.shared("As", TILE * TILE)
    sb = b.shared("Bs", TILE * TILE)

    tx = b.tid_x
    ty = b.tid_y
    row = b.iadd(b.imul(b.ctaid_y, TILE), ty)
    col = b.iadd(b.imul(b.ctaid_x, TILE), tx)
    acc = b.let_f32(0.0)
    smem_idx = b.iadd(b.imul(ty, TILE), tx)

    ntiles = width // TILE
    with b.for_range(0, ntiles) as t:
        a_idx = b.iadd(b.imul(row, width), b.iadd(b.imul(t, TILE), tx))
        b_idx = b.iadd(b.imul(b.iadd(b.imul(t, TILE), ty), width), col)
        b.sst(sa, smem_idx, b.ld(pa, a_idx))
        b.sst(sb, smem_idx, b.ld(pb, b_idx))
        b.barrier()
        with b.for_range(0, TILE) as k:
            av = b.sld(sa, b.iadd(b.imul(ty, TILE), k))
            bv = b.sld(sb, b.iadd(b.imul(k, TILE), tx))
            b.assign(acc, b.fma(av, bv, acc))
        b.barrier()

    b.st(pc, b.iadd(b.imul(row, width), col), acc)
    return b.finalize()


@register
class MatrixMul(Workload):
    abbrev = "MM"
    name = "Matrix Multiplication"
    suite = "CUDA SDK"
    description = "Shared-memory tiled dense matrix multiply (16x16 tiles)"
    default_scale = {"width": 64}

    def run(self, ctx: RunContext) -> None:
        width = self.scale["width"]
        assert width % TILE == 0, "width must be a multiple of the tile size"
        self._a = ctx.rng.standard_normal((width, width))
        self._b = ctx.rng.standard_normal((width, width))
        dev = ctx.device
        da = dev.from_array("A", self._a, readonly=True)
        db = dev.from_array("B", self._b, readonly=True)
        self._c = dev.alloc("C", width * width)
        kernel = build_matrixmul_kernel(width)
        tiles = width // TILE
        ctx.launch(kernel, (tiles, tiles), (TILE, TILE), {"A": da, "B": db, "C": self._c})

    def check(self, ctx: RunContext) -> None:
        result = ctx.device.download(self._c).reshape(self._a.shape)
        assert_close(result, self._a @ self._b, "matrix product", tol=1e-9)
