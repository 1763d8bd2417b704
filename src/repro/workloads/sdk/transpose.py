"""Matrix transpose (CUDA SDK ``transpose``, optimised variant).

The classic 32x32 shared-memory tile with a 32x8 thread block: each thread
copies four rows, the +1 column of padding makes both the row-major write
and the column-major read conflict-free on 32 banks, and all global traffic
is perfectly coalesced.  Pure data movement — no FP arithmetic at all —
which stretches the instruction-mix axis of the workload space.
"""

from __future__ import annotations

from repro.simt import KernelBuilder
from repro.workloads.base import RunContext, Workload, assert_close
from repro.workloads.registry import register

TILE = 32
BLOCK_ROWS = 8
PAD = TILE + 1


def build_transpose_kernel(width: int, height: int):
    b = KernelBuilder("transpose")
    src = b.param_buf("src")
    dst = b.param_buf("dst")
    tile = b.shared("tile", TILE * PAD)

    tx = b.tid_x
    ty = b.tid_y
    x_in = b.iadd(b.imul(b.ctaid_x, TILE), tx)
    y_base = b.iadd(b.imul(b.ctaid_y, TILE), ty)
    with b.for_range(0, TILE, BLOCK_ROWS) as i:
        y = b.iadd(y_base, i)
        b.sst(
            tile,
            b.iadd(b.imul(b.iadd(ty, i), PAD), tx),
            b.ld(src, b.iadd(b.imul(y, width), x_in)),
        )
    b.barrier()
    x_out = b.iadd(b.imul(b.ctaid_y, TILE), tx)
    y_out_base = b.iadd(b.imul(b.ctaid_x, TILE), ty)
    with b.for_range(0, TILE, BLOCK_ROWS) as i2:
        y = b.iadd(y_out_base, i2)
        value = b.sld(tile, b.iadd(b.imul(tx, PAD), b.iadd(ty, i2)))
        b.st(dst, b.iadd(b.imul(y, height), x_out), value)
    return b.finalize()


@register
class Transpose(Workload):
    abbrev = "TR"
    name = "Matrix Transpose"
    suite = "CUDA SDK"
    description = "Shared-memory tiled transpose (32x32 tiles, conflict-free padding)"
    default_scale = {"width": 128, "height": 128}

    def run(self, ctx: RunContext) -> None:
        width = self.scale["width"]
        height = self.scale["height"]
        assert width % TILE == 0 and height % TILE == 0
        self._h = ctx.rng.standard_normal((height, width))
        dev = ctx.device
        src = dev.from_array("src", self._h, readonly=True)
        self._dst = dev.alloc("dst", width * height)
        kernel = build_transpose_kernel(width, height)
        ctx.launch(
            kernel,
            (width // TILE, height // TILE),
            (TILE, BLOCK_ROWS),
            {"src": src, "dst": self._dst},
        )

    def check(self, ctx: RunContext) -> None:
        result = ctx.device.download(self._dst).reshape(self._h.shape[1], self._h.shape[0])
        assert_close(result, self._h.T, "transpose")
