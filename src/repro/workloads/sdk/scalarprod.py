"""Scalar products (CUDA SDK ``scalarProd``).

Each block computes the dot product of one vector pair: grid-stride
element products accumulated in registers, then the standard shared-memory
tree.  A bandwidth-bound streaming kernel with a reduction tail — sits
between VA and RD in the workload space, which is exactly its role in the
SDK.
"""

from __future__ import annotations

from repro.simt import KernelBuilder
from repro.workloads.base import RunContext, Workload, assert_close
from repro.workloads.registry import register


def build_scalarprod_kernel(block: int):
    b = KernelBuilder("scalarprod")
    va = b.param_buf("a")
    vb = b.param_buf("b")
    out = b.param_buf("out")
    length = b.param_i32("length")
    s = b.shared("acc", block)
    tid = b.tid_x
    base = b.imul(b.ctaid_x, length)

    total = b.let_f32(0.0)
    i = b.let_i32(tid)
    loop = b.while_loop()
    with loop.cond():
        loop.set_cond(b.ilt(i, length))
    with loop.body():
        idx = b.iadd(base, i)
        b.assign(total, b.fma(b.ld(va, idx), b.ld(vb, idx), total))
        b.assign(i, b.iadd(i, b.ntid_x))

    b.sst(s, tid, total)
    b.barrier()
    step = b.let_i32(block // 2)
    tree = b.while_loop()
    with tree.cond():
        tree.set_cond(b.igt(step, 0))
    with tree.body():
        with b.if_(b.ilt(tid, step)):
            b.sst(s, tid, b.fadd(b.sld(s, tid), b.sld(s, b.iadd(tid, step))))
        b.barrier()
        b.assign(step, b.ishr(step, 1))
    with b.if_(b.ieq(tid, 0)):
        b.st(out, b.ctaid_x, b.sld(s, 0))
    return b.finalize()


@register
class ScalarProd(Workload):
    abbrev = "SP"
    name = "Scalar Products"
    suite = "CUDA SDK"
    description = "Per-block dot products: streaming FMA + shared-memory reduction"
    default_scale = {"pairs": 16, "length": 1024, "block": 128}

    def run(self, ctx: RunContext) -> None:
        pairs = self.scale["pairs"]
        length = self.scale["length"]
        rng = ctx.rng
        self._a = rng.standard_normal((pairs, length))
        self._b = rng.standard_normal((pairs, length))
        dev = ctx.device
        a = dev.from_array("a", self._a, readonly=True)
        bb = dev.from_array("b", self._b, readonly=True)
        self._out = dev.alloc("out", pairs)
        kernel = build_scalarprod_kernel(self.scale["block"])
        ctx.launch(kernel, pairs, self.scale["block"], {"a": a, "b": bb, "out": self._out, "length": length})

    def check(self, ctx: RunContext) -> None:
        expected = (self._a * self._b).sum(axis=1)
        assert_close(ctx.device.download(self._out), expected, "dot products", tol=1e-9)
