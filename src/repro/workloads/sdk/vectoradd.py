"""Vector addition (CUDA SDK ``vectorAdd``).

The canonical streaming kernel: one coalesced load pair and store per
thread, a single guard branch, negligible arithmetic.  Anchors the
memory-bound, divergence-free corner of the workload space.
"""

from __future__ import annotations

from repro.simt import KernelBuilder
from repro.workloads.base import RunContext, Workload, assert_close, ceil_div
from repro.workloads.registry import register


def build_vectoradd_kernel():
    b = KernelBuilder("vectoradd")
    va = b.param_buf("a")
    vb = b.param_buf("b")
    vc = b.param_buf("c")
    n = b.param_i32("n")
    i = b.global_thread_id()
    with b.if_(b.ilt(i, n)):
        b.st(vc, i, b.fadd(b.ld(va, i), b.ld(vb, i)))
    return b.finalize()


@register
class VectorAdd(Workload):
    abbrev = "VA"
    name = "VectorAdd"
    suite = "CUDA SDK"
    description = "Element-wise vector addition (streaming, perfectly coalesced)"
    default_scale = {"n": 16384, "block": 256}

    def run(self, ctx: RunContext) -> None:
        n = self.scale["n"]
        block = self.scale["block"]
        self._ha = ctx.rng.standard_normal(n)
        self._hb = ctx.rng.standard_normal(n)
        dev = ctx.device
        a = dev.from_array("a", self._ha, readonly=True)
        bb = dev.from_array("b", self._hb, readonly=True)
        self._c = dev.alloc("c", n)
        kernel = build_vectoradd_kernel()
        ctx.launch(kernel, ceil_div(n, block), block, {"a": a, "b": bb, "c": self._c, "n": n})

    def check(self, ctx: RunContext) -> None:
        assert_close(ctx.device.download(self._c), self._ha + self._hb, "vectoradd output")
