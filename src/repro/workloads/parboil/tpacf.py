"""Two-point angular correlation function (Parboil ``tpacf``).

Each thread takes one galaxy and correlates it against all later galaxies:
the dot product of unit vectors is binned by a binary search over bin-edge
cosines (data-dependent branch ladder), then accumulated with a global
atomic.  Combines SFU-free FP, divergent search loops and contended
atomics.
"""

from __future__ import annotations

import numpy as np

from repro.simt import DType, KernelBuilder, MemSpace
from repro.workloads.base import RunContext, Workload, assert_close, ceil_div
from repro.workloads.registry import register

NBINS = 16


def build_tpacf_kernel(n: int):
    b = KernelBuilder("tpacf_histogram")
    x = b.param_buf("x")
    y = b.param_buf("y")
    z = b.param_buf("z")
    edges = b.param_buf("edges", space=MemSpace.CONST)  # NBINS+1 descending cosines
    bins = b.param_buf("bins", DType.I32)

    i = b.global_thread_id()
    b.ret_if(b.ige(i, n))
    xi = b.ld(x, i)
    yi = b.ld(y, i)
    zi = b.ld(z, i)

    j = b.let_i32(b.iadd(i, 1))
    loop = b.while_loop()
    with loop.cond():
        loop.set_cond(b.ilt(j, n))
    with loop.body():
        dot = b.fma(xi, b.ld(x, j), b.fma(yi, b.ld(y, j), b.fmul(zi, b.ld(z, j))))
        # Binary search: find bin k with edges[k] >= dot > edges[k+1].
        lo = b.let_i32(0)
        hi = b.let_i32(NBINS)
        search = b.while_loop()
        with search.cond():
            search.set_cond(b.ilt(b.iadd(lo, 1), hi))
        with search.body():
            mid = b.ishr(b.iadd(lo, hi), 1)
            ife = b.if_else(b.fge(b.ld(edges, mid), dot))
            with ife.then():
                b.assign(lo, mid)
            with ife.otherwise():
                b.assign(hi, mid)
        b.atomic_add(bins, lo, 1)
        b.assign(j, b.iadd(j, 1))
    return b.finalize()


def tpacf_ref(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Pair counts per bin of the kernel's binary search.

    The edges strictly decrease, so the search settles on the number of
    ``edges[1:NBINS]`` at or above the dot (bin 0 when there are none).
    """
    n = pos.shape[0]
    dots = (pos @ pos.T)[np.triu_indices(n, k=1)]
    k = np.searchsorted(-edges[1:NBINS], -dots, side="right")
    return np.bincount(k, minlength=NBINS).astype(np.int64)


@register
class Tpacf(Workload):
    abbrev = "TPACF"
    name = "TPACF"
    suite = "Parboil"
    description = "Angular correlation: all-pairs dots, binary-search binning, atomics"
    default_scale = {"n": 256, "block": 64}

    def run(self, ctx: RunContext) -> None:
        n = self.scale["n"]
        rng = ctx.rng
        vecs = rng.standard_normal((n, 3))
        self._pos = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        # Descending cosine edges covering [-1, 1].
        self._edges = np.cos(np.linspace(0.0, np.pi, NBINS + 1))
        dev = ctx.device
        args = {
            "x": dev.from_array("x", self._pos[:, 0], readonly=True),
            "y": dev.from_array("y", self._pos[:, 1], readonly=True),
            "z": dev.from_array("z", self._pos[:, 2], readonly=True),
            "edges": dev.from_array("edges", self._edges, readonly=True),
            "bins": dev.alloc("bins", NBINS, DType.I32),
        }
        self._bins = args["bins"]
        kernel = build_tpacf_kernel(n)
        ctx.launch(kernel, ceil_div(n, self.scale["block"]), self.scale["block"], args)

    def check(self, ctx: RunContext) -> None:
        expected = tpacf_ref(self._pos, self._edges)
        assert_close(ctx.device.download(self._bins), expected, "angular bins")
