"""Streamcluster (Rodinia ``streamcluster``).

The ``pgain`` kernel of online facility-location clustering: for a
candidate centre, every thread computes its point's cost delta —
``weight * (dist(point, candidate) - current_cost)``, clamped at zero —
which the host reduces to decide whether opening the candidate pays.
Points are stored point-major like Rodinia's, so the per-lane dimension
walk is strided (KM-style uncoalesced); several candidate evaluations mean
several launches over the same data (high temporal locality).
"""

from __future__ import annotations

import numpy as np

from repro.simt import KernelBuilder
from repro.workloads.base import RunContext, Workload, assert_close, ceil_div
from repro.workloads.registry import register


def build_pgain_kernel(ndims: int):
    b = KernelBuilder("streamcluster_pgain")
    coords = b.param_buf("coords")  # (npoints, ndims) point-major
    weights = b.param_buf("weights")
    cost = b.param_buf("cost")  # current assignment cost per point
    delta = b.param_buf("delta")
    npoints = b.param_i32("npoints")
    candidate = b.param_i32("candidate")

    p = b.global_thread_id()
    b.ret_if(b.ige(p, npoints))
    base = b.imul(p, ndims)
    cbase = b.imul(candidate, ndims)
    d2 = b.let_f32(0.0)
    with b.for_range(0, ndims) as f:
        diff = b.fsub(b.ld(coords, b.iadd(base, f)), b.ld(coords, b.iadd(cbase, f)))
        b.assign(d2, b.fma(diff, diff, d2))
    gain = b.fmul(b.ld(weights, p), b.fsub(d2, b.ld(cost, p)))
    b.st(delta, p, b.fmin(gain, 0.0))
    return b.finalize()


def pgain_ref(coords, weights, cost, candidate):
    d2 = ((coords - coords[candidate]) ** 2).sum(axis=1)
    return np.minimum(weights * (d2 - cost), 0.0)


@register
class StreamCluster(Workload):
    abbrev = "SC"
    name = "Streamcluster"
    suite = "Rodinia"
    description = "Facility-location pgain kernel: candidate cost deltas per point"
    default_scale = {"npoints": 2048, "ndims": 8, "candidates": 4, "block": 128}

    def run(self, ctx: RunContext) -> None:
        npoints = self.scale["npoints"]
        ndims = self.scale["ndims"]
        rng = ctx.rng
        self._coords = rng.standard_normal((npoints, ndims))
        self._weights = rng.uniform(0.5, 2.0, npoints)
        # Current costs: distance to a random incumbent centre.
        incumbent = int(rng.integers(npoints))
        self._cost = ((self._coords - self._coords[incumbent]) ** 2).sum(axis=1)
        self._candidates = rng.choice(npoints, self.scale["candidates"], replace=False)

        dev = ctx.device
        coords = dev.from_array("coords", self._coords, readonly=True)
        weights = dev.from_array("weights", self._weights, readonly=True)
        cost = dev.from_array("cost", self._cost, readonly=True)
        self._deltas = []
        kernel = build_pgain_kernel(ndims)
        grid = ceil_div(npoints, self.scale["block"])
        for c, candidate in enumerate(self._candidates):
            delta = dev.alloc(f"delta{c}", npoints)
            ctx.launch(
                kernel,
                grid,
                self.scale["block"],
                {
                    "coords": coords,
                    "weights": weights,
                    "cost": cost,
                    "delta": delta,
                    "npoints": npoints,
                    "candidate": int(candidate),
                },
            )
            self._deltas.append(delta)

    def check(self, ctx: RunContext) -> None:
        for candidate, delta in zip(self._candidates, self._deltas):
            expected = pgain_ref(self._coords, self._weights, self._cost, int(candidate))
            assert_close(
                ctx.device.download(delta), expected, f"pgain for candidate {candidate}", tol=1e-9
            )
