"""Monte Carlo option pricing (CUDA SDK ``MonteCarlo``).

Each thread simulates a batch of price paths with an inline LCG random
number generator (integer-heavy) and Box-Muller-free log-normal terminal
prices (exp/sqrt from the SFU), then the block reduces payoffs through
shared memory.  The per-thread path loop plus the tree reduction mixes
long-running uniform loops with barrier-separated phases.
"""

from __future__ import annotations

import numpy as np

from repro.simt import DType, KernelBuilder
from repro.workloads.base import RunContext, Workload
from repro.workloads.registry import register

# LCG constants (Numerical Recipes), reduced to 31-bit state so the
# simulated 32-bit ISA and the numpy reference agree exactly.
_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 2**31


def _lcg_next(b, state):
    """Advance the per-thread LCG; returns a uniform in (0, 1)."""
    b.assign(state, b.imod(b.iadd(b.imul(state, _LCG_A), _LCG_C), _LCG_M))
    return b.fdiv(b.iadd(b.i2f(state), 1.0), float(_LCG_M + 1))


def build_montecarlo_kernel(block: int, paths_per_thread: int):
    b = KernelBuilder("montecarlo")
    seeds = b.param_buf("seeds", DType.I32)
    payoffs = b.param_buf("payoffs")
    s0 = b.param_f32("s0")
    strike = b.param_f32("strike")
    drift = b.param_f32("drift")  # (r - 0.5*vol^2) * T
    volsqrt = b.param_f32("volsqrt")  # vol * sqrt(T)
    s = b.shared("acc", block)

    tid = b.tid_x
    gid = b.global_thread_id()
    state = b.let_i32(b.ld(seeds, gid))
    total = b.let_f32(0.0)
    with b.for_range(0, paths_per_thread):
        # Inverse-free gaussian surrogate: sum of 4 uniforms, centred/scaled
        # (Irwin-Hall), a classic cheap normal approximation.
        u = b.let_f32(0.0)
        with b.for_range(0, 4):
            b.assign(u, b.fadd(u, _lcg_next(b, state)))
        z = b.fmul(b.fsub(u, 2.0), 1.7320508075688772)  # var 4/12 -> unit
        terminal = b.fmul(s0, b.fexp(b.fma(volsqrt, z, drift)))
        payoff = b.fmax(b.fsub(terminal, strike), 0.0)
        b.assign(total, b.fadd(total, payoff))

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
        b.st(payoffs, b.ctaid_x, b.sld(s, 0))
    return b.finalize()


def montecarlo_ref(seeds: np.ndarray, paths: int, s0, strike, drift, volsqrt) -> float:
    state = seeds.astype(np.int64).copy()
    total = 0.0
    for _ in range(paths):
        u = np.zeros(len(seeds))
        for _ in range(4):
            state = (state * _LCG_A + _LCG_C) % _LCG_M
            u += (state + 1.0) / (_LCG_M + 1)
        z = (u - 2.0) * 1.7320508075688772
        terminal = s0 * np.exp(volsqrt * z + drift)
        total += np.maximum(terminal - strike, 0.0).sum()
    return total


@register
class MonteCarlo(Workload):
    abbrev = "MC"
    name = "MonteCarlo"
    suite = "CUDA SDK"
    description = "Monte Carlo option pricing: per-thread LCG paths + block reduction"
    default_scale = {"block": 128, "blocks": 8, "paths": 16}

    def run(self, ctx: RunContext) -> None:
        block = self.scale["block"]
        blocks = self.scale["blocks"]
        paths = self.scale["paths"]
        nthreads = block * blocks
        self._seeds = ctx.rng.integers(1, _LCG_M, size=nthreads)
        self._params = dict(s0=25.0, strike=28.0, drift=-0.0125, volsqrt=0.3)
        dev = ctx.device
        seeds = dev.from_array("seeds", self._seeds, DType.I32, readonly=True)
        self._payoffs = dev.alloc("payoffs", blocks)
        kernel = build_montecarlo_kernel(block, paths)
        ctx.launch(
            kernel,
            blocks,
            block,
            {"seeds": seeds, "payoffs": self._payoffs, **self._params},
        )
        self._paths = paths

    def check(self, ctx: RunContext) -> None:
        got = ctx.device.download(self._payoffs).sum()
        expected = montecarlo_ref(self._seeds, self._paths, **self._params)
        if not np.isclose(got, expected, rtol=1e-9):
            raise AssertionError(f"montecarlo: got {got}, expected {expected}")
