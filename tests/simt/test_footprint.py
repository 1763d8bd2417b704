"""Unit tests for the per-block footprint disjointness analysis.

These exercise :mod:`repro.simt.footprint` directly (affine recovery,
counted-loop recognition, the symbolic disjointness proofs, concrete
extents and greedy grouping) plus the :func:`plan_batches` tier decisions
the compiled engine builds on.  Engine-level bit-parity of the resulting
batch schedules is covered by ``test_engine_parity`` and the fuzz oracle.
"""

import numpy as np

from repro.simt import Device, DType, Executor, KernelBuilder
from repro.simt.compiled import compile_kernel, plan_batches
from repro.simt.executor import stride_sampler
from repro.simt.footprint import (
    _lattice_hits_interval,
    _mixed_radix_injective,
    analyze,
    block_extents,
    group_blocks,
    symbolically_disjoint,
)
from repro.trace.collector import KernelTraceCollector
from repro.workloads import registry
from repro.workloads.base import RunContext

GRID = (8, 1)
BLOCK = (32, 1)
PARAMS = {"o": 1 << 16, "p": 1 << 20}


def _plan(kernel, grid=GRID, block=BLOCK, params=None):
    return plan_batches(
        compile_kernel(kernel), grid, block, dict(params or PARAMS)
    )


# ---------------------------------------------------------------------------
# Affine recovery and symbolic proofs


def test_per_lane_rmw_is_affine_and_symbolically_disjoint():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, i), 1))
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert fp.complete
    assert {s.kind for s in fp.sites} == {"load", "store"}
    # gid = ctaid.x*32 + tid.x: the store form carries a block symbol.
    store = next(s for s in fp.sites if s.kind == "store")
    assert any(fp.syms[i].is_block for i, _c in store.aff.terms)
    assert symbolically_disjoint(fp, GRID)
    assert _plan(b.finalize()).tier == "symbolic_clear"


def test_counted_loop_tiled_store_is_symbolically_disjoint():
    # Each thread writes 8 consecutive elements at gid*8: the loop symbol
    # (count 8, stride 4 bytes) nests under the tid/ctaid strides, so the
    # mixed-radix digit test proves cross-block injectivity.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    base = b.imul(b.global_thread_id(), 8)
    with b.for_range(0, 8) as j:
        b.st(o, b.iadd(base, j), j)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert fp.complete
    (store,) = fp.sites
    assert store.in_loop
    loop_syms = [fp.syms[i] for i, _c in store.aff.terms if fp.syms[i].name == "loop"]
    assert loop_syms and loop_syms[0].count == 8
    assert symbolically_disjoint(fp, GRID)
    assert _plan(b.finalize()).tier == "symbolic_clear"


def test_overlapping_loop_store_pins():
    # Every block's loop writes the same 8 elements: self-disjointness
    # fails, and the identical per-block extents leave nothing to group.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())  # hazard-flag the buffer
    with b.for_range(0, 8) as j:
        b.st(o, j, j)
    kernel = b.finalize()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert fp.complete
    assert not symbolically_disjoint(fp, GRID)
    plan = _plan(kernel)
    assert plan.tier == "pinned"
    assert plan.pin_reason == "footprint-overlap"
    assert plan.limit == 1


def test_imod_folds_when_range_already_fits():
    # gid ranges over [0, 256) so ``gid % 512`` is an identity: the affine
    # form survives the mod and the per-lane store stays provably disjoint.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())
    b.st(o, b.imod(b.global_thread_id(), 512), 1)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert symbolically_disjoint(fp, GRID)
    assert _plan(b.finalize()).tier == "symbolic_clear"


def test_imod_band_loses_block_structure():
    # ``gid % 8`` collapses every block onto the same 8-element band: the
    # result is a bounded anonymous symbol with no block coefficient, so
    # the symbolic proof must fail (and the write genuinely overlaps).
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())
    b.st(o, b.imod(b.global_thread_id(), 8), 1)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert fp.complete
    assert not symbolically_disjoint(fp, GRID)
    ext = block_extents(fp, GRID, GRID[0])
    store = next(e for e in ext if e[0] == "store")
    # Identical 32-byte band (absolute addresses) for every block.
    base = PARAMS["o"]
    assert store[2].tolist() == [base] * 8
    assert store[3].tolist() == [base + 31] * 8


def test_value_limit_rejects_overflowing_addresses():
    # A stride that could push addresses past 2**62 must demote the form
    # to unknown rather than reason with unwrapped Python ints.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())
    b.st(o, b.imul(b.global_thread_id(), 1 << 55), 1)
    kernel = b.finalize()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert not fp.complete
    plan = _plan(kernel)
    assert plan.tier == "pinned"
    assert plan.pin_reason == "opaque-address"


def test_indirect_address_is_opaque():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.st(o, b.ld(o, b.global_thread_id()), 1)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert not fp.complete
    plan = _plan(b.finalize())
    assert plan.tier == "pinned"
    assert plan.pin_reason == "opaque-address"


# ---------------------------------------------------------------------------
# Per-site load relevance and launch-constant loop steps

#: ``o`` is updated in place; ``c`` and ``idx`` are only read.
SRAD2_PARAMS = {"o": 1 << 16, "c": 1 << 18, "idx": 1 << 20}


def _srad2_like(opaque_src="c"):
    """``o[i] = o[i] + src[idx[i / 32] * 32 + i % 32]``, shaped like SRAD's
    ``srad2``: the neighbour load's address goes through a loaded index,
    so it is opaque to the affine analysis."""
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.F32)
    c = b.param_buf("c", DType.F32)
    idx = b.param_buf("idx", DType.I32)
    i = b.global_thread_id()
    row = b.idiv(i, 32)
    col = b.imod(i, 32)
    src = o if opaque_src == "o" else c
    near = b.ld(src, b.iadd(b.imul(b.ld(idx, row), 32), col))
    b.st(o, i, b.fadd(b.ld(o, i), near))
    return b.finalize()


def test_opaque_loads_of_unstored_buffers_leave_the_analysis():
    plan = _plan(_srad2_like(), params=SRAD2_PARAMS)
    assert plan.tier == "symbolic_clear"
    assert plan.limit > 1


def test_opaque_load_of_the_stored_buffer_pins():
    plan = _plan(_srad2_like(opaque_src="o"), params=SRAD2_PARAMS)
    assert plan.tier == "pinned"
    assert plan.pin_reason == "opaque-address"


def test_opaque_load_through_an_aliasing_param_pins():
    # ``c`` bound to ``o``'s buffer: the load reads what the launch stores.
    aliased = dict(SRAD2_PARAMS, c=SRAD2_PARAMS["o"])
    plan = _plan(_srad2_like(), params=aliased)
    assert plan.tier == "pinned"
    assert plan.pin_reason == "opaque-address"


def _strided_stage(step_assigned_in_loop=False):
    """Block-tiled staging loop ``for (j = tid; j < 64; j += step)``, where
    ``step`` is ``%ntid.x`` (HYS ``oddeven_sort``) or a register the loop
    body grows."""
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    step = b.let_i32(b.ntid_x)
    j = b.let_i32(b.tid_x)
    loop = b.while_loop()
    with loop.cond():
        loop.set_cond(b.ilt(j, 64))
    with loop.body():
        b.st(o, b.iadd(b.imul(b.ctaid_x, 64), j), j)
        if step_assigned_in_loop:
            b.assign(step, b.iadd(step, 1))
            b.assign(j, b.iadd(j, step))
        else:
            b.assign(j, b.iadd(j, b.ntid_x))
    return b.finalize()


def test_ntid_step_loop_is_counted():
    kernel = _strided_stage()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert fp.complete
    (store,) = fp.sites
    loops = [fp.syms[i] for i, _c in store.aff.terms if fp.syms[i].name == "loop"]
    assert [sym.count for sym in loops] == [64 // BLOCK[0]]
    assert symbolically_disjoint(fp, GRID)
    assert _plan(kernel).tier == "symbolic_clear"


def test_step_register_assigned_in_the_loop_is_not_counted():
    kernel = _strided_stage(step_assigned_in_loop=True)
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert not fp.complete
    plan = _plan(kernel)
    assert plan.tier == "pinned"
    assert plan.pin_reason == "opaque-address"


def test_atomics_pin_before_any_analysis():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.atomic_add(o, 0, 1)
    plan = _plan(b.finalize())
    assert plan.tier == "pinned"
    assert plan.pin_reason == "atomics"
    assert plan.limit == 1


# ---------------------------------------------------------------------------
# Concrete extents and greedy grouping


def test_band_plus_tiled_store_reaches_grouped_tier():
    # Store 1 tiles the buffer per block; store 2 writes a fixed 4-element
    # band at offset 64 (inside block 2's tile).  The symbolic pair test
    # fails, but the concrete extents prove most runs of blocks safe.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, 1)
    b.st(o, b.iadd(b.imod(i, 4), 64), 2)
    kernel = b.finalize()
    fp = analyze(kernel, GRID, BLOCK, PARAMS)
    assert fp.complete
    assert not symbolically_disjoint(fp, GRID)
    plan = _plan(kernel)
    assert plan.tier == "footprint_grouped"
    assert plan.largest_group > 1
    assert plan.group_of is not None
    # group_of must be non-decreasing over linear block ids (contiguous runs).
    assert all(
        plan.group_of[i] <= plan.group_of[i + 1]
        for i in range(len(plan.group_of) - 1)
    )
    # Block 2 owns the tile the band lands in, so it cannot share a group
    # with its neighbours.
    assert plan.group_of[1] != plan.group_of[2]
    assert plan.group_of[2] != plan.group_of[3]


def test_group_blocks_synthetic_extents():
    nblocks = 6
    la = np.arange(nblocks, dtype=np.int64)
    # Disjoint per-block bytes: one group covers everything (cap permitting).
    disjoint = [("store", False, la * 4, la * 4 + 3)]
    group_of, groups, largest = group_blocks(disjoint, nblocks, cap=nblocks)
    assert groups == 1 and largest == nblocks
    # The cap splits the run even without conflicts.
    _go, groups, largest = group_blocks(disjoint, nblocks, cap=2)
    assert groups == 3 and largest == 2
    # A same-site *looped* store with identical extents conflicts pairwise.
    looped = [("store", True, np.zeros(nblocks, np.int64), np.full(nblocks, 3, np.int64))]
    _go, groups, largest = group_blocks(looped, nblocks, cap=nblocks)
    assert groups == nblocks and largest == 1
    # The same extents in a single-shot site are allowed to share a group:
    # one scatter's highest-lane-wins already reproduces sequential order.
    single = [("store", False, np.zeros(nblocks, np.int64), np.full(nblocks, 3, np.int64))]
    _go, groups, largest = group_blocks(single, nblocks, cap=nblocks)
    assert groups == 1 and largest == nblocks
    # A read overlapping earlier blocks' writes breaks the run.
    rmw_shifted = [
        ("store", False, la * 4, la * 4 + 3),
        ("load", False, la * 4 + 4, la * 4 + 7),
    ]
    _go, groups, largest = group_blocks(rmw_shifted, nblocks, cap=nblocks)
    assert largest == 1


# ---------------------------------------------------------------------------
# Helper predicates


def test_mixed_radix_injective():
    assert _mixed_radix_injective([(1, 4), (4, 8)])
    assert not _mixed_radix_injective([(1, 8), (4, 8)])  # stride 4 <= span 7
    assert not _mixed_radix_injective([(4, 2), (4, 2)])  # equal strides
    assert _mixed_radix_injective([])


def test_lattice_hits_interval():
    cmap = {"%ctaid.x": 128}
    assert not _lattice_hits_interval(cmap, (8, 1), -127, 127)
    assert _lattice_hits_interval(cmap, (8, 1), -128, 128)
    # A grid dimension absent from the coefficient map collides at delta 0.
    assert _lattice_hits_interval(cmap, (8, 8), -10, 10)


# ---------------------------------------------------------------------------
# Plan caching and workload tiers


def test_plan_batches_caches_per_kernel():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    i = b.global_thread_id()
    b.st(o, i, b.iadd(b.ld(o, i), 1))
    ck = compile_kernel(b.finalize())
    p1 = plan_batches(ck, GRID, BLOCK, dict(PARAMS))
    p2 = plan_batches(ck, GRID, BLOCK, dict(PARAMS))
    assert p1 is p2
    # A different grid is a different cache entry.
    p3 = plan_batches(ck, (4, 1), BLOCK, dict(PARAMS))
    assert p3 is not p1


def test_transpose_workload_unpins_via_symbolic_tier():
    # The SDK transpose loops over tile rows writing dst: the old
    # buffer-granular hazard pinned it to one block per batch.  The
    # footprint pass must now prove the tiles disjoint.
    dev = Device()
    ex = Executor(
        dev,
        sinks=[KernelTraceCollector()],
        profile_filter=stride_sampler(2),
        engine="compiled",
    )
    ctx = RunContext(dev, ex, seed=7)
    registry.get("TR")(width=64, height=64).run(ctx)
    totals = ex.launch_stats_totals
    assert totals["hazard_tiers"].get("symbolic_clear", 0) >= 1
    assert ex.last_launch_stats["largest_batch"] > 1


def _kernel_plans(abbrev):
    """``kernel name -> (hazard tier, pin reason)`` of one workload's
    launches at default scale on the compiled engine."""
    dev = Device()
    ex = Executor(dev, engine="compiled")
    plans = {}
    launch = ex.launch

    def spy(kernel, *args):
        launch(kernel, *args)
        stats = ex.last_launch_stats
        plans[kernel.name] = (stats["hazard_tier"], stats["pin_reason"])

    ex.launch = spy
    registry.get(abbrev)().run(RunContext(dev, ex, seed=7))
    return plans


def test_suite_launches_unpinned_by_load_sites_and_loop_steps():
    assert _kernel_plans("SRAD")["srad2"] == ("symbolic_clear", None)
    assert _kernel_plans("SS")["similarity_score"] == ("symbolic_clear", None)
    assert _kernel_plans("HYS")["oddeven_sort"] == ("symbolic_clear", None)
    # BFS stores through data-dependent addresses: it must stay pinned.
    assert _kernel_plans("BFS")["bfs_level"] == ("pinned", "opaque-address")
