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


def _atomic_kernel(op="add", dtype=DType.I32, read_old=False, also=None):
    """One atomic on ``o``; ``also`` adds a second access to ``o`` (a
    ``"load"``, a ``"store"`` or an atomic ``"max"``)."""
    b = KernelBuilder("k")
    o = b.param_buf("o", dtype)
    p = b.param_buf("p", DType.I32)
    i = b.global_thread_id()
    idx = b.imod(i, 4)
    if op == "cas":
        old = b.atomic_cas(o, idx, 0, 1)
    else:
        old = getattr(b, "atomic_" + op)(o, idx, 1)
    if read_old:
        b.st(p, i, old)
    if also == "load":
        b.st(p, i, b.ld(o, i))
    elif also == "store":
        b.st(o, b.iadd(i, 4), 1)
    elif also == "max":
        b.atomic_max(o, idx, 2)
    return b.finalize()


def test_commuting_int_atomics_leave_the_analysis():
    for op in ("add", "min", "max"):
        plan = _plan(_atomic_kernel(op))
        assert (plan.tier, plan.pin_reason) == ("clear", None), op
        assert plan.limit > 1
    # The same op twice on one buffer still commutes.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.atomic_add(o, 0, 1)
    with b.for_range(0, 3) as j:
        b.atomic_add(o, j, 2, want_old=False)
    assert _plan(b.finalize()).tier == "clear"


def test_atomic_disqualifiers_pin():
    cases = {
        "float add": _atomic_kernel(dtype=DType.F32),
        "exch": _atomic_kernel("exch"),
        "cas": _atomic_kernel("cas"),
        "old value read": _atomic_kernel(read_old=True),
        "buffer also loaded": _atomic_kernel(also="load"),
        "buffer also stored": _atomic_kernel(also="store"),
        "two ops on one buffer": _atomic_kernel(also="max"),
    }
    for label, kernel in cases.items():
        plan = _plan(kernel)
        assert (plan.tier, plan.pin_reason, plan.limit) == ("pinned", "atomics", 1), label


def test_atomic_target_aliased_by_a_loaded_param_pins():
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    p = b.param_buf("p", DType.I32)
    i = b.global_thread_id()
    b.atomic_add(o, b.imod(i, 4), 1)
    b.st(p, i, b.ld(p, i))
    assert _plan(b.finalize()).tier == "symbolic_clear"
    aliased = dict(PARAMS, p=PARAMS["o"])
    assert _plan(b.finalize(), params=aliased).pin_reason == "atomics"


def test_int_atomic_on_a_float_buffer_pins():
    # The device, when known, must hold an I32 buffer at the atomic's base:
    # an integer atomic on float data rounds in lane order.
    kernel = _atomic_kernel()
    for dtype, tier in ((DType.I32, "clear"), (DType.F32, "pinned")):
        dev = Device()
        o = dev.alloc("o", 8, dtype)
        p = dev.alloc("p", GRID[0] * BLOCK[0], DType.I32)
        params = {"o": o.base, "p": p.base}
        plan = plan_batches(compile_kernel(kernel), GRID, BLOCK, params, device=dev)
        assert plan.tier == tier, dtype


def test_bounded_idiv_becomes_a_quotient_symbol():
    # tid.x in [0, 32): tid/8 lands in [0, 4) and (tid+8)/8 in [1, 5).
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    q = b.idiv(b.tid_x, 8)
    q1 = b.idiv(b.iadd(b.tid_x, 8), 8)
    base = b.imul(b.ctaid_x, 64)
    b.st(o, b.iadd(base, q), 1)
    b.st(o, b.iadd(b.iadd(base, 32), q1), 2)
    fp = analyze(b.finalize(), GRID, BLOCK, PARAMS)
    assert fp.complete
    lows = []
    for site in fp.sites:
        (div,) = [fp.syms[i] for i, _c in site.aff.terms if fp.syms[i].name == "div"]
        assert div.count == 4
        lows.append(site.aff.const - PARAMS["o"])
    assert lows == [0, 4 * 33]
    # A dividend that may be negative keeps the quotient opaque.
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    b.ld(o, b.global_thread_id())
    b.st(o, b.idiv(b.isub(b.tid_x, 4), 8), 1)
    assert not analyze(b.finalize(), GRID, BLOCK, PARAMS).complete


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
    disjoint = [("store", False, la * 4, la * 4 + 3, None)]
    group_of, groups, largest = group_blocks(disjoint, nblocks, cap=nblocks)
    assert groups == 1 and largest == nblocks
    # The cap splits the run even without conflicts.
    _go, groups, largest = group_blocks(disjoint, nblocks, cap=2)
    assert groups == 3 and largest == 2
    # A same-site *looped* store with identical extents conflicts pairwise.
    zero, three = np.zeros(nblocks, np.int64), np.full(nblocks, 3, np.int64)
    looped = [("store", True, zero, three, None)]
    _go, groups, largest = group_blocks(looped, nblocks, cap=nblocks)
    assert groups == nblocks and largest == 1
    # The same extents in a single-shot site are allowed to share a group:
    # one scatter's highest-lane-wins already reproduces sequential order.
    single = [("store", False, zero, three, None)]
    _go, groups, largest = group_blocks(single, nblocks, cap=nblocks)
    assert groups == 1 and largest == nblocks
    # A read overlapping earlier blocks' writes breaks the run.
    rmw_shifted = [
        ("store", False, la * 4, la * 4 + 3, None),
        ("load", False, la * 4 + 4, la * 4 + 7, None),
    ]
    _go, groups, largest = group_blocks(rmw_shifted, nblocks, cap=nblocks)
    assert largest == 1


def test_group_blocks_compares_exact_byte_sets():
    # Two 4-byte elements 32 bytes apart per block, blocks 4 bytes apart:
    # the intervals [4b, 4b+35] meet, the byte sets {4b..4b+3, 4b+32..4b+35}
    # of blocks closer than 8 apart do not.
    nblocks = 8
    la = np.arange(nblocks, dtype=np.int64) * 4
    digits = ((1, 4), (32, 2))
    exact = [("store", True, la, la + 35, digits)]
    _go, groups, largest = group_blocks(exact, nblocks, cap=nblocks)
    assert groups == 1 and largest == nblocks
    # Without digits the same footprints compare as intervals and pin.
    interval = [("store", True, la, la + 35, None)]
    _go, groups, largest = group_blocks(interval, nblocks, cap=nblocks)
    assert largest == 1
    # Blocks 32 bytes apart: block b's second element is block b+1's first.
    la = np.arange(nblocks, dtype=np.int64) * 32
    _go, groups, largest = group_blocks([("store", True, la, la + 35, digits)], nblocks, nblocks)
    assert largest == 1


def _tile_rows(dim, load_shift):
    """An NW-shaped launch on a ``dim``-wide matrix: block ``b`` owns the
    16x16 tile at rows ``16*(3-b)+1..``, cols ``16*b+1..`` of one
    anti-diagonal, writes its interior in a row loop and reads the row
    above it, ``load_shift`` columns to the right."""
    b = KernelBuilder("k")
    o = b.param_buf("o", DType.I32)
    tile_row = b.isub(3, b.ctaid_x)
    base_r = b.imul(tile_row, 16)
    base_c = b.imul(b.ctaid_x, 16)
    north = b.iadd(b.imul(base_r, dim), b.iadd(base_c, b.iadd(b.tid_x, load_shift + 1)))
    b.ld(o, north)
    with b.for_range(0, 16) as i:
        out = b.iadd(b.imul(b.iadd(base_r, b.iadd(i, 1)), dim), b.iadd(base_c, b.iadd(b.tid_x, 1)))
        b.st(o, out, 1)
    return b.finalize()


def test_tiles_on_one_anti_diagonal_batch_by_exact_footprints():
    dim = 65
    grid, block = (4, 1), (16, 1)
    kernel = _tile_rows(dim, load_shift=0)
    fp = analyze(kernel, grid, block, PARAMS)
    assert fp.complete and not symbolically_disjoint(fp, grid)
    ext = block_extents(fp, grid, grid[0])
    # Block 0's north row is the last matrix row block 1's tile spans, so
    # it lies inside block 1's write interval and interval grouping alone
    # would pin...
    load = next(e for e in ext if e[0] == "load")
    store = next(e for e in ext if e[0] == "store")
    assert store[2][1] <= load[2][0] and load[3][0] <= store[3][1]
    assert load[4] is not None and store[4] is not None
    interval_only = [e[:4] + (None,) for e in ext]
    assert group_blocks(interval_only, grid[0], grid[0])[2] == 1
    # ...but their byte sets never meet: one batch covers the diagonal.
    plan = _plan(kernel, grid, block)
    assert (plan.tier, plan.groups, plan.largest_group) == ("footprint_grouped", 1, 4)
    # Shifted one tile right, block b's north row is the last row block
    # b+1 writes: a genuine store x load overlap that must still pin.
    plan = _plan(_tile_rows(dim, load_shift=16), grid, block)
    assert (plan.tier, plan.pin_reason) == ("pinned", "footprint-overlap")


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
    """``kernel name -> {(hazard tier, pin reason), ...}`` over all of one
    workload's launches at default scale on the compiled engine."""
    dev = Device()
    ex = Executor(dev, engine="compiled")
    plans = {}
    launch = ex.launch

    def spy(kernel, *args):
        launch(kernel, *args)
        stats = ex.last_launch_stats
        plans.setdefault(kernel.name, set()).add((stats["hazard_tier"], stats["pin_reason"]))

    ex.launch = spy
    registry.get(abbrev)().run(RunContext(dev, ex, seed=7))
    return plans


def test_suite_launches_unpinned_by_load_sites_and_loop_steps():
    assert _kernel_plans("SRAD")["srad2"] == {("symbolic_clear", None)}
    assert _kernel_plans("SS")["similarity_score"] == {("symbolic_clear", None)}
    hys = _kernel_plans("HYS")
    assert hys["oddeven_sort"] == {("symbolic_clear", None)}
    # Commuting integer atomics on buffers of their own batch...
    assert hys["bucket_count"] == {("clear", None)}
    assert _kernel_plans("TPACF")["tpacf_histogram"] == {("clear", None)}
    assert _kernel_plans("HG")["histogram64"] == {("clear", None)}
    # ...an atomic whose old value addresses a store does not.
    assert hys["bucket_scatter"] == {("pinned", "atomics")}
    # Exact per-block footprints separate NW's anti-diagonal tiles and
    # LUD's row/column panels (whose staging loop divides by TILE).
    for plans in (_kernel_plans("NW")["nw_tile"], _kernel_plans("LUD")["lud_perimeter"]):
        assert ("footprint_grouped", None) in plans
        assert all(tier != "pinned" for tier, _ in plans), plans
    # BFS stores through data-dependent addresses: it must stay pinned.
    assert _kernel_plans("BFS")["bfs_level"] == {("pinned", "opaque-address")}
