"""Simulator-layer metamorphic properties.

The paper's characteristics are only *microarchitecture-independent* if the
profiles really are functions of the program, not of how the simulator
happened to schedule it.  These properties pin that down:

* permuting block launch order leaves memory and the order-free profile
  sections unchanged (reuse-distance sections legitimately depend on block
  visit order and are excluded — see :data:`repro.verify.data.ORDER_FREE_PASSES`);
* re-factoring the grid shape of a linear-indexed kernel family is
  bit-invisible, including to the reuse sections;
* the compiled engine's hazard-driven batch pinning agrees with the
  interpreted baseline on generated kernels from both grammar bands (the
  whole tri-engine oracle of :func:`repro.fuzz.oracle.run_case`);
* the interpreted engine agrees with the lane-serial reference engine
  (the fuzz oracle's reference leg), the only check that sees a fault in
  the vectorized atomics both batched engines share;
* footprint-grouped batching (hazard-flagged launches whose per-block
  write footprints were proven disjoint by the concrete extent analysis)
  matches the interpreted baseline bit-for-bit, and a falsified extent
  computation is caught;
* batching widened by the per-site load filter (only loads that can read
  a stored buffer enter the footprint analysis) matches the interpreted
  baseline bit-for-bit, and a filter that keeps no load is caught;
* the planner's disjointness claims hold on what actually runs: inside
  every batch a plan allows, no two blocks' recorded byte sets collide
  where the plan says they cannot — through the symbolic and concrete
  footprint tiers (plant: an injectivity test that always succeeds) and
  through batched commuting atomics (plant: float ADD counted as
  commuting);
* device accesses resolved by one bounds test name the same buffer,
  elements or fault as the per-lane resolution.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np

from repro.fuzz.generator import (
    ALIAS_SEED_BASE,
    TILE_SEED_BASE,
    Case,
    build_kernel,
    make_device,
)
from repro.fuzz.oracle import launch_case, reference_applies, reference_leg, run_case
from repro.simt import (
    Device,
    DType,
    Executor,
    MemoryFault,
    SimtError,
    TraceSink,
    compiled,
    footprint,
    memory,
    profile_all_blocks,
)
from repro.simt.classify import COMMUTING_ATOMICS
from repro.simt.events import MEM_KINDS, SPACE_CODE
from repro.simt.ir import Atomic, AtomicOp, MemSpace, Store, While, read_regs, walk_stmts
from repro.verify.data import (
    ORDER_FREE_PASSES,
    RESHARD_NBLOCKS,
    RESHARD_SHAPES,
    RESHARD_VARIANTS,
    case_has_kind,
    case_is_order_free,
    compare_outcomes,
    reversal_order,
    run_reshard,
)
from repro.verify.registry import (
    PLANT_ATTEMPTS,
    CaseProperty,
    PlantResult,
    Property,
    PropertyResult,
    VerifyContext,
    register,
)


class _BlockOrderProperty(CaseProperty):
    """Shared declaration of the two launch-order permutation properties.

    The check runs order-free cases only.  The plant skips that filter: an
    order-*sensitive* case must show diffs, and the filter must reject it.
    """

    scan = 2000
    compare_memory = True
    passes: tuple = ()

    def applies(self, case: Case) -> bool:
        return case_is_order_free(case)

    def plant_applies(self, case: Case) -> bool:
        return not case_is_order_free(case)

    def diffs(self, case: Case) -> List[str]:
        """Differences between the natural and reversed block launch orders."""
        base = launch_case(case, "interpreted")
        permuted = launch_case(case, "interpreted", block_order=reversal_order(case["grid"]))
        return compare_outcomes(
            base,
            permuted,
            label="block-order",
            passes=self.passes,
            compare_memory=self.compare_memory,
        )


@register
class BlockOrderMemory(_BlockOrderProperty):
    name = "sim.block_order.memory"
    layer = "simt"
    invariant = (
        "permuting block launch order leaves device memory bit-identical "
        "for order-free kernels"
    )
    compare_memory = True
    passes = ()
    plant_base = 5000


@register
class BlockOrderSections(_BlockOrderProperty):
    name = "sim.block_order.sections"
    layer = "simt"
    invariant = (
        "permuting block launch order leaves the order-free profile sections "
        "(mix/ilp/branch/coalescing/shared) numerically unchanged"
    )
    compare_memory = False
    passes = ORDER_FREE_PASSES
    plant_base = 6000


@register
class ReshardSections(Property):
    name = "sim.reshard.sections"
    layer = "simt"
    invariant = (
        "re-factoring the grid shape of a linear-indexed kernel leaves memory "
        "and every profile section bit-identical"
    )

    def check(self, ctx: VerifyContext) -> PropertyResult:
        cases = 0
        failures: List[str] = []
        counterexample: Optional[Dict] = None
        for variant in range(RESHARD_VARIANTS):
            base = run_reshard(variant, (RESHARD_NBLOCKS, 1))
            for shape in RESHARD_SHAPES:
                cases += 1
                diffs = compare_outcomes(
                    base,
                    run_reshard(variant, shape),
                    label=f"v{variant}@{shape[0]}x{shape[1]}",
                    drop_header_keys=("grid",),
                )
                if diffs and counterexample is None:
                    counterexample = {
                        "variant": variant,
                        "grid": list(shape),
                        "failures": diffs[:8],
                    }
                failures.extend(diffs[:4])
        return self._result(cases, failures, counterexample)

    def plant(self, ctx: VerifyContext) -> PlantResult:
        start = time.perf_counter()
        # The broken sibling addresses by raw ctaid.x, so any non-degenerate
        # factorization collapses distinct blocks onto the same addresses.
        diffs = compare_outcomes(
            run_reshard(0, (RESHARD_NBLOCKS, 1), raw_ctaid=True),
            run_reshard(0, (4, 3), raw_ctaid=True),
            label="raw-ctaid@4x3",
            drop_header_keys=("grid",),
        )
        return PlantResult(
            name=self.name,
            detected=bool(diffs),
            seconds=time.perf_counter() - start,
            detail=diffs[0] if diffs else "raw-ctaid sibling was not detected",
        )


@register
class BatchParity(CaseProperty):
    name = "sim.batch.parity"
    layer = "simt"
    invariant = (
        "hazard-pinned compiled batching matches the interpreted baseline "
        "(memory, profiles, error class) on generated kernels"
    )
    budget = (4, 20)
    plant_base = 7000

    def case_seeds(self, ctx: VerifyContext) -> Iterator[int]:
        """Alternate the base grammar (seeds below ``ALIAS_SEED_BASE``, drawn
        from the property's generator) with the aliasing grammar."""
        base = ctx.rng(self.name)
        for i in itertools.count():
            yield int(base.integers(ALIAS_SEED_BASE))
            yield ctx.case_seed(self.name, i)

    def diffs(self, case: Case) -> List[str]:
        return run_case(case).failures

    def verdict(self, case: Case) -> Tuple[List[str], Dict[str, bool]]:
        """One oracle run, tallied by semantics tag, agreed fault and
        whether the reference leg ran."""
        report = run_case(case)
        return report.failures, {
            "lane-disjoint": report.tag == "lane-disjoint",
            "communicating": report.tag == "communicating",
            "agreed-fault": report.baseline.status == "error",
            "reference-leg": "reference" in report.engines_run,
        }

    def plant_applies(self, case: Case) -> bool:
        return case_has_kind(case, ("gstore_overlap",))

    def mutant(self):
        """Disable the batching-hazard analysis.

        With ``_batch_hazard`` forced to ``False`` the compiled engine
        silently batches kernels with overlapping cross-block stores, which
        reorders their store streams relative to the interpreted baseline.
        """
        return mock.patch.object(compiled, "_batch_hazard", lambda ck, params: False)


@register
class ReferenceParity(CaseProperty):
    name = "sim.reference.parity"
    layer = "simt"
    invariant = (
        "the interpreted engine's device memory and error class match the "
        "lane-serial reference engine on generated kernels it can run"
    )
    budget = (6, 30)
    plant_base = 9000

    def applies(self, case: Case) -> bool:
        return reference_applies(case)

    def diffs(self, case: Case) -> List[str]:
        return reference_leg(case)

    def plant_applies(self, case: Case) -> bool:
        return case_has_kind(case, ("atomic",)) and reference_applies(case)

    def mutant(self):
        """Swap atomic MIN for ``np.maximum`` in the vectorized atomics.

        Both batched engines share ``_ATOMIC_UFUNCS``, so only the
        reference engine's scalar lane loop can tell: this is why the
        reference engine is kept.
        """
        return mock.patch.dict(memory._ATOMIC_UFUNCS, {AtomicOp.MIN: np.maximum})


def _case_plan(case: Case):
    """Batch plan the compiled engine would use for *case* at auto settings."""
    ck = compiled.compile_kernel(build_kernel(case))
    dev, bufs = make_device(case)
    params = {name: buf.base for name, buf in bufs.items()}
    return compiled.plan_batches(ck, (case["grid"], 1), tuple(case["block"]), params, device=dev)


@register
class FootprintGrouping(CaseProperty):
    name = "simt.footprint_grouping"
    layer = "simt"
    invariant = (
        "footprint-grouped compiled batching (hazard-flagged launches whose "
        "per-block write extents are disjoint) matches the interpreted "
        "baseline bit-for-bit in memory and every profile section"
    )
    budget = (3, 12)
    #: The default seed stream draws only the aliasing grammar, whose oload
    #: / bandstore statements reach the grouped tier.  Grouped-tier cases
    #: make up roughly a fifth of that seed space, so this cap on rejected
    #: seeds comfortably covers the deep basket while bounding a degenerate
    #: scan.
    scan = 2000
    plant_base = ALIAS_SEED_BASE + 770_000

    def applies(self, case: Case) -> bool:
        return _case_plan(case).tier == "footprint_grouped"

    def diffs(self, case: Case) -> List[str]:
        """Interpreted vs compiled differences (memory + every profile section)."""
        return compare_outcomes(
            launch_case(case, "interpreted"),
            launch_case(case, "compiled"),
            label="footprint-grouping",
        )

    def mutant(self):
        """Falsify the extent analysis.

        The planted ``block_extents`` collapses every site's per-block
        footprint to the single byte ``[block, block]``, so genuinely
        overlapping blocks look pairwise disjoint and get batched together
        — exactly the failure an unsound footprint analysis would cause.
        """
        real = footprint.block_extents

        def collapsed(fp, grid, nblocks):
            extents = real(fp, grid, nblocks)
            if extents is None:
                return None
            fake = np.arange(nblocks, dtype=np.int64)
            return [(kind, in_loop, fake, fake, None) for kind, in_loop, *_ in extents]

        return mock.patch.object(footprint, "block_extents", collapsed)


def _every_load_site(ck, params_by_name) -> frozenset:
    return frozenset(ck.load_sites)


@register
class FootprintLoadSites(CaseProperty):
    name = "simt.footprint.load_sites"
    layer = "simt"
    invariant = (
        "batching widened by keeping from the footprint analysis only the "
        "load sites that can read a stored buffer matches the interpreted "
        "baseline bit-for-bit in memory and every profile section"
    )
    budget = (3, 12)
    #: About one aliasing-band case in forty that reads an output buffer
    #: (``oload``) also plans wider than with every load site kept; this cap
    #: on rejected seeds covers the deep basket with room to spare.
    scan = 5000
    plant_base = ALIAS_SEED_BASE + 880_000

    def applies(self, case: Case) -> bool:
        """Cases that read a stored buffer, planned wider than they would be
        with every load site in the footprint analysis."""
        if not case_has_kind(case, ("oload",)):
            return False
        plan = _case_plan(case)
        with mock.patch.object(compiled, "_colliding_loads", _every_load_site):
            every = _case_plan(case)
        return (plan.tier, plan.groups) != (every.tier, every.groups)

    def diffs(self, case: Case) -> List[str]:
        """Interpreted vs compiled differences (memory + every profile section)."""
        return compare_outcomes(
            launch_case(case, "interpreted"),
            launch_case(case, "compiled"),
            label="footprint-load-sites",
        )

    def mutant(self):
        """Keep no load site at all.

        Neither the hazard test nor the footprint analysis then sees the
        ``oload`` reads of ``out``/``fout``, so a block batched with its
        neighbours reads an element before, not after, a lower block's
        store to it.
        """
        return mock.patch.object(
            compiled, "_colliding_loads", lambda ck, params_by_name: frozenset()
        )


class _ByteRecorder(TraceSink):
    """Every delivered batch's block ids, and every global access of every
    block as ``(block, sid, kind, bytes)``."""

    def __init__(self) -> None:
        self.batches: List[Tuple[int, ...]] = []
        self.accesses: List[Tuple[int, int, str, np.ndarray]] = []

    def subscriptions(self):
        return frozenset({"mem"})

    def on_batch(self, batch) -> None:
        self.batches.append(tuple(batch.block_ids))
        mem = batch.mem
        for e in np.flatnonzero(mem.space == SPACE_CODE[MemSpace.GLOBAL]).tolist():
            esize = int(mem.elem_size[e])
            for row, block in enumerate(batch.block_ids):
                addrs = mem.addrs[e, row][mem.act[e, row]]
                nbytes = (addrs[:, None] + np.arange(esize)).ravel()
                self.accesses.append(
                    (block, int(mem.sid[e]), MEM_KINDS[mem.kind[e]], np.unique(nbytes))
                )


def _record(case: Case, engine: str) -> _ByteRecorder:
    """One launch of ``case`` with every block profiled into a recorder; a
    faulting launch stops where it stops, and the record keeps what ran."""
    dev, bufs = make_device(case)
    recorder = _ByteRecorder()
    ex = Executor(dev, sinks=[recorder], profile_filter=profile_all_blocks, engine=engine)
    try:
        ex.launch(build_kernel(case), case["grid"], tuple(case["block"]), bufs)
    except SimtError:
        pass
    return recorder


def _collisions(case: Case) -> List[str]:
    """Cross-block collisions inside the batches the compiled engine runs.

    The batches are the ones the compiled engine delivers with every block
    profiled; the byte sets are the interpreter's, whose sequential run is
    the reference.  The blocks of each batch are compared pairwise: a write
    (store or atomic) must not meet another block's write or load.  Exempt
    are a straight-line store site meeting itself (the scatter's
    highest-lane-wins order is the sequential one) and commuting atomics of
    one op whose old values no statement reads, judged by the classifier's
    table, not by the planner's copy a plant may widen.
    """
    batches = [b for b in _record(case, "compiled").batches if len(b) > 1]
    if not batches:
        return []
    kernel = build_kernel(case)
    reads = read_regs(kernel.body)
    looped = {
        s.sid
        for w in kernel.walk()
        if isinstance(w, While)
        for s in walk_stmts(list(w.cond_body) + list(w.body))
    }
    straight_stores = {
        s.sid for s in kernel.walk() if isinstance(s, Store) and s.sid not in looped
    }
    commuting = {
        s.sid: s.op
        for s in kernel.walk()
        if isinstance(s, Atomic)
        and (s.op, s.dtype) in COMMUTING_ATOMICS
        and (s.dest is None or s.dest.name not in reads)
    }
    by_block: Dict[int, List[Tuple[int, str, np.ndarray]]] = {}
    for block, sid, kind, nbytes in _record(case, "interpreted").accesses:
        by_block.setdefault(block, []).append((sid, kind, nbytes))

    def benign(a, b) -> bool:
        (sa, ka, _), (sb, kb, _) = a, b
        if ka == "load" and kb == "load":
            return True
        if ka == kb == "store" and sa == sb and sa in straight_stores:
            return True
        return ka == kb == "atomic" and sa in commuting and commuting.get(sb) is commuting[sa]

    out: List[str] = []
    for batch in batches:
        for i, b1 in enumerate(batch):
            for b2 in batch[i + 1 :]:
                for a in by_block.get(b1, ()):
                    for b in by_block.get(b2, ()):
                        if benign(a, b):
                            continue
                        common = np.intersect1d(a[2], b[2], assume_unique=True)
                        if common.size:
                            out.append(
                                f"batch {batch[0]}-{batch[-1]}: block {b1} {a[1]} sid "
                                f"{a[0]} and block {b2} {b[1]} sid {b[0]} share byte "
                                f"0x{int(common[0]):x}"
                            )
                            if len(out) >= 8:
                                return out
    return out


class _PlanSoundness(CaseProperty):
    """Shared check of the planner's disjointness claims (:func:`_collisions`)."""

    budget = (3, 12)

    def diffs(self, case: Case) -> List[str]:
        return _collisions(case)

    def verdict(self, case: Case) -> Tuple[List[str], Dict[str, bool]]:
        """One check, tallied by plan tier, atomics and grammar band."""
        return _collisions(case), {
            _case_plan(case).tier: True,
            "atomics": case_has_kind(case, ("atomic",)),
            "tile-grammar": case["seed"] >= TILE_SEED_BASE,
        }


@register
class FootprintSound(_PlanSoundness):
    name = "simt.footprint.sound"
    layer = "simt"
    invariant = (
        "inside every batch the planner allows for a hazard-flagged launch, "
        "no two blocks' recorded byte sets collide (store x store, store x "
        "load; same-site only for straight-line stores)"
    )
    #: Hazard-flagged launches that batch are most of the tile band and a
    #: third of the aliasing band; this cap on rejected seeds is generous.
    scan = 2000
    plant_base = TILE_SEED_BASE + 990_000

    def case_seeds(self, ctx: VerifyContext) -> Iterator[int]:
        """Alternate the aliasing grammar with the tile grammar, whose
        block-strided tile stores are the looped sites the symbolic
        self-disjointness proof decides."""
        for i in itertools.count():
            yield ctx.case_seed(self.name, i)
            yield TILE_SEED_BASE + ctx.case_seed(self.name, i)

    def applies(self, case: Case) -> bool:
        plan = _case_plan(case)
        if plan.tier in ("symbolic_clear", "footprint_grouped"):
            return True
        return plan.tier == "clear" and case_has_kind(case, ("atomic",))

    def mutant(self):
        """Call every mixed-radix digit set injective, so looped tile stores
        whose tiles overlap their neighbours' plan ``symbolic_clear``."""
        return mock.patch.object(footprint, "_mixed_radix_injective", lambda terms: True)


@register
class AtomicsSound(_PlanSoundness):
    name = "simt.atomics.sound"
    layer = "simt"
    invariant = (
        "blocks batched across atomics never collide except through integer "
        "ADD/MIN/MAX of one op whose old values nobody reads"
    )
    #: About one aliasing-band case in six batches across atomics.
    scan = 2000
    plant_base = ALIAS_SEED_BASE + 990_000

    def applies(self, case: Case) -> bool:
        return case_has_kind(case, ("atomic",)) and _case_plan(case).tier != "pinned"

    def mutant(self):
        """Count float ADD as commuting: float atomics then batch, and their
        lane order changes the rounding of every sum they share."""
        planted = compiled._COMMUTING_ATOMICS | {(AtomicOp.ADD, DType.F32)}
        return mock.patch.object(compiled, "_COMMUTING_ATOMICS", planted)


def _random_device(rng: np.random.Generator) -> Device:
    """One to four buffers; counts of 64 and 128 leave no alignment gap."""
    dev = Device()
    for i in range(int(rng.integers(1, 5))):
        dtype = (DType.I32, DType.F32, DType.PRED)[int(rng.integers(3))]
        dev.alloc(f"b{i}", int(rng.choice((1, 7, 64, 70, 128))), dtype)
    return dev


def _lane_map(route, addrs: np.ndarray, esize: int):
    """Per-lane ``(buffer, element)`` pairs of one resolution, or its fault."""
    try:
        groups = route(addrs, esize)
    except MemoryFault as exc:
        return str(exc)
    lanes = [None] * addrs.size
    for buf, sel, elems in groups:
        for lane, elem in zip(np.arange(addrs.size)[sel].tolist(), elems.tolist()):
            lanes[lane] = (buf.name, elem)
    return lanes


def _resolve_diffs(dev: Device, rng: np.random.Generator, vectors: int = 64) -> List[str]:
    """Accesses where the bounds test and the per-lane resolution disagree.

    Each vector hits one buffer, with one lane left alone or moved to
    another buffer, an edge or alignment gap, a misaligned or a below-heap
    address.
    """
    bufs = dev.buffers
    edges = [a for b in bufs for a in (b.base, b.end - 4, b.end)]
    diffs = []
    for _ in range(vectors):
        buf, other = (bufs[i] for i in rng.integers(len(bufs), size=2))
        addrs = buf.base + 4 * rng.integers(0, buf.count, int(rng.integers(1, 33)))
        addrs[int(rng.integers(addrs.size))] = rng.choice([
            addrs[0],
            other.base + 4 * int(rng.integers(other.count)),
            edges[int(rng.integers(len(edges)))],
            addrs[0] + int(rng.integers(1, 4)),
            int(rng.integers(0, 0x1000)),
        ])
        esize = int(rng.choice((4, 4, 4, 1)))
        fast = _lane_map(dev._resolve, addrs, esize)
        slow = _lane_map(dev._resolve_lanes, addrs, esize)
        if fast != slow:
            diffs.append(
                f"{addrs.tolist()!s:.60} esize={esize}: bounds test {fast!s:.60}, "
                f"per-lane {slow!s:.60}"
            )
    return diffs


@register
class MemoryResolve(Property):
    name = "sim.memory.resolve"
    layer = "simt"
    invariant = (
        "a device access resolved by one min/max bounds test maps to the same "
        "buffer and elements, or raises the same fault, as the per-lane path"
    )

    def check(self, ctx: VerifyContext) -> PropertyResult:
        rng = ctx.rng(self.name)
        n = ctx.cases(8, 40)
        for case in range(n):
            dev = _random_device(rng)
            diffs = _resolve_diffs(dev, rng)
            if diffs:
                layout = [(b.name, b.base, b.count, b.dtype.value) for b in dev.buffers]
                return self._result(
                    case + 1, diffs[:4], {"buffers": layout, "failures": diffs[:8]}
                )
        return self._result(n, [])

    def plant(self, ctx: VerifyContext) -> PlantResult:
        """Move the bounds test's end by one element (``hi > end`` faults)."""
        start = time.perf_counter()
        rng = ctx.rng(self.name)
        diffs: List[str] = []
        for _ in range(PLANT_ATTEMPTS):
            dev = _random_device(rng)
            dev._ends = [end + 4 for end in dev._ends]
            diffs = _resolve_diffs(dev, rng)
            if diffs:
                break
        return PlantResult(
            name=self.name,
            detected=bool(diffs),
            seconds=time.perf_counter() - start,
            detail=diffs[0] if diffs else f"no disagreement on {PLANT_ATTEMPTS} layouts",
        )
