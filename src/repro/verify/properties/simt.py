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
  interpreted baseline on generated kernels (the PR-3 oracle, run as a
  standing invariant);
* the interpreted engine agrees with the lane-serial reference engine
  (the fuzz oracle's reference leg), the only check that sees a fault in
  the vectorized atomics both batched engines share;
* footprint-grouped batching (hazard-flagged launches whose per-block
  write footprints were proven disjoint by the concrete extent analysis)
  matches the interpreted baseline bit-for-bit, and a falsified extent
  computation is caught;
* device accesses resolved by one bounds test name the same buffer,
  elements or fault as the per-lane resolution.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.fuzz.generator import Case, case_stmt_count, generate_case
from repro.fuzz.shrink import shrink_case
from repro.simt import Device, DType, MemoryFault
from repro.verify.data import (
    ORDER_FREE_PASSES,
    RESHARD_NBLOCKS,
    RESHARD_SHAPES,
    RESHARD_VARIANTS,
    case_is_order_free,
    compare_outcomes,
    order_free_cases,
    reversal_order,
    run_case_launch,
    run_reshard,
)
from repro.verify.registry import (
    PlantResult,
    Property,
    PropertyResult,
    VerifyContext,
    register,
)

#: Attempt cap for plant seed searches — each plant scans a dedicated seed
#: stream until it finds a case exhibiting the planted failure mode.
_PLANT_ATTEMPTS = 600


def _case_witness(case: Case, failures: List[str]) -> Dict:
    return {
        "seed": case["seed"],
        "grid": case["grid"],
        "block": list(case["block"]),
        "stmts": case_stmt_count(case),
        "failures": failures[:8],
    }


def _order_diffs(case: Case, compare_memory: bool, passes) -> List[str]:
    """Differences between the natural and reversed block launch orders."""
    nblocks = case["grid"]
    base = run_case_launch(case)
    permuted = run_case_launch(case, block_order=reversal_order(nblocks))
    return compare_outcomes(
        base,
        permuted,
        passes=passes,
        label="block-order",
        compare_memory=compare_memory,
    )


class _BlockOrderProperty(Property):
    """Shared driver for the two launch-order permutation properties."""

    generator_backed = True
    compare_memory = True
    passes: tuple = ()

    def _diffs(self, case: Case) -> List[str]:
        return _order_diffs(case, self.compare_memory, self.passes)

    def check(self, ctx: VerifyContext) -> PropertyResult:
        n = ctx.cases(5, 24)
        seeds = (ctx.case_seed(self.name, i) for i in range(10_000))
        cases = 0
        for case in order_free_cases(seeds, n):
            cases += 1
            failures = self._diffs(case)
            if failures:
                shrunk = shrink_case(
                    case, lambda c: case_is_order_free(c) and bool(self._diffs(c))
                )
                return self._result(
                    cases, failures, _case_witness(shrunk, self._diffs(shrunk))
                )
        return self._result(cases, [])

    def _plant_search(self, fails) -> PlantResult:
        """Find an order-*sensitive* case the check must flag, then shrink it."""
        start = time.perf_counter()
        for attempt in range(_PLANT_ATTEMPTS):
            case = generate_case(self.plant_base + attempt)
            if case_is_order_free(case):
                continue  # the check would (rightly) never see this case
            failures = fails(case)
            if not failures:
                continue
            before = case_stmt_count(case)
            shrunk = shrink_case(case, lambda c: bool(fails(c)))
            return PlantResult(
                name=self.name,
                detected=True,
                seconds=time.perf_counter() - start,
                detail=(
                    f"seed {case['seed']}: {failures[0]} "
                    f"(order-sensitive case correctly rejected by the filter)"
                ),
                shrunk_from=before,
                shrunk_to=case_stmt_count(shrunk),
            )
        return PlantResult(
            name=self.name,
            detected=False,
            seconds=time.perf_counter() - start,
            detail=f"no order-sensitive case found in {_PLANT_ATTEMPTS} seeds",
        )

    plant_base = 5000

    def plant(self, ctx: VerifyContext) -> PlantResult:
        return self._plant_search(self._diffs)


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
    generator_backed = False

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
                    passes=list(base.sections),
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
        base = run_reshard(0, (RESHARD_NBLOCKS, 1), raw_ctaid=True)
        diffs = compare_outcomes(
            base,
            run_reshard(0, (4, 3), raw_ctaid=True),
            passes=list(base.sections),
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
class BatchParity(Property):
    name = "sim.batch.parity"
    layer = "simt"
    invariant = (
        "hazard-pinned compiled batching matches the interpreted baseline "
        "(memory, profiles, error class) on generated kernels"
    )
    generator_backed = True

    def check(self, ctx: VerifyContext) -> PropertyResult:
        from repro.fuzz.oracle import run_case

        n = ctx.cases(4, 20)
        cases = 0
        for i in range(n):
            case = generate_case(ctx.case_seed(self.name, i))
            cases += 1
            report = run_case(case)
            if not report.ok:
                shrunk = shrink_case(case, lambda c: not run_case(c).ok)
                return self._result(
                    cases,
                    report.failures,
                    _case_witness(shrunk, run_case(shrunk).failures),
                )
        return self._result(cases, [])

    def plant(self, ctx: VerifyContext) -> PlantResult:
        """Disable the batching-hazard analysis and prove the oracle notices.

        With ``_batch_hazard`` forced to ``False`` the compiled engine
        silently batches kernels with overlapping cross-block stores, which
        reorders their store streams relative to the interpreted baseline.
        """
        import repro.simt.compiled as compiled
        from repro.fuzz.oracle import run_case
        from repro.verify.data import _case_has_kind

        start = time.perf_counter()
        original = compiled._batch_hazard
        try:
            compiled._batch_hazard = lambda ck, params: False
            for attempt in range(_PLANT_ATTEMPTS):
                case = generate_case(7000 + attempt)
                if not _case_has_kind(case, ("gstore_overlap",)):
                    continue
                if not run_case(case).ok:
                    before = case_stmt_count(case)
                    shrunk = shrink_case(case, lambda c: not run_case(c).ok)
                    failure = run_case(shrunk).failures[0]
                    # The shrunk case must be clean once the hazard
                    # analysis is restored — the plant, not the engine,
                    # is what broke parity.
                    compiled._batch_hazard = original
                    clean = run_case(shrunk).ok
                    return PlantResult(
                        name=self.name,
                        detected=clean,
                        seconds=time.perf_counter() - start,
                        detail=(
                            f"seed {case['seed']}: {failure}"
                            if clean
                            else "shrunk case still fails with hazards restored"
                        ),
                        shrunk_from=before,
                        shrunk_to=case_stmt_count(shrunk),
                    )
            return PlantResult(
                name=self.name,
                detected=False,
                seconds=time.perf_counter() - start,
                detail=f"no parity break found in {_PLANT_ATTEMPTS} seeds",
            )
        finally:
            compiled._batch_hazard = original


@register
class ReferenceParity(Property):
    name = "sim.reference.parity"
    layer = "simt"
    invariant = (
        "the interpreted engine's device memory and error class match the "
        "lane-serial reference engine on generated kernels it can run"
    )
    generator_backed = True

    def check(self, ctx: VerifyContext) -> PropertyResult:
        from repro.fuzz.oracle import reference_applies, reference_leg

        n = ctx.cases(6, 30)
        cases = 0
        for i in range(10_000):
            if cases >= n:
                break
            case = generate_case(ctx.case_seed(self.name, i))
            if not reference_applies(case):
                continue
            cases += 1
            failures = reference_leg(case)
            if failures:
                shrunk = shrink_case(
                    case, lambda c: reference_applies(c) and bool(reference_leg(c))
                )
                return self._result(
                    cases, failures, _case_witness(shrunk, reference_leg(shrunk))
                )
        return self._result(cases, [])

    def plant(self, ctx: VerifyContext) -> PlantResult:
        """Swap atomic MIN for ``np.maximum`` in the vectorized atomics.

        Both batched engines share ``_ATOMIC_UFUNCS``, so only the
        reference engine's scalar lane loop can tell: this is why the
        reference engine is kept.
        """
        import numpy as np

        from repro.fuzz.oracle import reference_applies, reference_leg
        from repro.simt import memory
        from repro.simt.ir import AtomicOp
        from repro.verify.data import _case_has_kind

        start = time.perf_counter()
        ufuncs = memory._ATOMIC_UFUNCS
        original = ufuncs[AtomicOp.MIN]
        try:
            ufuncs[AtomicOp.MIN] = np.maximum
            for attempt in range(_PLANT_ATTEMPTS):
                case = generate_case(9000 + attempt)
                if not (_case_has_kind(case, ("atomic",)) and reference_applies(case)):
                    continue
                failures = reference_leg(case)
                if not failures:
                    continue
                before = case_stmt_count(case)
                shrunk = shrink_case(
                    case, lambda c: reference_applies(c) and bool(reference_leg(c))
                )
                # With the real MIN restored the shrunk case must be clean.
                ufuncs[AtomicOp.MIN] = original
                clean = not reference_leg(shrunk)
                return PlantResult(
                    name=self.name,
                    detected=clean,
                    seconds=time.perf_counter() - start,
                    detail=(
                        f"seed {case['seed']}: {failures[0]}"
                        if clean
                        else "shrunk case still fails with MIN restored"
                    ),
                    shrunk_from=before,
                    shrunk_to=case_stmt_count(shrunk),
                )
            return PlantResult(
                name=self.name,
                detected=False,
                seconds=time.perf_counter() - start,
                detail=f"no reference mismatch found in {_PLANT_ATTEMPTS} seeds",
            )
        finally:
            ufuncs[AtomicOp.MIN] = original


def _case_plan(case: Case):
    """Batch plan the compiled engine would use for *case* at auto settings."""
    from repro.fuzz.generator import build_kernel, make_device
    from repro.simt.compiled import compile_kernel, plan_batches

    ck = compile_kernel(build_kernel(case))
    _dev, bufs = make_device(case)
    params = {name: buf.base for name, buf in bufs.items()}
    return plan_batches(ck, (case["grid"], 1), tuple(case["block"]), params)


def _grouping_diffs(case: Case) -> List[str]:
    """Interpreted vs compiled differences (memory + every profile section)."""
    base = run_case_launch(case)
    grouped = run_case_launch(case, engine="compiled")
    return compare_outcomes(
        base,
        grouped,
        passes=list(base.sections or ()),
        label="footprint-grouping",
        compare_memory=True,
    )


@register
class FootprintGrouping(Property):
    name = "simt.footprint_grouping"
    layer = "simt"
    invariant = (
        "footprint-grouped compiled batching (hazard-flagged launches whose "
        "per-block write extents are disjoint) matches the interpreted "
        "baseline bit-for-bit in memory and every profile section"
    )
    generator_backed = True

    #: Seed-search cap for the check's grouped-case basket.  Grouped-tier
    #: cases make up roughly a fifth of the aliasing seed space, so this
    #: comfortably covers the deep basket while bounding a degenerate scan.
    _SCAN_CAP = 2000

    def check(self, ctx: VerifyContext) -> PropertyResult:
        from repro.fuzz.generator import ALIAS_SEED_BASE

        n = ctx.cases(3, 12)
        cases = 0
        for i in range(self._SCAN_CAP):
            if cases >= n:
                break
            # Force the seed into the aliasing grammar band so oload /
            # bandstore statements (the grouped-tier shapes) are reachable.
            case = generate_case(ALIAS_SEED_BASE | ctx.case_seed(self.name, i))
            if _case_plan(case).tier != "footprint_grouped":
                continue
            cases += 1
            failures = _grouping_diffs(case)
            if failures:
                shrunk = shrink_case(
                    case,
                    lambda c: _case_plan(c).tier == "footprint_grouped"
                    and bool(_grouping_diffs(c)),
                )
                return self._result(
                    cases, failures, _case_witness(shrunk, _grouping_diffs(shrunk))
                )
        return self._result(cases, [])

    def plant(self, ctx: VerifyContext) -> PlantResult:
        """Falsify the extent analysis and prove the parity check notices.

        The planted ``_block_extents`` collapses every site's per-block
        footprint to the single byte ``[block, block]``, so genuinely
        overlapping blocks look pairwise disjoint and get batched together
        — exactly the failure an unsound footprint analysis would cause.
        """
        import numpy as np

        from repro.fuzz.generator import ALIAS_SEED_BASE
        from repro.simt import footprint

        start = time.perf_counter()
        original = footprint._block_extents

        def collapsed(fp, grid, nblocks):
            real = original(fp, grid, nblocks)
            if real is None:
                return None
            fake = np.arange(nblocks, dtype=np.int64)
            return [(kind, in_loop, fake, fake) for kind, in_loop, _lo, _hi in real]

        try:
            footprint._block_extents = collapsed
            for attempt in range(_PLANT_ATTEMPTS):
                case = generate_case(ALIAS_SEED_BASE + 770_000 + attempt)
                if _case_plan(case).tier != "footprint_grouped":
                    continue
                failures = _grouping_diffs(case)
                if not failures:
                    continue
                before = case_stmt_count(case)
                shrunk = shrink_case(case, lambda c: bool(_grouping_diffs(c)))
                failure = _grouping_diffs(shrunk)[0]
                # With the real extent analysis restored the shrunk case
                # must be clean — the plant, not the engine, broke parity.
                footprint._block_extents = original
                clean = not _grouping_diffs(shrunk)
                return PlantResult(
                    name=self.name,
                    detected=clean,
                    seconds=time.perf_counter() - start,
                    detail=(
                        f"seed {case['seed']}: {failure}"
                        if clean
                        else "shrunk case still fails with real extents restored"
                    ),
                    shrunk_from=before,
                    shrunk_to=case_stmt_count(shrunk),
                )
            return PlantResult(
                name=self.name,
                detected=False,
                seconds=time.perf_counter() - start,
                detail=f"no parity break found in {_PLANT_ATTEMPTS} seeds",
            )
        finally:
            footprint._block_extents = original


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
        for _ in range(_PLANT_ATTEMPTS):
            dev = _random_device(rng)
            dev._ends = [end + 4 for end in dev._ends]
            diffs = _resolve_diffs(dev, rng)
            if diffs:
                break
        return PlantResult(
            name=self.name,
            detected=bool(diffs),
            seconds=time.perf_counter() - start,
            detail=diffs[0] if diffs else f"no disagreement on {_PLANT_ATTEMPTS} layouts",
        )
