"""Shared input generators and comparators for the verify properties.

Three families of inputs feed the registry:

* **fuzz cases** — reused from :mod:`repro.fuzz.generator`, optionally
  filtered to *order-free* cases (no atomics, no deliberately overlapping
  cross-block stores, no compiled-engine batching hazard) for the
  launch-order metamorphic properties;
* a dedicated **reshard-safe kernel family** whose global thread id is
  derived from the *linearized* block index, so re-factoring the grid
  shape leaves every lane's register state bit-identical;
* **synthetic analysis datasets** — separated Gaussian blobs and seeded
  feature matrices for the clustering/PCA properties.

The section comparators parse the canonical profile bytes back to JSON and
compare numerically: integer counters must match exactly, float
accumulators to a tight relative tolerance (block-order permutation changes
float *summation order*, which is allowed to move the last few ulps).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fuzz.generator import Case, build_kernel, case_kind_counts, make_device
from repro.fuzz.oracle import LaunchOutcome, launch
from repro.simt.builder import KernelBuilder
from repro.simt.compiled import _batch_hazard, compile_kernel
from repro.simt.ir import Kernel, MemSpace
from repro.simt.memory import Device, DeviceBuffer
from repro.simt.types import DType

#: Passes whose sections accumulate commutatively across blocks; the
#: reuse-distance passes ("reuse", "texture") share one sequential stack
#: across a launch's profiled blocks, so their histograms legitimately
#: depend on block *visit order* and are excluded from the permutation
#: property (but not from the re-sharding property, where visit order is
#: unchanged).
ORDER_FREE_PASSES: Tuple[str, ...] = ("mix", "ilp", "branch", "coalescing", "shared")

#: Relative/absolute tolerance for float profile accumulators under
#: permuted summation order.  Integer fields always compare exactly.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12


# ---------------------------------------------------------------------------
# Fuzz-case plumbing


def case_has_kind(case: Case, kinds: Sequence[str]) -> bool:
    """Whether any statement of ``case`` (nested included) is of one of ``kinds``."""
    return not case_kind_counts(case).keys().isdisjoint(kinds)


def case_is_order_free(case: Case) -> bool:
    """Whether block launch order provably cannot affect this case.

    Structural filter (no atomics — even commutative integer atomics have
    order-visible ``exch``/``cas`` siblings — and no deliberately
    overlapping cross-block stores), belt-and-braces backed by the compiled
    engine's batching-hazard analysis on the lowered kernel.
    """
    if case_has_kind(case, ("atomic", "gstore_overlap")):
        return False
    kernel = build_kernel(case)
    ck = compile_kernel(kernel)
    if ck.atomic_sites:
        return False
    dev, bufs = make_device(case)
    params_by_name = {name: buf.base for name, buf in bufs.items()}
    return not _batch_hazard(ck, params_by_name)


def reversal_order(nblocks: int) -> List[int]:
    """The canonical derangement used by the launch-order properties."""
    return list(range(nblocks - 1, -1, -1))


# ---------------------------------------------------------------------------
# Numeric section comparison


def compare_json(a: Any, b: Any, path: str = "") -> List[str]:
    """Recursively compare parsed profile JSON.

    Integers (counters) must match exactly; floats to ``FLOAT_RTOL`` — the
    only representation difference a block-order permutation may introduce
    is float summation order.
    """
    diffs: List[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return [f"{path}: keys {sorted(a)} != {sorted(b)}"]
        for key in a:
            diffs.extend(compare_json(a[key], b[key], f"{path}.{key}" if path else key))
        return diffs
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        for i, (x, y) in enumerate(zip(a, b)):
            diffs.extend(compare_json(x, y, f"{path}[{i}]"))
        return diffs
    if isinstance(a, bool) or isinstance(b, bool) or type(a) is not type(b):
        if a != b:
            diffs.append(f"{path}: {a!r} != {b!r}")
        return diffs
    if isinstance(a, float):
        if not np.isclose(a, b, rtol=FLOAT_RTOL, atol=FLOAT_ATOL, equal_nan=True):
            diffs.append(f"{path}: {a!r} !~ {b!r}")
        return diffs
    if a != b:
        diffs.append(f"{path}: {a!r} != {b!r}")
    return diffs


def compare_outcomes(
    base: LaunchOutcome,
    other: LaunchOutcome,
    label: str,
    passes: Optional[Sequence[str]] = None,
    compare_memory: bool = True,
    drop_header_keys: Sequence[str] = (),
) -> List[str]:
    """Differences between two launches of (supposedly) equivalent work.

    Compares the launch headers and the sections of ``passes`` (every pass
    of ``base`` when ``None``) numerically, see :func:`compare_json`.
    """
    if base.status != other.status or base.error_type != other.error_type:
        return [
            f"{label}: status {other.status}({other.error_type}) != "
            f"baseline {base.status}({base.error_type})"
        ]
    if base.status == "error":
        return []
    failures: List[str] = []
    if compare_memory:
        for name in sorted(base.buffers):
            if base.buffers[name] != other.buffers[name]:
                failures.append(f"{label}: device buffer {name!r} differs")
    headers_a, headers_b = (
        [
            {k: v for k, v in h.items() if k not in drop_header_keys}
            for h in json.loads(outcome.header_bytes)
        ]
        for outcome in (base, other)
    )
    for diff in compare_json(headers_a, headers_b, "header"):
        failures.append(f"{label}: {diff}")
    for name in base.profile.passes if passes is None else passes:
        a, b = (json.loads(outcome.section_bytes[name]) for outcome in (base, other))
        for diff in compare_json(a, b, name):
            failures.append(f"{label}: {diff}")
    return failures


# ---------------------------------------------------------------------------
# Reshard-safe kernel family


RESHARD_VARIANTS = 6
RESHARD_BLOCK = 32
RESHARD_NBLOCKS = 12
#: Grid factorizations of RESHARD_NBLOCKS blocks compared against (n, 1).
RESHARD_SHAPES: Tuple[Tuple[int, int], ...] = ((1, 12), (4, 3), (3, 4), (6, 2), (2, 6))


def build_reshard_kernel(variant: int, raw_ctaid: bool = False) -> Kernel:
    """One member of the grid-shape-invariant kernel family.

    Every address and value is derived from the *linearized* block index
    (``ctaid.y * nctaid.x + ctaid.x``), which the executor enumerates in
    the same linear order for every factorization of the same block count —
    so any grid shape of ``RESHARD_NBLOCKS`` blocks must produce
    bit-identical memory and profiles.  ``raw_ctaid=True`` builds the
    deliberately broken sibling (uses ``ctaid.x`` directly) for the planted
    self-test.
    """
    b = KernelBuilder(f"reshard_v{variant}")
    out = b.param_buf("out", DType.I32)
    fout = b.param_buf("fout", DType.F32)
    inp = b.param_buf("inp", DType.I32)
    tbuf = b.param_buf("tbuf", DType.F32, space=MemSpace.TEXTURE)
    shared = b.shared("scratch", RESHARD_BLOCK, DType.I32)

    lin = b.ctaid_x if raw_ctaid else b.iadd(b.imul(b.ctaid_y, b.nctaid_x), b.ctaid_x)
    gid = b.let_i32(b.iadd(b.imul(lin, b.ntid_x), b.tid_x))
    acc = b.let_i32(b.ld(inp, gid))
    facc = b.let_f32(b.i2f(acc))

    if variant % RESHARD_VARIANTS == 0:
        # Plain streaming arithmetic.
        b.assign(acc, b.iadd(b.imul(acc, 3), gid))
    elif variant % RESHARD_VARIANTS == 1:
        # Strided gather.
        n = RESHARD_NBLOCKS * RESHARD_BLOCK
        b.assign(acc, b.iadd(acc, b.ld(inp, b.imod(b.imul(gid, 7), n))))
    elif variant % RESHARD_VARIANTS == 2:
        # Divergent branch on a gid-derived predicate.
        ife = b.if_else(b.ilt(b.imod(gid, 3), 1))
        with ife.then():
            b.assign(acc, b.imul(acc, 5))
        with ife.otherwise():
            b.assign(facc, b.fmul(facc, 0.25))
    elif variant % RESHARD_VARIANTS == 3:
        # Bounded data-dependent loop.
        bound = b.imod(gid, 4)
        j = b.let_i32(0)
        loop = b.while_loop()
        with loop.cond():
            loop.set_cond(b.ilt(j, bound))
        with loop.body():
            b.assign(acc, b.iadd(acc, j))
            b.assign(j, b.iadd(j, 1))
    elif variant % RESHARD_VARIANTS == 4:
        # Shared-memory lane exchange with a barrier.
        b.sst(shared, b.tid_x, acc)
        b.barrier()
        b.assign(acc, b.iadd(acc, b.sld(shared, b.imod(b.iadd(b.tid_x, 1), RESHARD_BLOCK))))
    else:
        # Texture fetch feeding the float accumulator.
        b.assign(facc, b.fadd(facc, b.ld(tbuf, b.imod(gid, 64))))

    b.st(out, gid, acc)
    b.st(fout, gid, b.fmin(b.fmax(facc, -1.0e6), 1.0e6))
    return b.finalize()


def make_reshard_device(variant: int) -> Tuple[Device, Dict[str, DeviceBuffer]]:
    """Deterministic device for one reshard-family launch."""
    n = RESHARD_NBLOCKS * RESHARD_BLOCK
    rng = np.random.default_rng(0xE5 + variant)
    dev = Device()
    bufs = {
        "out": dev.from_array("out", np.zeros(n, dtype=np.int64), DType.I32),
        "fout": dev.from_array("fout", np.zeros(n), DType.F32),
        "inp": dev.from_array("inp", rng.integers(-100, 100, n).astype(np.int64), DType.I32),
        "tbuf": dev.from_array("tbuf", rng.standard_normal(64), DType.F32, readonly=True),
    }
    return dev, bufs


def run_reshard(variant: int, grid: Tuple[int, int], raw_ctaid: bool = False) -> LaunchOutcome:
    """Launch one family member over one grid factorization."""
    dev, bufs = make_reshard_device(variant)
    kernel = build_reshard_kernel(variant, raw_ctaid=raw_ctaid)
    return launch(kernel, dev, bufs, grid, (RESHARD_BLOCK, 1), "compiled")


# ---------------------------------------------------------------------------
# Synthetic analysis datasets


def make_blobs(
    rng: np.random.Generator,
    k: int = 4,
    per_cluster: int = 8,
    dims: int = 3,
    spread: float = 0.15,
    min_separation: float = 2.5,
) -> np.ndarray:
    """Well-separated Gaussian blobs (separation enforced by rejection)."""
    for _ in range(200):
        centers = rng.uniform(-4.0, 4.0, (k, dims))
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        d[np.diag_indices(k)] = np.inf
        if d.min() >= min_separation:
            break
    points = np.concatenate(
        [c + spread * rng.standard_normal((per_cluster, dims)) for c in centers]
    )
    return points


def make_feature_matrix(rng: np.random.Generator, n: int = 18, d: int = 12):
    """A seeded synthetic :class:`FeatureMatrix` with correlated columns.

    Low-rank structure plus noise (and one constant column, so the
    standardizer's column-dropping path is exercised too).
    """
    from repro.core.featurespace import FeatureMatrix

    rank = max(2, d // 3)
    basis = rng.standard_normal((rank, d))
    weights = rng.standard_normal((n, rank))
    values = weights @ basis + 0.05 * rng.standard_normal((n, d))
    values[:, d - 1] = 3.14  # constant column: must be dropped, not crash
    return FeatureMatrix(
        workloads=[f"w{i:02d}" for i in range(n)],
        suites=["a" if i % 2 == 0 else "b" for i in range(n)],
        metric_names=[f"m{j:02d}" for j in range(d)],
        values=values,
    )
