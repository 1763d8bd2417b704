"""Batch-level pass kernels.

Batch-split invariance: every pass's section bytes are the same whether a
launch's profiled blocks arrive as one batch, one block per batch, or in
random contiguous splits, at any chunk bound (the parity invariant of
``repro.simt.events``).  The bulk branch, shared and ILP kernels are also
checked against one-row, one-warp and one-instruction-at-a-time
references."""

import numpy as np
import pytest

from repro.simt import KernelBuilder, events
from repro.simt.ir import MemSpace, OpCategory
from repro.simt.memory import ADDRESS_LIMIT
from repro.trace import ILP_WINDOWS, CollectorConfig, KernelTraceCollector
from repro.trace.passes import shared
from repro.trace.passes.branch import _contributions
from repro.trace.passes.ilp import IlpPass
from repro.trace.profile import PASS_NAMES, WorkloadProfile
from repro.trace.serialize import section_digests
from tests.trace.batches import record
from tests.trace.ilp_reference import tracker_contribution


def _kernel():
    b = KernelBuilder("split")
    src = b.param_buf("src")
    dst = b.param_buf("dst")
    i = b.global_thread_id()
    j = b.imul(i, 2)
    k = b.iadd(j, i)
    v = b.ld(src, k)
    w = b.fadd(v, b.fmul(v, v))
    b.st(dst, i, b.fma(w, v, w))
    return b.finalize()


def _events(rng, P, nwarps, sids):
    """A random event stream over ``P`` blocks covering the edge cases."""
    npad = nwarps * 32
    lane = np.arange(npad)
    evs = []

    def mask(p_active):
        m = rng.random((P, npad)) < p_active
        m.reshape(P, nwarps, 32)[rng.random((P, nwarps)) < 0.3] = False  # idle warps
        m[rng.random(P) < 0.3] = False  # blocks absent from this path
        return m

    # Instruction runs sharing one mask, including an inactive-lane-only run
    # and a run only some blocks take part in.
    def instr(act):
        # A statement's category is fixed, as in a real kernel.
        sid = int(rng.choice(sids))
        return ("instr", sid, [OpCategory.FP, OpCategory.INT, OpCategory.LOAD_GLOBAL][sid % 3], act)

    for p_active in (1.0, 0.0, 0.6, 0.2, 1.0):
        act = mask(p_active)
        evs.extend(instr(act) for _ in range(int(rng.integers(3, 12))))
    # Global memory: a long same-sid run, two sids with different element
    # sizes, interleaved with other kinds, just below the 2**31 limit.
    base = ADDRESS_LIMIT - (1 << 21) + rng.integers(0, 1 << 20, P)[:, None]
    offset = 0
    for t in range(14):
        act = mask(0.9)
        evs.append(("mem", 100, MemSpace.GLOBAL, "load", 4, base + 4 * lane + 512 * t, act))
        if t % 3 == 0:
            stride = int(rng.choice([0, 8, 16, 200]))
            offset += int(rng.choice([0, 8, 64, 1024]))
            addrs = base + stride * lane + offset
            evs.append(("mem", 101, MemSpace.GLOBAL, "store", 8, addrs, mask(0.7)))
            evs.append(instr(mask(0.5)))
    evs.append(("mem", 102, MemSpace.GLOBAL, "load", 4, base + lane, np.zeros((P, npad), bool)))
    # Shared memory: block-relative rows that repeat across blocks and
    # events, some with bank conflicts.
    for t in range(6):
        stride = [4, 8, 128, 0, 4, 64][t]
        addrs = np.broadcast_to(stride * lane % 4096, (P, npad)).copy()
        act = np.ones((P, npad), bool) if t % 2 else mask(0.8)
        evs.append(("mem", 200 + t % 2, MemSpace.SHARED, "load", 4, addrs, act))
    # Texture fetches.
    for t in range(3):
        addrs = base + 4 * rng.integers(0, 4096, (P, npad))
        evs.append(("mem", 300, MemSpace.TEXTURE, "load", 4, addrs, mask(0.8)))
    # Branches, if and loop, with divergent warps.
    for t in range(8):
        act = mask(0.9)
        taken = act & (rng.random((P, npad)) < rng.choice([0.0, 0.5, 1.0]))
        evs.append(("branch", 400 + t % 3, "loop" if t % 2 else "if", act, taken))
    order = rng.permutation(len(evs))
    return [evs[i] for i in order]


def _digests(kernel, evs, P, nwarps, splits):
    npad = nwarps * 32
    col = KernelTraceCollector()
    col.on_kernel_begin(kernel, (P, 1), (npad, 1), P)
    for lo, hi in zip(splits[:-1], splits[1:]):
        col.on_batch(record(evs, P, npad, slice(lo, hi)))
    col.on_kernel_end(P, P)
    return section_digests(WorkloadProfile("split", "synthetic", col.profiles))


@pytest.mark.parametrize("nwarps", [1, 8, 9, 32])
@pytest.mark.parametrize("stack_elems", [40, 3000])
def test_sections_are_invariant_to_batch_splits(monkeypatch, nwarps, stack_elems):
    kernel = _kernel()
    sids = [stmt.sid for stmt in kernel.walk()]
    rng = np.random.default_rng(nwarps)
    P = 12  # past 8 blocks, a pairwise float sum would differ from the fold
    evs = _events(rng, P, nwarps, sids)
    whole = _digests(kernel, evs, P, nwarps, [0, P])
    assert set(whole) == {"header", *PASS_NAMES}
    # A small chunk bound splits same-sid runs across chunks.
    monkeypatch.setattr(events, "STACK_ELEMS", stack_elems)
    assert _digests(kernel, evs, P, nwarps, [0, P]) == whole
    assert _digests(kernel, evs, P, nwarps, list(range(P + 1))) == whole
    for _ in range(3):
        cuts = sorted(rng.choice(np.arange(1, P), size=int(rng.integers(1, P - 1)), replace=False))
        assert _digests(kernel, evs, P, nwarps, [0, *cuts, P]) == whole


def test_shared_row_dedupe_falls_back_exactly_on_hash_collision(monkeypatch):
    kernel = _kernel()
    rng = np.random.default_rng(5)
    P, nwarps = 6, 8
    evs = _events(rng, P, nwarps, [stmt.sid for stmt in kernel.walk()])
    hashed = _digests(kernel, evs, P, nwarps, [0, P])
    monkeypatch.setattr(shared, "_ROW_HASH", np.zeros_like(shared._ROW_HASH))
    assert _digests(kernel, evs, P, nwarps, [0, P]) == hashed


def test_split_stream_exercises_every_section():
    kernel = _kernel()
    rng = np.random.default_rng(9)
    P, nwarps = 5, 9
    evs = _events(rng, P, nwarps, [stmt.sid for stmt in kernel.walk()])
    col = KernelTraceCollector()
    col.on_kernel_begin(kernel, (P, 1), (nwarps * 32, 1), P)
    col.on_batch(record(evs, P, nwarps * 32))
    col.on_kernel_end(P, P)
    (kp,) = col.profiles
    assert kp.warp_imbalance_cv > 0 and sum(kp.thread_instrs.values()) > 0
    assert kp.ilp[32] > 1.0
    assert kp.gmem.accesses > 0 and all(kp.gmem.local_strides.values())
    assert kp.shmem.accesses > 0 and kp.shmem.conflicted > 0
    assert kp.texture.accesses > 0 and kp.locality.line_accesses > 0
    assert kp.branch.divergent > 0 and kp.branch.loop_events > 0


def _branch_row(active, taken):
    """One row's branch contribution, computed on its compressed warps."""
    has = active > 0
    active, taken = active[has], taken[has]
    if active.size == 0:
        return (0, 0, 0.0, 0.0)
    frac = taken / active
    return (active.size, int(((taken > 0) & (taken < active)).sum()),
            float(frac.sum()), float((frac * frac).sum()))


@pytest.mark.parametrize("nwarps", [1, 3, 8, 9, 17, 32])
def test_branch_rows_reduce_like_one_row_at_a_time(nwarps):
    rng = np.random.default_rng(nwarps)
    active = rng.integers(0, 33, (300, nwarps))
    active[rng.random(active.shape) < 0.3] = 0
    taken = (active * rng.random(active.shape)).astype(np.int64)
    got = _contributions(active, taken)
    for i in range(len(active)):
        assert tuple(col[i] for col in got) == _branch_row(active[i], taken[i])


def test_ilp_window_cache_matches_tracker_bank():
    kernel = _kernel()
    ilp = IlpPass(CollectorConfig())
    ilp.begin_kernel(kernel, None)
    feeding = np.flatnonzero(ilp._feeds)
    rng = np.random.default_rng(3)
    loop = rng.choice(feeding, 37)
    streams = [rng.choice(feeding, int(rng.integers(1, 700))) for _ in range(10)]
    streams += [np.tile(loop, reps) for reps in (1, 7, 20)]  # repeated windows hit the cache
    for stream in streams:
        deps = [ilp._deps[sid] for sid in stream.tolist()]
        assert ilp._contribution(stream) == tracker_contribution(deps, ILP_WINDOWS)


def test_shared_conflict_degree_matches_per_warp_reference():
    rng = np.random.default_rng(11)
    # Few words: heavy reuse and conflicts, in int32 rows as recorded.
    rows = 4 * rng.integers(0, 96, (400, 32), dtype=np.int32)
    rows[rng.random(rows.shape) < 0.3] = -1
    rows[rng.random(len(rows)) < 0.1] = -1  # warps with no active lane
    rows = rows[(rows != -1).any(axis=1)]
    for row, got in zip(rows, shared._conflict_degree(rows)):
        words_by_bank = {}
        for addr in row[row != -1].tolist():
            words_by_bank.setdefault((addr >> 2) % shared.NUM_BANKS, set()).add(addr >> 2)
        assert got == max(len(words) for words in words_by_bank.values())
