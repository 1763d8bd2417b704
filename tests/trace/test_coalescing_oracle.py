"""The coalescing pass's reductions against the sort-based oracle in
``coalescing_reference.py``, and the packed-word lane counts against
``sum``/``any``.

The pass reads the recorder's ``int32`` address rows; the oracle reads the
same rows in ``int64``, with the inactive lanes' garbage unwrapped, as the
engines held them before narrowing.  Every counter must agree on seeded
chunks of every row shape: full non-decreasing, full unsorted, partial,
single-lane, broadcast and idle rows, element sizes 1/4/8, sid-group
boundaries, carried rows and addresses just below ``2**31``.
"""

import dataclasses

import numpy as np
import pytest

from repro.simt.events import warp_lane_counts
from repro.simt.memory import ADDRESS_LIMIT
from repro.simt.types import WARP_SIZE
from repro.trace import CollectorConfig
from repro.trace.passes import coalescing
from repro.trace.profile import GlobalMemStats
from tests.trace import coalescing_reference as reference

LANE = np.arange(WARP_SIZE)
SHAPES = ("sorted", "unsorted", "partial", "single", "broadcast", "idle")


def _base(rng, esize, span):
    """An ``esize``-aligned base whose row of ``span`` bytes fits the
    address space, a third of the time ending just below ``2**31``."""
    if rng.random() < 1 / 3:
        return (ADDRESS_LIMIT - span - esize * int(rng.integers(1, 4))) // esize * esize
    return esize * int(rng.integers(0, 1 << 20))


def _warp_row(rng, shape, esize):
    """One ``(WARP_SIZE,)`` int64 address row and its mask."""
    step = esize * int(rng.choice([0, 1, 2, 16, 250]))
    if shape == "sorted":
        offsets = np.sort(esize * rng.integers(0, 64, WARP_SIZE)) if rng.random() < 0.3 else step * LANE
    elif shape == "unsorted":
        offsets = esize * (LANE + 1) * int(rng.integers(1, 40))
        if rng.random() < 0.5:
            offsets = rng.permutation(offsets)
        else:  # one falling pair in an otherwise ascending row
            i = int(rng.integers(0, WARP_SIZE - 1))
            offsets[[i, i + 1]] = offsets[[i + 1, i]]
    elif shape == "broadcast":
        offsets = np.zeros(WARP_SIZE, dtype=np.int64)
    else:
        offsets = rng.permutation(step * LANE) if rng.random() < 0.5 else step * LANE
    addrs = _base(rng, esize, int(offsets.max()) + esize) + offsets
    if shape in ("sorted", "unsorted") or (shape == "broadcast" and rng.random() < 0.5):
        mask = np.ones(WARP_SIZE, dtype=bool)
    elif shape == "single":
        mask = LANE == rng.integers(0, WARP_SIZE)
    elif shape == "idle":
        mask = np.zeros(WARP_SIZE, dtype=bool)
    else:
        mask = rng.random(WARP_SIZE) < rng.uniform(0.1, 0.9)
    return addrs, mask


def _garbage(rng, A, M):
    """Fill inactive lanes with what a register may hold (past 32 bits too)
    and narrow as the recorder does: returns ``(int64 rows, int32 rows)``."""
    A = A.copy()
    A[~M] = rng.integers(-(1 << 40), 1 << 40, int((~M).sum()))
    narrow = A.astype(np.int32)
    assert np.array_equal(narrow[M], A[M])  # exact on every active lane
    return A, narrow


def _warp_chunk(rng, shapes, n):
    rows = [(esize, _warp_row(rng, shape, esize))
            for shape, esize in zip(rng.choice(shapes, n), rng.choice([1, 4, 8], n))]
    A = np.stack([a for _, (a, _) in rows])
    M = np.stack([m for _, (_, m) in rows])
    assert (A[M] >= 0).all() and (A[M] < ADDRESS_LIMIT).all()
    return A, M, np.array([e for e, _ in rows], dtype=np.int64)


def _counters(g):
    return dataclasses.asdict(g)


@pytest.mark.parametrize("shapes", [("sorted",), ("sorted", "unsorted"), SHAPES, ("partial", "idle")])
@pytest.mark.parametrize("cfg", [CollectorConfig(), CollectorConfig(seg_small=64, seg_large=32)])
@pytest.mark.parametrize("seed", range(8))
def test_warp_counters_match_sort_based_oracle(seed, cfg, shapes):
    rng = np.random.default_rng(seed)
    A64, M, esize = _warp_chunk(rng, shapes, int(rng.integers(1, 60)))
    A64, A32 = _garbage(rng, A64, M)
    got, want = GlobalMemStats(), GlobalMemStats()
    coalescing._warp_counters(got, cfg, A32, M, esize, warp_lane_counts(M).reshape(-1))
    reference._warp_counters(want, cfg, A64, M, esize)
    assert _counters(got) == _counters(want)


def test_a_falling_full_row_is_sorted():
    # Segments 0, 1, 0, 1, ...: one row of two distinct 32-byte segments
    # that only a sort counts as two transactions.
    A = (32 * (LANE % 2))[None].astype(np.int32)
    M = np.ones((1, WARP_SIZE), dtype=bool)
    got = GlobalMemStats()
    coalescing._warp_counters(got, CollectorConfig(), A, M, np.array([4]), np.array([WARP_SIZE]))
    assert got.transactions_32b == 2 and got.transactions_128b == 1


def _stride_chunk(rng, full, lanes):
    n = int(rng.integers(1, 12))
    sid = np.sort(rng.integers(0, 4, size=n)).astype(np.int64)
    esize = rng.choice([1, 4, 8], size=n).astype(np.int64)
    step = rng.choice([0, 1, 4, 8, 64, 1000], size=(n, 1))
    offsets = step * np.arange(lanes) + rng.integers(0, 3, size=(n, lanes)) * rng.integers(0, 2)
    top = rng.random() < 0.5
    base = (ADDRESS_LIMIT - 8 - int(offsets.max())) if top else rng.integers(0, 1 << 20, size=(n, 1))
    A = (base - rng.integers(0, 300, size=(n, 1)) * top + offsets).astype(np.int64)
    M = np.ones((n, lanes), dtype=bool) if full else rng.random((n, lanes)) < 0.6
    return A, M, sid, esize


@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("seed", range(12))
def test_local_strides_match_masked_oracle(seed, full, carried):
    rng = np.random.default_rng(seed)
    lanes = WARP_SIZE * int(rng.integers(1, 4))
    A, M, sid, esize = _stride_chunk(rng, full, lanes)
    if carried:
        # A pseudo-row carried in from the previous chunk: its lanes are
        # seen where the earlier group had an active event.
        seen = rng.random(lanes) < 0.5
        A = np.concatenate((A[:1] - 4, A))
        M = np.concatenate((seen[None], M))
        sid = np.concatenate((sid[:1], sid))
        esize = np.concatenate((esize[:1], esize))
    assert (A[M] >= 0).all() and (A[M] < ADDRESS_LIMIT).all()
    A64, A32 = _garbage(rng, A, M)
    got = {k: 0 for k in ("zero", "unit", "short", "long")}
    want = dict(got)
    tail = coalescing._local_strides(got, A32, M, sid, esize)
    ref = reference._local_strides(want, A64, M, sid, esize)
    assert got == want
    # The carried state only matters on the lanes the last group has seen.
    assert np.array_equal(tail[1], ref[1])
    assert np.array_equal(tail[0][ref[1]], ref[0][ref[1]])


@pytest.mark.parametrize("nwarps", [1, 8, 9, 32])
def test_packed_lane_counts_match_sum_and_any(nwarps):
    rng = np.random.default_rng(nwarps)
    for density in (0.0, 0.03, 0.5, 0.97, 1.0):
        mask = rng.random((3, 5, nwarps * WARP_SIZE)) < density
        counts = warp_lane_counts(mask)
        warps = mask.reshape(3, 5, nwarps, WARP_SIZE)
        assert counts.shape == (3, 5, nwarps)
        assert np.array_equal(counts, warps.sum(axis=3))
        assert np.array_equal(counts > 0, warps.any(axis=3))
    # A strided view packs the same as its copy.
    view = mask[:, ::2]
    assert np.array_equal(warp_lane_counts(view), warp_lane_counts(view.copy()))
