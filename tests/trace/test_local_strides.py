"""The coalescing pass's local-stride histogram against the compacting
version it replaced, on seeded chunks: partial masks, sid-group
boundaries and a carried pseudo-row."""

import numpy as np
import pytest

from repro.trace.passes.coalescing import _local_strides


def _local_strides_compacting(ls, A, M, sid, esize):
    n, lanes = A.shape
    rows = np.arange(n)
    new = np.ones(n, dtype=bool)
    new[1:] = sid[1:] != sid[:-1]
    start = np.maximum.accumulate(np.where(new, rows, 0))
    last = np.maximum.accumulate(np.where(M, rows[:, None], -1), axis=0)
    tail = (A[np.maximum(last[-1], 0), np.arange(lanes)], last[-1] >= start[-1])
    prev = last[:-1]
    both = M[1:] & (prev >= start[1:, None])
    if both.any():
        prev_addr = np.take_along_axis(A, np.maximum(prev, 0), axis=0)
        diffs = np.abs(A[1:][both] - prev_addr[both])
        es = np.broadcast_to(esize[1:, None], both.shape)[both]
        ls["zero"] += int((diffs == 0).sum())
        ls["unit"] += int((diffs == es).sum())
        ls["short"] += int(((diffs > es) & (diffs <= 128)).sum())
        ls["long"] += int((diffs > 128).sum())
    return tail


def _chunk(rng, full):
    n = int(rng.integers(1, 12))
    lanes = 32 * int(rng.integers(1, 4))
    sid = np.sort(rng.integers(0, 4, size=n))
    esize = rng.choice([1, 4, 8], size=n)
    base = rng.integers(0, 1 << 20, size=(n, 1))
    step = rng.choice([0, 1, 4, 8, 64, 1000], size=(n, 1))
    A = base + step * np.arange(lanes) + rng.integers(0, 3, size=(n, lanes)) * rng.integers(0, 2)
    M = np.ones((n, lanes), dtype=bool) if full else rng.random((n, lanes)) < 0.6
    return A.astype(np.int64), M, sid.astype(np.int64), esize.astype(np.int64)


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("seed", range(25))
def test_local_strides_match_compacting_version(seed, full):
    rng = np.random.default_rng(seed)
    A, M, sid, esize = _chunk(rng, full)
    if seed % 3 == 0:
        # A pseudo-row carried in from the previous chunk: its lanes are
        # seen where the earlier group had an active event.
        carried = rng.random(A.shape[1]) < 0.5 if not full else np.ones(A.shape[1], dtype=bool)
        A = np.concatenate((A[:1] - 4, A))
        M = np.concatenate((carried[None], M))
        sid = np.concatenate((sid[:1], sid))
        esize = np.concatenate((esize[:1], esize))
    got, want = {k: 0 for k in ("zero", "unit", "short", "long")}, {}
    want.update(got)
    tail = _local_strides(got, A, M, sid, esize)
    ref = _local_strides_compacting(want, A, M, sid, esize)
    assert got == want
    # The carried state only matters on the lanes the last group has seen.
    assert np.array_equal(tail[1], ref[1])
    assert np.array_equal(tail[0][ref[1]], ref[0][ref[1]])
