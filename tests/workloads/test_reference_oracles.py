"""Vectorized workload references against the scalar loops they replaced.

A workload's ``check`` compares the simulated output with its numpy
reference.  Where that reference was vectorized, the scalar loop it
replaced stays here as the oracle, on seeded random inputs.
"""

import numpy as np
import pytest

from repro.workloads.parboil.tpacf import NBINS, tpacf_ref
from repro.workloads.sdk.similarityscore import GAP, MATCH, MISMATCH, similarity_ref


def similarity_ref_scalar(seqs, lens, query) -> np.ndarray:
    qlen = len(query)
    out = np.zeros(len(lens), dtype=np.int64)
    for t, length in enumerate(lens):
        prev = np.zeros(qlen + 1, dtype=np.int64)
        best = 0
        for i in range(length):
            cur = np.zeros(qlen + 1, dtype=np.int64)
            for j in range(1, qlen + 1):
                sub = MATCH if seqs[t, i] == query[j - 1] else MISMATCH
                cur[j] = max(prev[j - 1] + sub, prev[j] + GAP, cur[j - 1] + GAP, 0)
            best = max(best, int(cur.max()))
            prev = cur
        out[t] = best
    return out


@pytest.mark.parametrize("seed", range(8))
def test_similarity_ref_matches_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    nseq = int(rng.integers(1, 40))
    qlen = int(rng.integers(1, 20))
    maxlen = int(rng.integers(1, 30))
    # Lengths from 0 (no DP row) up to the padded width.
    lens = rng.integers(0, maxlen + 1, size=nseq)
    lens[0] = maxlen
    seqs = rng.integers(0, 4, size=(nseq, maxlen))
    query = rng.integers(0, 4, size=qlen)
    got = similarity_ref(seqs, lens, query)
    assert got.dtype == np.int64
    assert np.array_equal(got, similarity_ref_scalar(seqs, lens, query))


def test_similarity_ref_of_empty_sequences_is_zero():
    seqs = np.zeros((3, 5), dtype=np.int64)
    assert np.array_equal(similarity_ref(seqs, np.zeros(3, dtype=np.int64), np.arange(4)), [0, 0, 0])


def tpacf_ref_scalar(pos, edges) -> np.ndarray:
    n = pos.shape[0]
    bins = np.zeros(NBINS, dtype=np.int64)
    dots = pos @ pos.T
    iu = np.triu_indices(n, k=1)
    for dot in dots[iu]:
        lo, hi = 0, NBINS
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if edges[mid] >= dot:
                lo = mid
            else:
                hi = mid
        bins[lo] += 1
    return bins


def _unit_vectors(rng, n):
    vecs = rng.standard_normal((n, 3))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(6))
def test_tpacf_ref_matches_scalar_binary_search(seed):
    rng = np.random.default_rng(seed)
    pos = _unit_vectors(rng, int(rng.integers(2, 120)))
    edges = np.cos(np.linspace(0.0, np.pi, NBINS + 1))
    got = tpacf_ref(pos, edges)
    assert got.dtype == np.int64
    assert np.array_equal(got, tpacf_ref_scalar(pos, edges))


@pytest.mark.parametrize("seed", range(4))
def test_tpacf_ref_bins_dots_on_and_above_the_edges_as_the_loop(seed):
    # Edges set from the inputs' own dot products: some dots equal an edge
    # exactly, and the top edge sits below the largest dots.
    rng = np.random.default_rng(100 + seed)
    pos = _unit_vectors(rng, 40)
    dots = np.unique((pos @ pos.T)[np.triu_indices(40, k=1)])
    picks = np.sort(rng.choice(dots[:-3], size=NBINS + 1, replace=False))[::-1]
    edges = picks.copy()
    assert np.all(np.diff(edges) < 0)
    assert dots.max() > edges[0]
    got = tpacf_ref(pos, edges)
    assert np.array_equal(got, tpacf_ref_scalar(pos, edges))
    assert got.sum() == 40 * 39 // 2
