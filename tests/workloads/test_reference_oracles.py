"""Vectorized workload references against the scalar loops they replaced.

A workload's ``check`` compares the simulated output with its numpy
reference.  Where that reference was vectorized, the scalar loop it
replaced stays here as the oracle, on seeded random inputs.
"""

import numpy as np
import pytest

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
