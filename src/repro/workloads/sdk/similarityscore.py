"""Similarity Score (SS).

Smith-Waterman-style local-alignment scoring: each thread scores one
database sequence against a common query, keeping its dynamic-programming
row in a private slice of a global scratch buffer.

Two behaviours make SS the diversity outlier the abstract calls out:

* database sequences have *variable lengths*, so warp lanes retire from the
  outer loop at different trips (heavy, sustained branch divergence and
  warp imbalance);
* each thread's DP row lives at ``thread_id * query_len`` in global memory,
  so warp accesses stride by the query length — systematically uncoalesced.

Suite placement note: the original paper draws SS from a contemporaneous
GPGPU benchmark collection; the abstract alone does not pin the suite, so
it is grouped with the CUDA SDK set here (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.simt import DType, KernelBuilder
from repro.workloads.base import RunContext, Workload, assert_close, ceil_div
from repro.workloads.registry import register

MATCH = 3
MISMATCH = -2
GAP = -1


def build_similarity_kernel(qlen: int):
    b = KernelBuilder("similarity_score")
    seqs = b.param_buf("seqs", DType.I32)  # padded (nseq, maxlen) residues
    lens = b.param_buf("lens", DType.I32)
    query = b.param_buf("query", DType.I32)
    row = b.param_buf("row", DType.I32)  # per-thread DP rows, (nseq, qlen)
    best = b.param_buf("best", DType.I32)
    nseq = b.param_i32("nseq")
    maxlen = b.param_i32("maxlen")

    t = b.global_thread_id()
    b.ret_if(b.ige(t, nseq))
    length = b.ld(lens, t)
    row_base = b.imul(t, qlen)
    seq_base = b.imul(t, maxlen)
    score = b.let_i32(0)

    # Clear this thread's DP row (H[i-1][*] = 0).
    with b.for_range(0, qlen) as q0:
        b.st(row, b.iadd(row_base, q0), 0)

    i = b.let_i32(0)
    outer = b.while_loop()
    with outer.cond():
        outer.set_cond(b.ilt(i, length))  # data-dependent trip count
    with outer.body():
        residue = b.ld(seqs, b.iadd(seq_base, i))
        diag = b.let_i32(0)  # H[i-1][j-1]
        left = b.let_i32(0)  # H[i][j-1]
        with b.for_range(0, qlen) as j:
            up = b.ld(row, b.iadd(row_base, j))  # H[i-1][j]
            qres = b.ld(query, j)
            sub = b.let_i32(MISMATCH)
            with b.if_(b.ieq(residue, qres)):
                b.assign(sub, MATCH)
            h = b.imax(
                b.imax(b.iadd(diag, sub), b.iadd(up, GAP)),
                b.imax(b.iadd(left, GAP), 0),
            )
            with b.if_(b.igt(h, score)):
                b.assign(score, h)
            b.st(row, b.iadd(row_base, j), h)
            b.assign(diag, up)
            b.assign(left, h)
        b.assign(i, b.iadd(i, 1))

    b.st(best, t, score)
    return b.finalize()


def similarity_ref(seqs, lens, query) -> np.ndarray:
    """Best local-alignment score of each sequence against ``query``.

    The dynamic program runs over all sequences at once: DP row ``i`` is
    computed for every sequence and kept only where ``i < lens``.
    """
    lens = np.asarray(lens)
    query = np.asarray(query)
    qlen = len(query)
    prev = np.zeros((len(lens), qlen + 1), dtype=np.int64)
    best = np.zeros(len(lens), dtype=np.int64)
    for i in range(int(lens.max(initial=0))):
        sub = np.where(seqs[:, i, None] == query[None, :], MATCH, MISMATCH)
        # max(diag + sub, up + GAP, 0) needs only the previous row ...
        cur = np.zeros_like(prev)
        cur[:, 1:] = np.maximum(np.maximum(prev[:, :-1] + sub, prev[:, 1:] + GAP), 0)
        # ... then the left neighbour, column by column.
        for j in range(1, qlen + 1):
            np.maximum(cur[:, j], cur[:, j - 1] + GAP, out=cur[:, j])
        live = i < lens
        best = np.where(live, np.maximum(best, cur.max(axis=1)), best)
        prev = np.where(live[:, None], cur, prev)
    return best


@register
class SimilarityScore(Workload):
    abbrev = "SS"
    name = "Similarity Score"
    suite = "CUDA SDK"
    description = "Smith-Waterman local-alignment scoring of variable-length sequences"
    default_scale = {"nseq": 128, "qlen": 16, "minlen": 16, "maxlen": 96, "block": 64}

    def run(self, ctx: RunContext) -> None:
        nseq = self.scale["nseq"]
        qlen = self.scale["qlen"]
        maxlen = self.scale["maxlen"]
        rng = ctx.rng
        self._lens = rng.integers(self.scale["minlen"], maxlen + 1, size=nseq)
        self._seqs = rng.integers(0, 4, size=(nseq, maxlen))
        self._query = rng.integers(0, 4, size=qlen)
        dev = ctx.device
        seqs = dev.from_array("seqs", self._seqs, DType.I32, readonly=True)
        lens = dev.from_array("lens", self._lens, DType.I32, readonly=True)
        query = dev.from_array("query", self._query, DType.I32, readonly=True)
        row = dev.alloc("row", nseq * qlen, DType.I32)
        self._best = dev.alloc("best", nseq, DType.I32)
        kernel = build_similarity_kernel(qlen)
        ctx.launch(
            kernel,
            ceil_div(nseq, self.scale["block"]),
            self.scale["block"],
            {
                "seqs": seqs,
                "lens": lens,
                "query": query,
                "row": row,
                "best": self._best,
                "nseq": nseq,
                "maxlen": maxlen,
            },
        )

    def check(self, ctx: RunContext) -> None:
        expected = similarity_ref(self._seqs, self._lens, self._query)
        assert_close(ctx.device.download(self._best), expected, "similarity scores")
