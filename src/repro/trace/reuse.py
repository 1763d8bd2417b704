"""LRU stack (reuse) distance computation, offline and vectorized.

The reuse distance of an access to cache line ``L`` is the number of
*distinct* lines touched since ``L``'s previous access (Mattson's stack
distance); a line's first access is a cold miss.  Distances are recorded in
power-of-two histogram buckets, which is all the locality characteristics
need (they read the CDF at a handful of thresholds).

Algorithm
---------

:meth:`ReuseDistanceTracker.extend` only buffers line streams.  Once enough
accesses are pending, they are resolved a *piece* at a time, each piece in a
handful of whole-array numpy passes:

1. The piece is replayed behind the tracker's live lines in LRU order (least
   recently used first).  That prefix is the exact compressed history: the
   lines touched after ``L``'s last access are precisely the live lines
   that follow ``L`` in LRU order, so every distance over the concatenation
   equals the distance over the full stream.
2. One sort of the concatenation's ``(line << 32) | position`` keys pairs
   every reuse at position ``t`` with its previous access ``p``.  Line ids
   are below ``2**31``, so a key is one non-negative int64 and sorting the
   keys orders positions as a stable argsort of the lines does.
3. The positions strictly between ``p`` and ``t`` are ``t - p - 1``
   accesses; each one that is re-accessed before ``t`` repeats a line, and
   those are exactly the reuse pairs nested in ``(p, t)``.  So the distance
   is ``(t - p - 1)`` minus that nested count.
4. Taken in ``t`` order, the nested count of a pair is the number of earlier
   pairs with a larger ``p``.  The pairs whose ``p`` is a running maximum
   have none, and every other pair's count among those is one
   ``searchsorted``; a wavelet-matrix pass over the other pairs' ``p``
   adds their counts among themselves, with one cumsum and one stable
   partition per bit of ``p`` (:func:`_earlier_greater`).
5. ``np.frexp`` exponents equal ``int.bit_length`` for non-negative
   integers, so one ``bincount`` of them updates the histogram.

The last occurrence of every line in the concatenation, in position order,
is the new LRU prefix.  A piece is at least as long as the prefix it is
replayed behind, so the work per access stays logarithmic.

Legacy growth skew
------------------

The scalar Fenwick tracker this replaced carried an off-by-one that the
frozen profile digests still encode, so it is reproduced on purpose in one
place, :meth:`ReuseDistanceTracker._legacy_fenwick_skew`.  The Fenwick tree
doubled its capacity at access times ``T = 1024 * 2**k`` and rebuilt itself
from the lines' last-access times *before* recording the access at ``T``.
When that access was a reuse with previous time ``P``, ``P`` was still
recorded as a last-access time, so a phantom mark at ``P`` survived until
the next growth.  Every reuse at a time in ``(T, 2T]`` whose previous access
came after ``P`` therefore read one less than its true distance; a true
distance of 0 read -1 and landed in bucket 1.  Removing the skew changes the
reuse and texture sections of every kernel whose line stream passes 1024
accesses, so it goes together with regenerating the frozen digests and
golden fixtures.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.simt.events import event_chunks

#: Number of power-of-two histogram buckets (covers distances up to 2**63).
_NUM_BUCKETS = 64

#: Inactive-lane filler for :func:`block_major_lines`; sorts after every
#: line of an ``int32`` address below ``2**31``.
_NO_LINE = np.iinfo(np.int32).max

#: Phantom time meaning "no phantom": no previous access time exceeds it.
_NO_PHANTOM = np.iinfo(np.int64).max

#: Access time of the legacy Fenwick tree's first capacity growth.
_FIRST_GROWTH = 1024

#: Bound on line ids: a line shifted past a 32-bit position fits int64.
_LINE_LIMIT = 1 << 31

#: Low-half mask of a packed ``(line << 32) | position`` key.
_POSITION = np.int64(0xFFFFFFFF)


def block_major_lines(
    addrs: np.ndarray, lane_rows: np.ndarray, slot: np.ndarray, idx: np.ndarray, line_bits: int
) -> np.ndarray:
    """Distinct active lines per (block, event) row, flattened block-major.

    ``addrs`` (``(Em, P, npad) int32``) and ``slot`` are a batch's memory
    columns, ``lane_rows`` its kept masks (event ``e`` is active where
    ``lane_rows[slot[e]]`` is set) and ``idx`` the indices of the events
    to read, in emission order.  The result lists, for each block in turn
    and within it each selected event in turn, the event's distinct active
    128B lines (``addrs >> line_bits``) in ascending order.  Temporaries
    stay within about :data:`~repro.simt.events.STACK_ELEMS` lanes: blocks
    are sliced, and a single block's events are sliced when it alone
    exceeds the bound.
    """
    E = len(idx)
    if not E:
        return np.empty(0, dtype=np.int32)
    P, npad = addrs.shape[1:]
    parts = []
    for blocks in event_chunks(P, E * npad):
        width = min(blocks.stop, P) - blocks.start
        for events in event_chunks(E, width * npad):
            e = idx[events]
            parts.append(_distinct_rows(addrs[e, blocks], lane_rows[slot[e], blocks], line_bits))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _distinct_rows(addrs: np.ndarray, act: np.ndarray, line_bits: int) -> np.ndarray:
    lines = addrs.transpose(1, 0, 2)
    lines >>= line_bits
    lines[~act.transpose(1, 0, 2)] = _NO_LINE
    lines.sort(axis=-1)
    keep = lines != _NO_LINE
    keep[..., 1:] &= lines[..., 1:] != lines[..., :-1]
    return lines[keep]


def _earlier_greater(values: np.ndarray) -> np.ndarray:
    """``out[i]`` = number of ``j < i`` with ``values[j] > values[i]``.

    ``values`` are distinct non-negative integers.  A prefix maximum (a
    *record*) has none.  Records ascend in both position and value, so the
    records earlier than and greater than any other element are the
    records greater than it, counted with one ``np.searchsorted``.  Only
    the other elements' counts among themselves remain; reuse streams are
    mostly records, so few elements take the wavelet-matrix pass for them:
    level by level from the top bit, elements are stably partitioned by the
    bits seen so far, so each group of equal high bits is contiguous and in
    original order.  An element with a 0 at the current bit is exceeded by
    exactly the 1s that precede it in its group.  ``start`` tracks each
    element's group start through the partitions.
    """
    record = values == np.maximum.accumulate(values)
    order = np.flatnonzero(~record)
    out = np.zeros(values.size, dtype=np.int64)
    out[order] = np.cumsum(record)[order] - np.searchsorted(values[record], values[order])
    k = order.size
    if k < 2:
        return out
    values = values[order]
    acc = np.zeros(k, dtype=np.int64)
    start = np.zeros(k, dtype=np.int64)
    ones = np.zeros(k + 1, dtype=np.int64)
    for b in range(int(values.max()).bit_length() - 1, -1, -1):
        bit = (values >> b) & 1
        np.cumsum(bit, out=ones[1:])
        zero = bit == 0
        before = ones[start]
        acc += np.where(zero, ones[:-1] - before, 0)
        if b == 0:
            break
        start = np.where(zero, start - before, (k - ones[k]) + before)
        perm = np.argsort(~zero, kind="stable")
        values, acc, start, order = values[perm], acc[perm], start[perm], order[perm]
    out[order] += acc
    return out


class ReuseDistanceTracker:
    """Histograms the LRU stack distances of a buffered line stream."""

    #: Minimum number of accesses resolved together.
    chunk = 1 << 13

    def __init__(self) -> None:
        self._pending: List[np.ndarray] = []
        self._npending = 0
        # Live lines, least recently used first.
        self._live = np.empty(0, dtype=np.int64)
        self._resolved = 0
        self._cold = 0
        self._hist = np.zeros(_NUM_BUCKETS, dtype=np.int64)
        # Global last-access times of the live lines and the carried phantom:
        # read only by the legacy skew, and deleted with it.
        self._live_time = np.empty(0, dtype=np.int64)
        self._phantom = _NO_PHANTOM

    def extend(self, lines: np.ndarray) -> None:
        """Append accesses (integer line ids in ``[0, 2**31)``, in access
        order).

        The array is buffered by reference until it is resolved, so callers
        pass a fresh array.
        """
        if lines.size:
            if lines.min() < 0 or lines.max() >= _LINE_LIMIT:
                raise ValueError("reuse tracker line ids must lie in [0, 2**31)")
            self._pending.append(lines)
            self._npending += lines.size
            if self._npending >= max(self.chunk, self._live.size):
                self._drain(final=False)

    def _drain(self, final: bool) -> None:
        if not self._npending:
            return
        pending = self._pending
        stream = pending[0] if len(pending) == 1 else np.concatenate(pending)
        at = 0
        while at < stream.size:
            size = max(self.chunk, self._live.size)
            if not final and stream.size - at < size:
                break
            piece = stream[at : at + size]
            self._resolve(piece)
            at += piece.size
        self._pending = [stream[at:]] if at < stream.size else []
        self._npending = stream.size - at

    def _resolve(self, piece: np.ndarray) -> None:
        m, n = self._live.size, piece.size
        base = self._resolved
        seq = np.concatenate((self._live, piece))
        times = np.concatenate((self._live_time, np.arange(base, base + n)))
        keys = np.sort((seq << 32) | np.arange(m + n))
        order = keys & _POSITION
        keys >>= 32
        same = keys[1:] == keys[:-1]
        prev = np.full(m + n, -1, dtype=np.int64)
        prev[order[1:][same]] = order[:-1][same]
        t = np.flatnonzero(prev[m:] >= 0) + m  # reuses, in access order
        p = prev[t]
        dist = (t - p - 1) - _earlier_greater(p)
        dist -= self._legacy_fenwick_skew(times[t], times[p], base + n)
        self._hist += np.bincount(np.frexp(dist)[1], minlength=_NUM_BUCKETS)
        self._cold += n - t.size
        last = np.ones(m + n, dtype=bool)
        last[p] = False
        self._live = seq[last]
        self._live_time = times[last]
        self._resolved = base + n

    def _legacy_fenwick_skew(self, t: np.ndarray, p: np.ndarray, end: int) -> np.ndarray:
        """Per-reuse 1 where the legacy Fenwick tree read one less.

        ``t``/``p`` are the global access times of the piece's reuses and of
        their previous accesses; the piece covers times up to ``end``.  A
        growth at ``T`` whose access was a reuse left a phantom at its
        previous time ``P``; reuses at times in ``(T, next growth]`` with
        ``p > P`` are skewed.  The phantom of the last growth is carried into
        the next piece.  See the module docstring; delete this together with
        regenerating the frozen digests.
        """
        growths = [-1]
        phantoms = [self._phantom]
        g = _FIRST_GROWTH
        while g < end:
            if g >= self._resolved:
                i = np.searchsorted(t, g)
                growths.append(g)
                phantoms.append(p[i] if i < t.size and t[i] == g else _NO_PHANTOM)
            g *= 2
        self._phantom = phantoms[-1]
        slot = np.searchsorted(np.asarray(growths), t) - 1
        return (p > np.asarray(phantoms, dtype=np.int64)[slot]).astype(np.int64)

    # -- results (each resolves the pending stream first) -----------------

    @property
    def histogram(self) -> np.ndarray:
        """``histogram[b]`` counts accesses with distance in [2**(b-1), 2**b).

        Bucket 0 counts distance-0 accesses (immediate re-reference).
        """
        self._drain(final=True)
        return self._hist.copy()

    @property
    def cold_misses(self) -> int:
        self._drain(final=True)
        return self._cold

    @property
    def accesses(self) -> int:
        self._drain(final=True)
        return self._resolved

    @property
    def unique_lines(self) -> int:
        self._drain(final=True)
        return int(self._live.size)

    def cdf_at(self, threshold: int) -> float:
        """Fraction of *reuse* accesses with distance < ``threshold``.

        Cold misses are excluded from the denominator; the cold-miss rate is
        a separate characteristic.  Returns 0 when there were no reuses.
        Threshold is rounded down to a bucket boundary (power of two).
        """
        hist = self.histogram
        reuses = int(hist.sum())
        if reuses == 0:
            return 0.0
        bucket = max(int(threshold).bit_length() - 1, 0)
        return float(hist[: bucket + 1].sum()) / reuses

    @property
    def cold_miss_rate(self) -> float:
        accesses = self.accesses
        return self.cold_misses / accesses if accesses else 0.0
