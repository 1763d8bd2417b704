"""Byte-compatibility reference: the scalar Fenwick reuse-distance tracker.

This is the per-access Fenwick-tree tracker that the vectorized
:class:`repro.trace.reuse.ReuseDistanceTracker` replaced, kept verbatim
(class body unchanged) so tests can pin the new tracker's histogram and
counters to it exactly, including its capacity-growth skew.  It is test
code only; nothing under ``src/`` imports it.

Original module docstring:

    Implements Mattson's stack-distance algorithm in O(log N) per access
    using a Fenwick tree over access timestamps: each cache line's most
    recent access time is marked in the tree, and the reuse distance of a
    new access to line ``L`` is the number of *distinct* lines touched since
    ``L``'s previous access, i.e. the count of marked slots after that time.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

#: Number of power-of-two histogram buckets (covers distances up to 2**63).
_NUM_BUCKETS = 64


class ReuseDistanceTracker:
    """Streams cache-line accesses and histograms their LRU stack distances."""

    def __init__(self) -> None:
        self._last_time: Dict[int, int] = {}
        self._time = 0
        self._cap = 1024
        self._tree = [0] * (self._cap + 1)
        self._hist = [0] * _NUM_BUCKETS
        self.cold_misses = 0
        self.accesses = 0

    @property
    def histogram(self) -> np.ndarray:
        """``histogram[b]`` counts accesses with distance in [2**(b-1), 2**b).

        Bucket 0 counts distance-0 accesses (immediate re-reference).
        """
        return np.array(self._hist, dtype=np.int64)

    def access(self, line: int) -> int:
        """Record an access; returns the reuse distance (-1 if cold)."""
        self.accesses += 1
        tree = self._tree
        cap = self._cap
        last = self._last_time
        prev = last.get(line)
        if prev is None:
            distance = -1
            self.cold_misses += 1
        else:
            # Marked slots after prev = total marked - prefix(prev + 1);
            # total marked is exactly the number of tracked lines.
            i = prev + 1
            s = 0
            while i > 0:
                s += tree[i]
                i -= i & (-i)
            distance = len(last) - s
            self._hist[distance.bit_length()] += 1
            # Unmark the previous access time (it was marked, delta -1).
            i = prev + 1
            while i <= cap:
                tree[i] -= 1
                i += i & (-i)
        t = self._time
        if t >= cap:
            self._grow()
            tree = self._tree
            cap = self._cap
        i = t + 1
        while i <= cap:
            tree[i] += 1
            i += i & (-i)
        last[line] = t
        self._time = t + 1
        return distance

    def access_many(self, lines: Iterable[int]) -> None:
        access = self.access
        for line in lines:
            access(int(line))

    def _grow(self) -> None:
        """Double capacity, rebuilding from the live line set only."""
        while self._time >= self._cap:
            self._cap *= 2
        cap = self._cap
        tree = [0] * (cap + 1)
        for t in self._last_time.values():
            i = t + 1
            while i <= cap:
                tree[i] += 1
                i += i & (-i)
        self._tree = tree

    @property
    def unique_lines(self) -> int:
        return len(self._last_time)

    def cdf_at(self, threshold: int) -> float:
        """Fraction of *reuse* accesses with distance < ``threshold``.

        Cold misses are excluded from the denominator; the cold-miss rate is
        a separate characteristic.  Returns 0 when there were no reuses.
        Threshold is rounded down to a bucket boundary (power of two).
        """
        reuses = sum(self._hist)
        if reuses == 0:
            return 0.0
        bucket = max(int(threshold).bit_length() - 1, 0)
        return float(sum(self._hist[: bucket + 1])) / reuses

    @property
    def cold_miss_rate(self) -> float:
        return self.cold_misses / self.accesses if self.accesses else 0.0
