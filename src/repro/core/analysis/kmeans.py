"""K-means clustering with BIC model selection, from scratch.

The paper's methodology (following MICA/Eeckhout) clusters workloads with
K-means and selects K with the Bayesian Information Criterion of the
spherical-Gaussian mixture interpretation (the X-means formulation of
Pelleg & Moore).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class KMeansResult:
    """One fitted K-means model."""

    k: int
    labels: np.ndarray
    centers: np.ndarray
    inertia: float

    def cluster_members(self) -> List[np.ndarray]:
        return [np.flatnonzero(self.labels == j) for j in range(self.k)]


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(probs), p=probs)`` without its argument checks: the
    same inverse-CDF draw, so the same index and the same RNG state."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _init_plusplus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding."""
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[_draw(d2 / total, rng)])
        d2 = np.minimum(d2, ((points - centers[-1]) ** 2).sum(axis=1))
    return np.array(centers)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances ``(R, n, k)`` of every point to every restart's centers.

    Built one cluster at a time from ``(R, n, d)`` slabs: each entry is the
    same sum over ``d`` as in a single restart's ``(n, k, d)`` broadcast.
    """
    n_restarts, k, _d = centers.shape
    d2 = np.empty((n_restarts, points.shape[0], k))
    for j in range(k):
        d2[:, :, j] = ((points[None, :, :] - centers[:, j, None, :]) ** 2).sum(axis=2)
    return d2


def _cluster_means(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each restart's cluster means; empty clusters keep their center.

    A bin sum adds a cluster's members in row order, which is how numpy's
    ``mean(axis=0)`` sums ``d > 1`` columns, so the means are bit-identical.
    A single column (``d == 1``) numpy sums pairwise, so there each mean is
    taken directly.
    """
    n_restarts, k, d = centers.shape
    bins = (labels + k * np.arange(n_restarts)[:, None]).ravel()
    counts = np.bincount(bins, minlength=n_restarts * k)
    out = centers.reshape(n_restarts * k, d).copy()
    filled = np.flatnonzero(counts)
    if d == 1:
        for b in filled:
            r, j = divmod(int(b), k)
            out[b] = points[labels[r] == j].mean(axis=0)
    else:
        sums = np.bincount(
            (bins[:, None] * d + np.arange(d)).ravel(),
            weights=np.broadcast_to(points, (n_restarts,) + points.shape).ravel(),
            minlength=n_restarts * k * d,
        ).reshape(n_restarts * k, d)
        out[filled] = sums[filled] / counts[filled, None]
    return out.reshape(n_restarts, k, d)


def _lloyd_restarts(
    points: np.ndarray, centers: np.ndarray, max_iter: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations of every restart at once.

    ``centers`` is ``(R, k, d)``, one seeding per restart, and is updated in
    place.  A restart stops
    once its labels no longer change; the rest keep iterating.  Returns the
    ``(R, n)`` labels, ``(R, k, d)`` centers and ``(R,)`` inertias.
    """
    n_restarts = centers.shape[0]
    labels = np.zeros((n_restarts, points.shape[0]), dtype=int)
    active = np.arange(n_restarts)
    for it in range(max_iter):
        new_labels = _sq_dists(points, centers[active]).argmin(axis=2)
        if it > 0:
            moved = (new_labels != labels[active]).any(axis=1)
            active, new_labels = active[moved], new_labels[moved]
            if not active.size:
                break
        labels[active] = new_labels
        centers[active] = _cluster_means(points, new_labels, centers[active])
    d2 = _sq_dists(points, centers)
    return d2.argmin(axis=2), centers, d2.min(axis=2).sum(axis=1)


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    n_init: int = 8,
    max_iter: int = 200,
) -> KMeansResult:
    """Best-of-``n_init`` K-means (k-means++ seeding, Lloyd iterations).

    Every restart is seeded first, in order from ``rng``; the restarts then
    iterate together and the first one with the least inertia wins.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n_init < 1:
        raise ValueError(f"n_init must be at least 1, got {n_init}")
    rng = rng or np.random.default_rng(0)
    seeds = np.array([_init_plusplus(points, k, rng) for _ in range(n_init)])
    labels, centers, inertia = _lloyd_restarts(points, seeds, max_iter)
    best = int(inertia.argmin())
    return KMeansResult(
        k=k, labels=labels[best].copy(), centers=centers[best].copy(), inertia=float(inertia[best])
    )


def bic_score(points: np.ndarray, result: KMeansResult) -> float:
    """X-means BIC of the spherical-Gaussian interpretation (higher = better)."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    k = result.k
    if n <= k:
        return -math.inf
    variance = result.inertia / (d * (n - k))
    variance = max(variance, 1e-12)
    ll = 0.0
    for j in range(k):
        nj = int((result.labels == j).sum())
        if nj == 0:
            continue
        ll += nj * math.log(nj)
    ll -= n * math.log(n)
    ll -= n * d / 2.0 * math.log(2.0 * math.pi * variance)
    ll -= d * (n - k) / 2.0
    n_params = k * (d + 1)
    return ll - n_params / 2.0 * math.log(n)


def rand_index(a, b) -> float:
    """Rand index between two partitions (fraction of agreeing pairs).

    Robust way to compare clusterings: invariant to label permutation and
    to which exemplar a cluster happens to elect.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("partitions must label the same items")
    n = a.size
    if n < 2:
        return 1.0
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    iu = np.triu_indices(n, k=1)
    return float((same_a[iu] == same_b[iu]).mean())


def choose_k(
    points: np.ndarray,
    k_range: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> Tuple[int, Dict[int, Tuple[KMeansResult, float]]]:
    """Fit K-means for each K and return the BIC-optimal one."""
    rng = rng or np.random.default_rng(0)
    fits: Dict[int, Tuple[KMeansResult, float]] = {}
    for k in k_range:
        result = kmeans(points, k, rng)
        fits[k] = (result, bic_score(points, result))
    best_k = max(fits, key=lambda k: fits[k][1])
    return best_k, fits
