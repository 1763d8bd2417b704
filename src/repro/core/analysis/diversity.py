"""Diversity analysis and representative-subset selection.

Implements the paper's two architect-facing outputs:

* *Diversity analysis* — how spread out a benchmark suite is in the workload
  space, which suites cover which regions, and which individual workloads
  are outliers.
* *Representative selection* — given a clustering, pick the exemplar nearest
  each cluster centroid; simulating only the exemplars (weighted by cluster
  size) approximates full-suite results at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.analysis.hier import euclidean_distance_matrix
from repro.core.analysis.kmeans import KMeansResult


@dataclass
class SuiteDiversity:
    """Spread statistics of one suite within the common workload space."""

    suite: str
    n_workloads: int
    #: Mean pairwise distance between the suite's workloads.
    mean_pairwise: float
    #: Maximum pairwise distance (the suite's diameter).
    diameter: float
    #: Mean distance from the *global* centroid (how far the suite reaches).
    mean_centroid_dist: float
    #: Total variance of the suite's points (trace of covariance).
    total_variance: float


def suite_diversity(
    scores: np.ndarray, workloads: Sequence[str], suites: Sequence[str]
) -> List[SuiteDiversity]:
    """Per-suite spread in a common (PC-space) embedding."""
    scores = np.asarray(scores, dtype=float)
    out = []
    for suite in dict.fromkeys(suites):  # preserve order, unique
        idx = [i for i, s in enumerate(suites) if s == suite]
        pts = scores[idx]
        if len(idx) >= 2:
            dist = euclidean_distance_matrix(pts)
            iu = np.triu_indices(len(idx), k=1)
            mean_pw = float(dist[iu].mean())
            diameter = float(dist[iu].max())
            tvar = float(pts.var(axis=0).sum())
        else:
            mean_pw = diameter = tvar = 0.0
        centroid = scores.mean(axis=0)
        mcd = float(np.linalg.norm(pts - centroid, axis=1).mean())
        out.append(
            SuiteDiversity(
                suite=suite,
                n_workloads=len(idx),
                mean_pairwise=mean_pw,
                diameter=diameter,
                mean_centroid_dist=mcd,
                total_variance=tvar,
            )
        )
    return out


@dataclass
class Representative:
    """One cluster exemplar."""

    cluster: int
    workload: str
    index: int
    cluster_size: int
    #: Weight for subset-based estimation (cluster share of the population).
    weight: float
    members: List[str]


def representatives(
    result: KMeansResult, scores: np.ndarray, workloads: Sequence[str]
) -> List[Representative]:
    """The workload closest to each cluster centroid, with its weight."""
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    reps: List[Representative] = []
    for j in range(result.k):
        members = np.flatnonzero(result.labels == j)
        if members.size == 0:
            continue
        d = np.linalg.norm(scores[members] - result.centers[j], axis=1)
        pick = members[int(d.argmin())]
        reps.append(
            Representative(
                cluster=j,
                workload=workloads[pick],
                index=int(pick),
                cluster_size=int(members.size),
                weight=members.size / n,
                members=[workloads[i] for i in members],
            )
        )
    reps.sort(key=lambda r: -r.cluster_size)
    return reps


def outlier_ranking(scores: np.ndarray, workloads: Sequence[str]) -> List[Tuple[str, float]]:
    """Workloads ranked by distance from the population centroid (diverse first)."""
    scores = np.asarray(scores, dtype=float)
    centroid = scores.mean(axis=0)
    dist = np.linalg.norm(scores - centroid, axis=1)
    order = np.argsort(-dist)
    return [(workloads[i], float(dist[i])) for i in order]


def nearest_neighbor_distances(scores: np.ndarray) -> np.ndarray:
    """Each workload's distance to its closest peer (redundancy indicator)."""
    dist = euclidean_distance_matrix(np.asarray(scores, dtype=float))
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def coverage_of_subset(scores: np.ndarray, subset_idx: Sequence[int]) -> float:
    """Mean distance from every workload to its nearest subset member.

    0 means the subset covers the space perfectly; large values mean whole
    regions of workload behaviour are unrepresented.
    """
    scores = np.asarray(scores, dtype=float)
    subset = scores[list(subset_idx)]
    d = np.linalg.norm(scores[:, None, :] - subset[None, :, :], axis=2)
    return float(d.min(axis=1).mean())
