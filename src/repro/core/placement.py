"""Placing new workloads into an existing characterized space.

The downstream-user workflow the paper enables: characterize *your* kernel,
project it into the suite's PCA space, and see which known workloads it
behaves like — which immediately says which baselines to compare against
and which optimisations are likely to matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core import metrics as metrics_mod
from repro.core.pipeline import AnalysisResult
from repro.trace.profile import WorkloadProfile


@dataclass
class Placement:
    """Where a new workload lands in an existing analysis."""

    workload: str
    #: Coordinates in the analysis' PCA space.
    scores: np.ndarray
    #: (workload, distance) pairs, nearest first.
    neighbors: List[Tuple[str, float]]
    #: Index of the closest K-means cluster of the reference analysis.
    cluster: int
    #: Distance from the reference population centroid (diversity score).
    centroid_distance: float

    @property
    def nearest(self) -> str:
        return self.neighbors[0][0]

    def is_novel(self, quantile: float = 0.9) -> bool:
        """Does this workload sit farther out than ``quantile`` of the suite?

        ``True`` means the suite has no good proxy for it — exactly the
        signal that it is worth adding to a benchmark set.
        """
        return self.centroid_distance > self._suite_quantile(quantile)

    # Populated by place_workload; kept on the object so is_novel is cheap.
    _suite_distances: np.ndarray = None  # type: ignore[assignment]

    def _suite_quantile(self, quantile: float) -> float:
        return float(np.quantile(self._suite_distances, quantile))


def place_workload(profile: WorkloadProfile, analysis: AnalysisResult) -> Placement:
    """Project a newly characterized workload into an existing analysis.

    The new profile is standardized with the *reference* population's mean
    and std (not re-fit), then projected onto the reference principal
    components — the textbook out-of-sample embedding.
    """
    sm = analysis.standardized
    vector = metrics_mod.extract_vector(profile, sm.metric_names)
    raw = np.array([vector[name] for name in sm.metric_names], dtype=float)
    z = (raw - sm.mean) / sm.std
    scores = z @ analysis.pca.components

    ref = analysis.pca.scores
    distances = np.linalg.norm(ref - scores, axis=1)
    order = np.argsort(distances)
    neighbors = [(analysis.workloads[i], float(distances[i])) for i in order]

    centroid = ref.mean(axis=0)
    suite_distances = np.linalg.norm(ref - centroid, axis=1)
    cluster = int(np.linalg.norm(analysis.kmeans.centers - scores, axis=1).argmin())

    placement = Placement(
        workload=profile.workload,
        scores=scores,
        neighbors=neighbors,
        cluster=cluster,
        centroid_distance=float(np.linalg.norm(scores - centroid)),
    )
    placement._suite_distances = suite_distances
    return placement
