"""End-to-end characterization pipeline.

``analyze()`` turns workload profiles into the paper's artifacts — feature
matrix, PCA, dendrogram, K-means clusters, subspace analyses,
representatives.  Characterization itself lives behind the stable
:mod:`repro.api` facade (``api.characterize(config)``); the deprecated
``characterize_suites()`` / ``characterize_and_analyze()`` shims that once
lived here have been removed.

Execution, parallelism and caching live in :mod:`repro.core.runtime`:
workloads fan out over a process pool (``CharacterizationConfig.jobs`` /
``REPRO_JOBS``) and profiles are cached per workload in content-addressed
shards that self-invalidate when the simulator, collector or the workload's
own module changes — so every downstream command re-simulates only what an
edit actually touched.  ``CharacterizationConfig.passes`` restricts
collection to a subset of the analysis passes; :func:`analyze` then works
on whatever metrics those passes support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import metrics as metrics_mod
from repro.core.analysis.diversity import Representative, representatives
from repro.core.analysis.hier import Dendrogram, linkage
from repro.core.analysis.kmeans import KMeansResult, choose_k
from repro.core.analysis.pca import PcaResult, fit_pca
from repro.core.analysis.subspace import SubspaceAnalysis, analyze_subspace
from repro.core.featurespace import FeatureMatrix, StandardizedMatrix, standardize
from repro.trace.profile import WorkloadProfile


@dataclass
class AnalysisResult:
    """Every artifact of the paper's methodology for one workload set."""

    profiles: List[WorkloadProfile]
    feature_matrix: FeatureMatrix
    standardized: StandardizedMatrix
    pca: PcaResult
    dendrogram: Dendrogram
    kmeans_best_k: int
    kmeans: KMeansResult
    kmeans_bics: Dict[int, float]
    representatives: List[Representative]
    subspaces: Dict[str, SubspaceAnalysis] = field(default_factory=dict)
    #: Subset clusterings fitted so far, by ``(subset_k, seed)``.
    _subset_fits: Dict[Tuple[int, int], KMeansResult] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def subset_clustering(self, subset_k: int, seed: int) -> Tuple[KMeansResult, bool]:
        """K-means of the PCA scores into ``subset_k`` clusters, and whether
        this call fitted it.

        The fit depends only on the scores, ``subset_k`` and ``seed``, so it
        is made once per analysis and reused, whichever timing model a
        design-space evaluation uses.
        """
        # Looked up at call time, as ``choose_k``'s own fits are, so a
        # wrapper installed on the kmeans module sees this fit too.
        from repro.core.analysis.kmeans import kmeans

        key = (subset_k, seed)
        fitted = key not in self._subset_fits
        if fitted:
            self._subset_fits[key] = kmeans(
                self.pca.scores, subset_k, np.random.default_rng(seed), n_init=50
            )
        return self._subset_fits[key], fitted

    @property
    def workloads(self) -> List[str]:
        return self.feature_matrix.workloads

    @property
    def suites(self) -> List[str]:
        return self.feature_matrix.suites


def analyze(
    profiles: Sequence[WorkloadProfile],
    variance_target: float = 0.9,
    linkage_method: str = "average",
    k_range: Optional[Sequence[int]] = None,
    seed: int = 7,
    subspaces: Optional[Dict[str, Sequence[str]]] = None,
    metric_names: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Run the full methodology: normalize, PCA, cluster, select, subspace.

    ``metric_names`` restricts the feature space; by default it is every
    metric the profiles' collected passes support.
    """
    fm = FeatureMatrix.from_profiles(profiles, metric_names=metric_names)
    sm = standardize(fm)
    pca = fit_pca(sm, variance_target=variance_target)
    dendro = linkage(pca.scores, fm.workloads, method=linkage_method)
    n = fm.n_workloads
    if k_range is None:
        k_range = range(2, max(min(n // 2, 12), 3))
    rng = np.random.default_rng(seed)
    best_k, fits = choose_k(pca.scores, k_range, rng)
    km = fits[best_k][0]
    reps = representatives(km, pca.scores, fm.workloads)
    result = AnalysisResult(
        profiles=list(profiles),
        feature_matrix=fm,
        standardized=sm,
        pca=pca,
        dendrogram=dendro,
        kmeans_best_k=best_k,
        kmeans=km,
        kmeans_bics={k: bic for k, (_, bic) in fits.items()},
        representatives=reps,
    )
    for name, names in (subspaces or metrics_mod.SUBSPACES).items():
        if subspaces is None and not set(names) <= set(fm.metric_names):
            # A default subspace whose metrics the collected passes don't
            # support (subset-pass run) is simply skipped.
            continue
        result.subspaces[name] = analyze_subspace(
            fm, names, name, variance_target=variance_target, linkage_method=linkage_method
        )
    return result
