"""Suite diversity analysis — the paper's headline workflow.

Characterizes all 29 CUDA SDK / Parboil / Rodinia workloads (cached after
the first run), reduces the correlated characteristics with PCA, and shows
the workload space: scatter, dendrogram, BIC-selected clusters and the
representative subset an architect would simulate.

Run:  python examples/suite_diversity.py
"""

import sys

from repro.api import CharacterizationConfig, analyze, characterize
from repro.core.analysis.diversity import outlier_ranking, suite_diversity
from repro.report import ascii_table, text_dendrogram, text_scatter


def main():
    print("characterizing the suites (first run simulates everything)...")
    # jobs=0 fans the first-run simulation out over every core; cached
    # profiles make later runs instant.  The progress sink streams live
    # per-workload lines to stderr.
    result = analyze(
        characterize(
            CharacterizationConfig(jobs=0),
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    )

    pca = result.pca
    print(
        f"\n{len(result.standardized.metric_names)} characteristics -> "
        f"{pca.n_components} principal components ({pca.retained:.0%} variance)\n"
    )
    print(text_scatter(pca.scores[:, 0], pca.scores[:, 1], result.workloads))

    print("Workload-space diversity ranking (distance from centroid):")
    for rank, (workload, dist) in enumerate(outlier_ranking(pca.scores, result.workloads)[:10], 1):
        print(f"  {rank:2d}. {workload:5s} {dist:.2f}")

    print("\nHierarchical clustering (UPGMA):")
    print(text_dendrogram(result.dendrogram))

    print(f"BIC-optimal cluster count: K={result.kmeans_best_k}")
    rows = [
        [r.cluster, r.workload, r.cluster_size, f"{r.weight:.2f}", " ".join(r.members)]
        for r in result.representatives
    ]
    print(ascii_table(["cluster", "representative", "size", "weight", "members"], rows))

    print("Per-suite coverage of the space:")
    stats = suite_diversity(pca.scores, result.workloads, result.suites)
    rows = [[s.suite, s.n_workloads, f"{s.mean_pairwise:.2f}", f"{s.diameter:.2f}"] for s in stats]
    print(ascii_table(["suite", "n", "mean pairwise dist", "diameter"], rows))


if __name__ == "__main__":
    main()
