"""Markdown rendering of a full analysis.

``render_analysis_report`` turns an :class:`~repro.core.pipeline.AnalysisResult`
into a single self-contained Markdown document — the artifact you attach to
a design review or a paper appendix.  Exposed on the CLI as
``python -m repro report``.
"""

from __future__ import annotations

import io
from typing import Iterable, Sequence

from repro.report.tables import format_cell


def md_table(headers: Sequence[str], rows: Iterable[Sequence], precision: int = 3) -> str:
    out = io.StringIO()
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(format_cell(c, precision) for c in row) + " |\n")
    return out.getvalue()


def render_analysis_report(analysis) -> str:
    """Render the headline analysis artifacts as one Markdown document."""
    from repro.core.analysis.diversity import outlier_ranking, suite_diversity
    from repro.core.evaluation import STRESS_PROFILES, stress_ranking

    out = io.StringIO()
    n = len(analysis.workloads)
    pca = analysis.pca
    out.write("# GPGPU workload characterization report\n\n")
    out.write(
        f"{n} workloads, {len(analysis.standardized.metric_names)} characteristics, "
        f"{pca.n_components} principal components retaining {pca.retained:.0%} of "
        "the variance.\n\n"
    )

    out.write("## Workloads\n\n")
    rows = [
        [p.suite, p.workload, p.launches, p.total_warp_instrs]
        for p in analysis.profiles
    ]
    out.write(md_table(["suite", "workload", "launches", "warp instructions"], rows))

    out.write("\n## Principal components\n\n")
    rows = []
    for j in range(pca.n_components):
        loadings = ", ".join(f"{name} ({value:+.2f})" for name, value in pca.top_loadings(j, 3))
        rows.append([f"PC{j+1}", float(pca.explained_ratio[j]), loadings])
    out.write(md_table(["component", "variance share", "dominant characteristics"], rows))

    out.write("\n## Diversity ranking (distance from population centroid)\n\n")
    ranking = outlier_ranking(pca.scores, analysis.workloads)
    out.write(md_table(["rank", "workload", "distance"], [[i + 1, w, d] for i, (w, d) in enumerate(ranking[:10])]))

    out.write(f"\n## Clusters (BIC-optimal K = {analysis.kmeans_best_k})\n\n")
    rows = [
        [r.cluster, r.workload, r.cluster_size, r.weight, " ".join(r.members)]
        for r in analysis.representatives
    ]
    out.write(md_table(["cluster", "representative", "size", "weight", "members"], rows))

    out.write("\n## Suite coverage\n\n")
    stats = suite_diversity(pca.scores, analysis.workloads, analysis.suites)
    rows = [[s.suite, s.n_workloads, s.mean_pairwise, s.diameter] for s in stats]
    out.write(md_table(["suite", "workloads", "mean pairwise distance", "diameter"], rows))

    out.write("\n## Functional-block stress sets\n\n")
    for block in STRESS_PROFILES:
        ranked = stress_ranking(analysis.feature_matrix, block, top=4)
        picks = ", ".join(f"{w} ({score:+.2f})" for w, score in ranked)
        out.write(f"- **{block}**: {picks}\n")

    out.write("\n## Subspace diversity\n\n")
    for name, sub in analysis.subspaces.items():
        top = ", ".join(f"{w} ({v:.2f})" for w, v in sub.ranking()[:5])
        out.write(f"- **{name}** ({len(sub.feature_matrix.metric_names)} dims): {top}\n")
    return out.getvalue()
