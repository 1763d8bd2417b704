"""F7 — Design-space evaluation with representative subsets.

The paper's "evaluation implications": simulating only the cluster
representatives (weighted by cluster share) must predict full-suite
design-space results.  The bench sweeps 14 design points on the analytical
GPU model, compares subset vs full-suite geomean speedups, and contrasts
the cluster-chosen subset with random subsets of equal size.
"""

import numpy as np

from repro.core.analysis.diversity import representatives
from repro.core.analysis.kmeans import kmeans
from repro.core.evaluation import evaluate_subset, random_subset_errors
from repro.report import ascii_table
from repro.uarch import default_space, run_sweep

SUBSET_K = 8


def _build(analysis):
    configs = default_space().configs()
    perf = run_sweep(analysis.profiles, configs, use_cache=False).speedups("roofline")
    km = kmeans(analysis.pca.scores, SUBSET_K, np.random.default_rng(0), n_init=50)
    reps = representatives(km, analysis.pca.scores, analysis.workloads)
    evaluation = evaluate_subset(
        perf,
        [r.index for r in reps],
        [r.weight for r in reps],
        [c.name for c in configs],
    )
    random_errors = random_subset_errors(
        perf, subset_size=SUBSET_K, trials=200, rng=np.random.default_rng(99)
    )
    return configs, perf, reps, evaluation, random_errors


def test_f7_evaluation_metrics(benchmark, analysis, save_artifact):
    configs, perf, reps, ev, random_errors = benchmark(_build, analysis)
    rows = [
        [name, float(full), float(sub), f"{err * 100:+.1f}%"]
        for name, full, sub, err in zip(
            ev.design_names, ev.full_speedups, ev.subset_speedups, ev.relative_errors
        )
    ]
    text = ascii_table(
        ["design point", "full-suite speedup", "subset estimate", "error"],
        rows,
        title=f"F7: design-space evaluation with {SUBSET_K} representatives "
        f"({', '.join(r.workload for r in reps)})",
    )
    text += (
        f"\nmean |error| = {ev.mean_error * 100:.2f}%   max |error| = {ev.max_error * 100:.2f}%"
        f"\nranking fidelity (Kendall tau vs full suite) = {ev.kendall_tau:.3f}"
        f"\nsame winning design: {ev.same_winner}"
        f"\nrandom {SUBSET_K}-subsets: mean |error| = {random_errors.mean() * 100:.2f}% "
        f"(p50 {np.percentile(random_errors, 50) * 100:.2f}%, "
        f"p90 {np.percentile(random_errors, 90) * 100:.2f}%)"
    )
    save_artifact("f7_evaluation_metrics.txt", text)

    # Paper shape: the representative subset evaluates the design space
    # accurately — small errors, high rank fidelity, same winner — and beats
    # the median random subset of the same size.
    assert ev.mean_error < 0.05
    assert ev.kendall_tau > 0.8
    assert ev.same_winner
    assert ev.mean_error <= float(np.percentile(random_errors, 75))
    # Sanity on the sweep itself: the fat design dominates the baseline.
    fat = ev.design_names.index("fat")
    assert ev.full_speedups[fat] > 1.0
