"""Design-space evaluation with a representative subset.

The paper's "microarchitecture evaluation implications": instead of
simulating all 29 workloads on every candidate design, simulate the cluster
representatives and weight by cluster size.  This example sweeps 14 design
points on the analytical GPU model and quantifies how well the subset
predicts the full suite — including against random subsets of the same
size.

Run:  python examples/design_space_eval.py
"""

import numpy as np

from repro.api import analyze, characterize
from repro.core.analysis.diversity import representatives
from repro.core.analysis.kmeans import kmeans
from repro.core.evaluation import evaluate_subset, random_subset_errors
from repro.report import ascii_table
from repro.uarch import BASELINE, bottleneck_summary, default_space, run_sweep

SUBSET_K = 8


def main():
    profiles = characterize().profiles
    result = analyze(profiles)
    configs = default_space().configs()

    print("estimating the full suite on every design point...")
    perf = run_sweep(profiles, configs, use_cache=False).speedups("roofline")

    print("\nbaseline bottleneck mix:")
    for bottleneck, names in bottleneck_summary(profiles, BASELINE).items():
        print(f"  {bottleneck:10s}: {' '.join(names)}")

    km = kmeans(result.pca.scores, SUBSET_K, np.random.default_rng(0), n_init=50)
    reps = representatives(km, result.pca.scores, result.workloads)
    print(f"\n{SUBSET_K} representatives: {', '.join(r.workload for r in reps)}")

    ev = evaluate_subset(
        perf, [r.index for r in reps], [r.weight for r in reps], [c.name for c in configs]
    )
    rows = [
        [name, f"{full:.3f}", f"{sub:.3f}", f"{err * 100:+.1f}%"]
        for name, full, sub, err in zip(
            ev.design_names, ev.full_speedups, ev.subset_speedups, ev.relative_errors
        )
    ]
    print(ascii_table(
        ["design", "full-suite speedup", "subset estimate", "error"],
        rows,
        title="design-space results: full suite vs representative subset",
    ))
    print(f"mean |error| {ev.mean_error:.1%}, Kendall tau {ev.kendall_tau:.2f}, "
          f"same winner: {ev.same_winner}")

    random_errors = random_subset_errors(perf, SUBSET_K, 200, np.random.default_rng(1))
    print(f"random {SUBSET_K}-subsets for comparison: "
          f"median |error| {np.median(random_errors):.1%}, "
          f"p90 {np.percentile(random_errors, 90):.1%}")
    print(f"simulation budget saved: {1 - SUBSET_K / len(profiles):.0%} "
          f"({len(profiles)} -> {SUBSET_K} workloads per design point)")


if __name__ == "__main__":
    main()
