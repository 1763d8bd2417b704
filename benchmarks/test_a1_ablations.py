"""A1 — Ablations of the measurement/analysis design choices.

DESIGN.md calls out the knobs this methodology quietly fixes; this bench
quantifies how sensitive the headline artifacts are to them:

* transaction segment granularity (32B vs 128B) — metric stability;
* reuse-distance line size (64B vs 128B) — locality CDF stability;
* PCA variance retention target (85/90/95%) — representative stability;
* linkage method — clustering stability (also covered in F3).
"""

import numpy as np

from repro.core.analysis.diversity import representatives
from repro.core.analysis.kmeans import kmeans, rand_index
from repro.core.analysis.pca import fit_pca
from repro.core.featurespace import FeatureMatrix, standardize
from repro.report import ascii_table
from repro.trace.collector import CollectorConfig
from repro.workloads.runner import run_workload

#: A small, behaviourally spread probe set so the collector re-runs stay fast.
PROBE = ["VA", "SLA", "KM", "MUM", "MM"]


def _cluster_at(profiles, variance_target, seed=0, k=6):
    sm = standardize(FeatureMatrix.from_profiles(profiles))
    pca = fit_pca(sm, variance_target=variance_target)
    km = kmeans(pca.scores, k, np.random.default_rng(seed), n_init=50)
    reps = {r.workload for r in representatives(km, pca.scores, sm.workloads)}
    return km.labels, reps


def _build(profiles):
    clusterings = {vt: _cluster_at(profiles, vt) for vt in (0.85, 0.90, 0.95)}
    lines = {
        line: [
            run_workload(w, collector_config=CollectorConfig(line_bytes=line))
            for w in PROBE
        ]
        for line in (64, 128)
    }
    return clusterings, lines


def test_a1_ablations(benchmark, profiles, save_artifact):
    clusterings, lines = benchmark(_build, profiles)

    rows = [[f"{vt:.0%}", " ".join(sorted(reps))] for vt, (_labels, reps) in clusterings.items()]
    text = ascii_table(
        ["variance target", "representatives (K=6)"],
        rows,
        title="A1a: clustering stability vs PCA retention target",
    )
    ri = rand_index(clusterings[0.85][0], clusterings[0.95][0])
    text += f"\nRand index between 85% and 95% partitions: {ri:.2f}\n\n"

    from repro.core import metrics

    rows2 = []
    for line, probe_profiles in lines.items():
        for p in probe_profiles:
            v = metrics.extract_vector(p, ["loc.rd256", "loc.cold_rate", "loc.footprint_log"])
            rows2.append([line, p.workload, v["loc.rd256"], v["loc.cold_rate"], v["loc.footprint_log"]])
    text += ascii_table(
        ["line bytes", "workload", "rd<256 frac", "cold rate", "footprint log2"],
        rows2,
        title="A1b: locality metrics vs cache-line granularity",
    )
    save_artifact("a1_ablations.txt", text)

    # The partitions must be broadly stable across retention targets.
    assert ri >= 0.7
    # Halving the line size doubles footprints (within sampling wiggle) but
    # must not invert any workload's locality ordering.
    by = {
        (line, p.workload): metrics.extract_vector(p)
        for line, pp in lines.items()
        for p in pp
    }
    for w in PROBE:
        assert by[(64, w)]["loc.footprint_log"] >= by[(128, w)]["loc.footprint_log"]
    order64 = sorted(PROBE, key=lambda w: by[(64, w)]["loc.cold_rate"])
    order128 = sorted(PROBE, key=lambda w: by[(128, w)]["loc.cold_rate"])
    agree = sum(a == b for a, b in zip(order64, order128))
    assert agree >= 3
