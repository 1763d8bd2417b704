"""A3 — Profiling-sample accuracy.

The pipeline profiles at most 48 blocks per launch (functional execution
always covers the grid).  This ablation quantifies what sampling costs:
characteristics measured at full coverage vs 48- and 8-block samples, over
a probe set chosen to include boundary-sensitive workloads.
"""

import numpy as np

from repro.core import metrics
from repro.report import ascii_table
from repro.workloads.runner import run_workload

PROBE = ["VA", "SLA", "KM", "SPMV", "HS", "BFS"]
#: Ratio-type characteristics where sampling error is meaningfully comparable.
CHECK_METRICS = [
    "div.rate",
    "div.simd_efficiency",
    "coal.t32_per_access",
    "coal.coalesced_frac",
    "mix.ld_global",
    "loc.cold_rate",
]
#: Locality metrics are the known sampling-sensitive group: inter-block line
#: reuse is severed at sample boundaries, inflating cold-miss rates.
LOCALITY_SENSITIVE = {"loc.cold_rate"}


def _build(profiles):
    runs = {
        label: [run_workload(w, sample_blocks=blocks) for w in PROBE]
        for label, blocks in (("full", None), ("s48", 48), ("s8", 8))
    }
    vectors = {
        label: {p.workload: metrics.extract_vector(p, CHECK_METRICS) for p in pp}
        for label, pp in runs.items()
    }
    return vectors


def test_a3_sampling(benchmark, profiles, save_artifact):
    vectors = benchmark(_build, profiles)
    rows = []
    worst = {"s48": 0.0, "s8": 0.0}
    worst_locality = {"s48": 0.0, "s8": 0.0}
    for workload in PROBE:
        for name in CHECK_METRICS:
            full = vectors["full"][workload][name]
            r = [workload, name, full]
            for label in ("s48", "s8"):
                sampled = vectors[label][workload][name]
                err = abs(sampled - full) / (abs(full) + 1e-9) if full else abs(sampled)
                bucket = worst_locality if name in LOCALITY_SENSITIVE else worst
                bucket[label] = max(bucket[label], err)
                r.append(sampled)
            rows.append(r)
    text = ascii_table(
        ["workload", "characteristic", "full", "48-block sample", "8-block sample"],
        rows,
        title="A3: characteristic values vs profiling sample size",
    )
    text += (
        f"\nworst deviation (non-locality metrics): 48-block {worst['s48']:.1%}, "
        f"8-block {worst['s8']:.1%}"
        f"\nworst deviation (locality metrics): 48-block {worst_locality['s48']:.1%}, "
        f"8-block {worst_locality['s8']:.1%}"
        "\nLocality is the sampling-sensitive group: inter-block line reuse is"
        "\nsevered at sample boundaries, so small samples overstate cold rates."
    )
    save_artifact("a3_sampling.txt", text)

    # The default 48-block sample must be near-exact on every metric...
    assert worst["s48"] < 0.15
    assert worst_locality["s48"] < 0.15
    # ...and even aggressive 8-block sampling keeps non-locality behaviour.
    assert worst["s8"] < 0.5
    # Locality degrades with small samples (a documented artifact) but must
    # stay directionally useful (within ~2x).
    assert worst_locality["s8"] < 1.1
