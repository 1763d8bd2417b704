"""A2 — Performance-model cross-validation.

The evaluation-implications experiments (F7) use an analytical roofline
oracle.  This bench re-runs the full design-space sweep under an
*independent*, event-driven cycle-approximate scheduler and compares the
two: if the headline conclusions survived only because of roofline
artifacts, the agreement here would collapse.
"""

import numpy as np

from repro.core.evaluation import geomean, kendall_tau
from repro.report import ascii_table
from repro.uarch import default_space, run_sweep


def _build(profiles):
    configs = default_space().configs()
    sweep = run_sweep(profiles, configs, models=("roofline", "cycle"), use_cache=False)
    return configs, sweep.speedups("roofline"), sweep.speedups("cycle")


def test_a2_model_crosscheck(benchmark, profiles, save_artifact):
    configs, roofline, cycle = benchmark(_build, profiles)
    names = [c.name for c in configs]
    r_full = np.array([geomean(roofline[:, j]) for j in range(len(names))])
    c_full = np.array([geomean(cycle[:, j]) for j in range(len(names))])
    rows = [
        [name, float(r), float(c), f"{(c - r) / r * 100:+.1f}%"]
        for name, r, c in zip(names, r_full, c_full)
    ]
    tau_designs = kendall_tau(r_full, c_full)
    text = ascii_table(
        ["design point", "roofline speedup", "cycle-model speedup", "difference"],
        rows,
        title="A2: geomean design-space speedups under two independent models",
    )
    # Per-workload agreement on the most contended design point.
    j = names.index("fat")
    per_wl_tau = kendall_tau(roofline[:, j], cycle[:, j])
    text += (
        f"\ndesign-ranking agreement (Kendall tau over {len(names)} points): {tau_designs:.3f}"
        f"\nper-workload agreement on 'fat' design: tau = {per_wl_tau:.3f}"
    )
    save_artifact("a2_model_crosscheck.txt", text)

    assert tau_designs > 0.8
    # Both models agree on the winner and on the worst design.
    assert int(r_full.argmax()) == int(c_full.argmax())
    assert int(r_full.argmin()) == int(c_full.argmin())
    # Neither model produces absurd magnitudes relative to the other.
    ratio = c_full / r_full
    assert float(ratio.max()) < 2.0 and float(ratio.min()) > 0.5
