"""Uarch-layer properties: model monotonicity and subset ranking fidelity.

The roofline-style timing model must respect resource dominance — giving a
design strictly more of any single resource (SMs, issue slots, bandwidth,
cache, resident warps, or less memory latency) can never *increase* its
modeled cycles for any profile.  And the whole point of the methodology is
that cluster representatives reproduce full-suite design rankings, so that
claim is pinned as an executable threshold (Kendall tau and mean relative
error over the default design space).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple
from unittest import mock

from repro.fuzz.generator import Case
from repro.fuzz.oracle import launch_case
from repro.uarch import BASELINE, get_model
from repro.verify.registry import (
    CaseProperty,
    PlantResult,
    Property,
    PropertyResult,
    VerifyContext,
    register,
)

#: Single-resource upgrades, each of which must be cycle-non-increasing.
_UPGRADES: Tuple[Tuple[str, Dict], ...] = (
    ("num_sms x2", {"num_sms": 32}),
    ("issue_width x2", {"issue_width": 2}),
    ("dram_bandwidth x2", {"dram_bandwidth": 128.0}),
    ("l2_lines x4", {"l2_lines": 8192}),
    ("max_warps x2", {"max_warps_per_sm": 64}),
    ("mem_latency /2", {"mem_latency": 200}),
)

_REL_SLACK = 1e-12


@register
class ModelMonotonic(CaseProperty):
    name = "uarch.monotonic"
    layer = "uarch"
    invariant = (
        "adding any single resource (SMs, issue width, bandwidth, L2, "
        "warps; or halving latency) never increases modeled cycles"
    )
    budget = (6, 40)
    plant_base = 10_000
    upgrades = _UPGRADES

    def diffs(self, case: Case) -> List[str]:
        outcome = launch_case(case, "compiled")
        if outcome.status == "error":
            return []
        roofline = get_model("roofline")
        base = roofline.time_workload(outcome.profile, BASELINE)
        bad: List[str] = []
        for label, changes in self.upgrades:
            upgraded = roofline.time_workload(outcome.profile, BASELINE.derive(label, **changes))
            if upgraded > base * (1.0 + _REL_SLACK):
                bad.append(
                    f"{label}: {upgraded:.1f} cycles > baseline {base:.1f} "
                    f"(+{(upgraded / base - 1) * 100:.2f}%)"
                )
        return bad

    def mutant(self):
        """Sell a bandwidth *downgrade* as an upgrade; the check must balk."""
        trap = (("dram_bandwidth 'upgrade'", {"dram_bandwidth": 1.0}),)
        return mock.patch.object(self, "upgrades", trap)


#: Quick-mode basket: 12 workloads spanning the suite's behavioural corners
#: (streaming, dense compute, transpose, reductions, histogram, divergent
#: graph traversal, iterative stencils, sparse) — small enough for CI,
#: diverse enough that a 4-representative subset meaningfully ranks designs.
RANKING_BASKET: Tuple[str, ...] = (
    "VA", "MM", "TR", "RD", "HG", "BS", "BFS", "KM", "HS", "SRAD", "SPMV", "STEN",
)
_QUICK_TAU_MIN = 0.55
_QUICK_ERR_MAX = 0.15
_DEEP_TAU_MIN = 0.70
_DEEP_ERR_MAX = 0.10


def _ranking_failures(subset, tau_min: float, err_max: float) -> List[str]:
    bad: List[str] = []
    if subset.kendall_tau < tau_min:
        bad.append(
            f"kendall tau {subset.kendall_tau:.3f} below pinned floor {tau_min}"
        )
    if subset.mean_error > err_max:
        bad.append(
            f"mean relative error {subset.mean_error:.3f} above cap {err_max}"
        )
    return bad


@register
class RankingFidelity(Property):
    name = "uarch.ranking"
    layer = "uarch"
    invariant = (
        "cluster-representative speedup rankings match the full suite over "
        "the default design space within pinned tau/error tolerances"
    )

    def _evaluate(self, ctx: VerifyContext):
        from repro import api

        basket = RANKING_BASKET if ctx.quick else None
        subset_k = 4 if ctx.quick else 8
        profiles = ctx.suite_profiles(basket)
        analysis = api.analyze(profiles)
        return api.evaluate(profiles, subset_k=subset_k, analysis=analysis, seed=ctx.seed)

    def check(self, ctx: VerifyContext) -> PropertyResult:
        tau_min = _QUICK_TAU_MIN if ctx.quick else _DEEP_TAU_MIN
        err_max = _QUICK_ERR_MAX if ctx.quick else _DEEP_ERR_MAX
        ev = self._evaluate(ctx)
        failures = _ranking_failures(ev.subset, tau_min, err_max)
        counterexample: Optional[Dict] = None
        if failures:
            counterexample = {
                "representatives": ev.representatives,
                "kendall_tau": ev.kendall_tau,
                "mean_error": ev.mean_error,
                "same_winner": ev.same_winner,
            }
        return self._result(1, failures, counterexample)

    def plant(self, ctx: VerifyContext) -> PlantResult:
        """Reverse the subset's design ranking; the thresholds must trip."""
        from repro.core.evaluation import kendall_tau

        start = time.perf_counter()
        ev = self._evaluate(ctx)
        full = ev.subset.full_speedups
        reversed_est = full[::-1].copy()
        doctored = dataclasses.replace(
            ev.subset,
            subset_speedups=reversed_est,
            relative_errors=(reversed_est - full) / full,
            kendall_tau=kendall_tau(full, reversed_est),
        )
        tau_min = _QUICK_TAU_MIN if ctx.quick else _DEEP_TAU_MIN
        err_max = _QUICK_ERR_MAX if ctx.quick else _DEEP_ERR_MAX
        failures = _ranking_failures(doctored, tau_min, err_max)
        return PlantResult(
            name=self.name,
            detected=bool(failures),
            seconds=time.perf_counter() - start,
            detail=(
                failures[0]
                if failures
                else "reversed ranking passed the thresholds — they are vacuous"
            ),
        )


#: Measured roofline-vs-cycle tau is ~0.875 on both the quick basket and the
#: full suite; the floors leave headroom for model refinements while still
#: catching a broken model (an inverted ranking lands at roughly -0.9).
_AGREE_QUICK_TAU_MIN = 0.70
_AGREE_DEEP_TAU_MIN = 0.75


def _model_rankings(ctx: VerifyContext) -> Tuple[List[float], List[float]]:
    """Per-design geomean speedups under the roofline and cycle models."""
    from repro.core.evaluation import geomean
    from repro.uarch import run_sweep

    basket = RANKING_BASKET if ctx.quick else None
    profiles = ctx.suite_profiles(basket)
    sweep = run_sweep(profiles, models=("roofline", "cycle"))
    n = len(sweep.design_names)
    roofline = [geomean(sweep.speedups("roofline")[:, j]) for j in range(n)]
    cycle = [geomean(sweep.speedups("cycle")[:, j]) for j in range(n)]
    return roofline, cycle


@register
class ModelAgreement(Property):
    name = "uarch.model_agreement"
    layer = "uarch"
    invariant = (
        "the roofline and cycle-approximate models rank the default design "
        "space consistently (Kendall tau over per-design geomean speedups "
        "above a pinned floor)"
    )

    def check(self, ctx: VerifyContext) -> PropertyResult:
        from repro.core.evaluation import kendall_tau

        tau_min = _AGREE_QUICK_TAU_MIN if ctx.quick else _AGREE_DEEP_TAU_MIN
        roofline, cycle = _model_rankings(ctx)
        tau = kendall_tau(roofline, cycle)
        failures: List[str] = []
        counterexample: Optional[Dict] = None
        if tau < tau_min:
            failures.append(
                f"roofline-vs-cycle kendall tau {tau:.3f} below pinned floor {tau_min}"
            )
            counterexample = {
                "kendall_tau": tau,
                "roofline": roofline,
                "cycle": cycle,
            }
        return self._result(1, failures, counterexample)

    def plant(self, ctx: VerifyContext) -> PlantResult:
        """Invert one model's speedups; the agreement floor must trip.

        ``v -> 1/v`` is strictly decreasing, so it reverses the cycle
        model's design ranking exactly (tau flips sign) — the kind of
        output a sign error in a model refactor would produce.
        """
        from repro.core.evaluation import kendall_tau

        start = time.perf_counter()
        tau_min = _AGREE_QUICK_TAU_MIN if ctx.quick else _AGREE_DEEP_TAU_MIN
        roofline, cycle = _model_rankings(ctx)
        broken_cycle = [1.0 / v for v in cycle]
        tau = kendall_tau(roofline, broken_cycle)
        detected = tau < tau_min
        return PlantResult(
            name=self.name,
            detected=detected,
            seconds=time.perf_counter() - start,
            detail=(
                f"inverted cycle ranking: tau {tau:.3f} vs floor {tau_min}"
                if detected
                else f"inverted cycle ranking passed the floor (tau {tau:.3f}) — it is vacuous"
            ),
        )
