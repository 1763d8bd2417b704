"""Trace-layer properties: demand-driven collection and profile accounting.

The collector promises that enabling only a *subset* of analysis passes
changes what is collected, never what any individual pass observes — a
subset run's sections must be byte-equal to the same sections cut from a
full-basket run.  And every collected profile must satisfy the oracle's
internal accounting closure (fractions in [0, 1], thread/warp instruction
bounds, SIMD slot/lane sums), independent of which kernel produced it.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import List, Optional, Sequence
from unittest import mock

from repro.fuzz.generator import Case
from repro.fuzz.oracle import LaunchOutcome, check_profile_invariants, launch_case
from repro.trace.collector import CollectorConfig
from repro.trace.passes.mix import MixPass
from repro.trace.profile import PASS_NAMES
from repro.verify.registry import CaseProperty, register


def _header_sans_passes(outcome: LaunchOutcome) -> bytes:
    headers = json.loads(outcome.header_bytes)
    for h in headers:
        h.pop("passes", None)
    return json.dumps(headers, sort_keys=True).encode()


@register
class SubsetSections(CaseProperty):
    name = "trace.subset.sections"
    layer = "trace"
    invariant = (
        "a pass-subset collection's sections are byte-equal to the same "
        "sections of a full-basket collection"
    )
    plant_base = 8000
    #: Collector config of the subset runs (the full basket's is the default).
    config: Optional[CollectorConfig] = None

    def subsets(self, case: Case) -> List[Sequence[str]]:
        """One singleton and one pair, rotating through the basket with the
        case's index in its seed stream (the seed's low 20 bits, see
        :meth:`VerifyContext.case_seed`), so every pass gets exercised alone
        and in company."""
        i = case["seed"] & 0xFFFFF
        pairs = list(combinations(PASS_NAMES, 2))
        return [(PASS_NAMES[i % len(PASS_NAMES)],), pairs[i % len(pairs)]]

    def diffs(self, case: Case) -> List[str]:
        """Byte-compare each subset run's sections against the full basket's."""
        full = launch_case(case, "compiled")
        if full.status == "error":
            return []
        diffs: List[str] = []
        for subset in self.subsets(case):
            sub = launch_case(case, "compiled", passes=subset, config=self.config)
            if sub.status == "error":
                diffs.append(f"{subset}: subset launch faulted but full launch did not")
                continue
            if _header_sans_passes(sub) != _header_sans_passes(full):
                diffs.append(f"{subset}: header differs from full basket")
            for name in subset:
                if full.section_bytes[name] != sub.section_bytes[name]:
                    diffs.append(f"{subset}: section {name!r} not byte-equal to full run")
        return diffs

    def mutant(self):
        """Drift the subset collector's config.

        A subset collector constructed with ``line_bytes=256`` bins reuse
        distances on coarser lines than the full basket — exactly the kind
        of silent config divergence this property exists to catch.
        """
        return mock.patch.multiple(
            self,
            config=CollectorConfig(line_bytes=256),
            subsets=lambda case: [("reuse", "coalescing")],
        )


@register
class ProfileAccounting(CaseProperty):
    name = "trace.profile.accounting"
    layer = "trace"
    invariant = (
        "every collected profile satisfies the accounting closure: fractions "
        "in [0,1], warp<=thread<=32*warp per category, SIMD slot/lane sums"
    )
    budget = (6, 40)
    plant_base = 9000

    def diffs(self, case: Case) -> List[str]:
        outcome = launch_case(case, "compiled")
        if outcome.status == "error":
            return []
        return check_profile_invariants(outcome.profile)

    def mutant(self):
        """Count one SIMD lane too many per launch in the mix pass."""
        end_kernel = MixPass.end_kernel

        def miscounted(mix, profile):
            end_kernel(mix, profile)
            profile.simd_lane_sum += 1

        return mock.patch.object(MixPass, "end_kernel", miscounted)
