"""The shared driver of the generator-backed properties (``CaseProperty``)."""

from unittest import mock

from repro.fuzz.generator import ALIAS_SEED_BASE, case_stmt_count
from repro.verify import CaseProperty, VerifyContext, get_property
from repro.verify.data import case_has_kind


class NoAtomics(CaseProperty):
    """Toy property (never registered): flags every case with an atomic."""

    name = "toy.no_atomics"
    layer = "simt"
    invariant = "no generated case contains an atomic"
    budget = (20, 20)
    flagged = ("atomic",)

    def diffs(self, case):
        return ["contains an atomic"] if case_has_kind(case, self.flagged) else []

    def mutant(self):
        return mock.patch.object(self, "flagged", ("atomic",))


class AtomicsAllowed(NoAtomics):
    """Holds on every case until the plant starts flagging atomics."""

    flagged = ()


def test_check_fails_with_a_shrunk_witness():
    prop = NoAtomics()
    ctx = VerifyContext(seed=0, quick=True)
    first_failing = next(c for c in prop.check_cases(ctx) if prop.diffs(c))
    result = prop.check(ctx)
    assert not result.ok
    assert result.failures == ["contains an atomic"]
    witness = result.counterexample
    assert witness["seed"] == first_failing["seed"]
    assert witness["failures"] == ["contains an atomic"]
    assert witness["stmts"] <= case_stmt_count(first_failing)
    assert prop.generator_backed


def test_patch_plant_is_detected_once_lifted():
    prop = AtomicsAllowed()
    ctx = VerifyContext(seed=0, quick=True)
    assert prop.check(ctx).ok
    planted = prop.plant(ctx)
    assert planted.detected, planted.detail
    assert planted.shrunk_to <= planted.shrunk_from
    assert prop.flagged == ()  # the mutant is lifted


def test_plant_whose_failure_survives_lifting_is_not_detected():
    planted = NoAtomics().plant(VerifyContext(seed=0, quick=True))
    assert planted.detected is False
    assert "still fails" in planted.detail
    assert planted.shrunk_to <= planted.shrunk_from


def test_footprint_grouping_cases_follow_the_run_seed():
    # Seeds 0 and 8 differ only in bit 3 of the run seed, which lands on bit
    # 23 of every case seed.
    prop = get_property("simt.footprint_grouping")
    streams = [list(prop.check_cases(VerifyContext(seed=s, budget=4))) for s in (0, 8)]
    assert streams[0] != streams[1]
    for stream in streams:
        assert len(stream) == 4
        assert all(case["seed"] >= ALIAS_SEED_BASE for case in stream)


def test_batch_parity_stream_draws_both_bands_and_honours_the_budget():
    # Counts the generated cases only; the oracle never runs.
    prop = get_property("sim.batch.parity")
    for seed in (0, 20261017):
        seeds = [c["seed"] for c in prop.check_cases(VerifyContext(seed=seed, budget=8))]
        assert len(seeds) == 8
        assert any(s < ALIAS_SEED_BASE for s in seeds)
        assert any(s >= ALIAS_SEED_BASE for s in seeds)
    # Past the filter's ``scan`` cap: a filter-free property runs every case.
    ctx = VerifyContext(seed=0, budget=10_001)
    assert sum(1 for _ in prop.check_cases(ctx)) == 10_001


def test_batch_parity_tallies_sum_to_the_case_count():
    result = get_property("sim.batch.parity").check(VerifyContext(seed=0, budget=4))
    assert result.ok, result.failures
    t = result.tallies
    assert result.cases == 4
    assert t["base-grammar"] + t["alias-grammar"] == 4
    assert t["lane-disjoint"] + t["communicating"] == 4
    assert 0 <= t["agreed-fault"] <= 4
    assert 0 < t["reference-leg"] <= t["lane-disjoint"]
