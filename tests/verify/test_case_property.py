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
