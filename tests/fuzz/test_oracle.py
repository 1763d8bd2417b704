"""Oracle behaviour: clean agreement, invariants, and the planted mutation."""

import pytest

from repro.fuzz import case_stmt_count, generate_case, run_case, shrink_case
from repro.fuzz.oracle import SAMPLE_BLOCKS, batch_plan, check_profile_invariants, launch_case
from repro.simt import compiled
from repro.simt.events import CATEGORY_CODE
from repro.simt.ir import Barrier


def test_small_campaign_window_is_clean():
    # The first base-grammar seeds: every case passes the full tri-engine
    # oracle.
    for i in range(20):
        report = run_case(generate_case(i))
        assert report.ok, (i, report.failures)
        assert report.engines_run[0] == "interpreted"
        if report.tag == "lane-disjoint" and report.case["block"][1] == 1:
            assert "reference" in report.engines_run


def test_batch_plan_covers_the_edges():
    assert batch_plan(6) == [None, 1, 3, 7]
    # Dedup when the grid collapses values together.
    assert batch_plan(2) == [None, 1, 3]


def test_profile_invariants_reject_corrupted_accounting():
    case = generate_case(0)
    outcome = launch_case(case, "interpreted", sample_blocks=SAMPLE_BLOCKS)
    assert outcome.status == "ok"
    assert check_profile_invariants(outcome.profile) == []

    kp = outcome.profile.kernels[0]
    kp.simd_lane_sum += 1
    failures = check_profile_invariants(outcome.profile)
    assert any("simd_lane_sum" in f for f in failures)


def _barrier_compiler_without_recheck(ck, stmt, observe):
    # The planted bug: the batched engine stops re-checking that every
    # non-retired lane reached __syncthreads (keeps profile accounting).
    if observe:

        def run(st, act):
            st.recorder.instr(stmt.sid, CATEGORY_CODE[compiled.OpCategory.BARRIER], act)

        return run

    def run(st, act):
        pass

    return run


def test_planted_barrier_mutation_is_caught_and_shrinks_small(monkeypatch):
    monkeypatch.setitem(compiled._COMPILERS, Barrier, _barrier_compiler_without_recheck)

    failing = None
    for i in range(60):
        case = generate_case(i)
        if not run_case(case).ok:
            failing = case
            break
    assert failing is not None, "mutation survived 60 fuzz cases"

    shrunk = shrink_case(failing, lambda c: not run_case(c).ok)
    assert case_stmt_count(shrunk) <= 10

    report = run_case(shrunk)
    assert not report.ok
    assert any("status" in f and "ExecutionError" in f for f in report.failures)

    # Undo the mutation: the shrunk case must pass on the healthy engine.
    monkeypatch.setitem(compiled._COMPILERS, Barrier, compiled._compile_barrier)
    assert run_case(shrunk).ok


def test_communicating_cases_skip_the_reference_leg():
    for i in range(80):
        report = run_case(generate_case((5 << 20) + i))
        if report.tag == "communicating":
            assert "reference" not in report.engines_run
            return
    pytest.fail("no communicating case in 80 seeds")
