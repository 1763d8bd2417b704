"""compare.py verdicts on synthetic runs."""

import copy

import pytest

import compare

BENCH = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def summary(samples):
    samples = sorted(samples)
    return {"value": samples[len(samples) // 2], "q1": samples[0], "q3": samples[-1],
            "samples": samples}


def doc(wall, rate, shares=None, deterministic=None):
    return {"workloads": {"w": {
        "correct": True,
        "end_to_end": {"wall_s": summary(wall), "rate": summary(rate)},
        "per_layer": shares or {},
        "deterministic": deterministic or {"sim.warp_instrs": 5},
    }}}


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 10.2], [10.3, 10.4, 10.5], "lower", "ok"),
    ([10.0, 10.1, 10.2], [11.5, 11.6, 11.7], "lower", "worse"),
    ([10.0, 10.1, 10.2], [8.5, 8.6, 8.7], "lower", "better"),
    ([10.0, 10.1, 10.2], [8.5, 8.6, 8.7], "higher", "worse"),
    ([8.0, 10.0, 12.0], [9.0, 10.5, 13.0], "lower", "unresolved"),
    # Wide spread, but every B sample beats every A sample.
    ([10.0, 11.0, 12.5], [7.0, 8.0, 9.5], "lower", "better"),
])
def test_verdicts(a, b, better, expected):
    assert compare.verdict(summary(a), summary(b), better, 0.1) == expected


def test_identical_runs_report_no_problem():
    a = doc([1.0, 1.01, 1.02], [5.0, 5.0, 5.1], {"x_share": 0.3})
    lines = compare.compare(a, copy.deepcopy(a), BENCH)
    assert not [line for line in lines if line.startswith("!")]
    assert all(line.endswith("ok") for line in lines[1:])


def test_flags_layer_growth_hidden_in_a_flat_total():
    a = doc([1.0, 1.01, 1.02], [5.0, 5.0, 5.1], {"x_share": 0.30, "y_share": 0.5})
    b = doc([1.0, 1.01, 1.02], [5.0, 5.0, 5.1], {"x_share": 0.36, "y_share": 0.44})
    problems = [line for line in compare.compare(a, b, BENCH) if line.startswith("!")]
    assert len(problems) == 1 and "x_share" in problems[0]


def test_flags_deterministic_mismatch_and_failed_checks():
    a = doc([1.0, 1.01, 1.02], [5.0, 5.0, 5.1])
    b = doc([1.0, 1.01, 1.02], [5.0, 5.0, 5.1], deterministic={"sim.warp_instrs": 6})
    b["workloads"]["w"]["correct"] = False
    problems = [line for line in compare.compare(a, b, BENCH) if line.startswith("!")]
    assert any("deterministic" in p for p in problems)
    assert any("checks failed in B" in p for p in problems)
