"""BENCHMARK.json is well formed and agrees with the benchmark's code."""

import json
import os
import re

import layers
import specs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_top_level_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 1 <= len(BENCH["paths"]) <= 16
    for path in BENCH["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path.split("/")
        assert os.path.isdir(os.path.join(ROOT, path))
    assert 1 <= len(BENCH["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in BENCH["command"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_names_units_and_counts():
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [w["name"] for w in BENCH["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in BENCH[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_workloads_match_specs():
    assert [w["name"] for w in BENCH["workloads"]] == list(specs.SPECS)


def test_layer_metrics_match_table_and_name_what_they_move():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
    assert declared == {name: row[:2] for name, row in layers.PER_LAYER.items()}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    for name, (_unit, _better, moves, workload) in layers.PER_LAYER.items():
        assert moves in e2e, name
        assert workload in workloads, name
