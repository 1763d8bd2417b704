"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_prints_all_workloads(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for abbrev in ("VA", "MUM", "SS", "KM", "TPACF"):
        assert abbrev in out


def test_characterize_subset(capsys):
    assert main(["characterize", "VA", "--sample-blocks", "8"]) == 0
    out = capsys.readouterr().out
    assert "instruction mix" in out
    assert "VA" in out


def test_characterize_csv_export(tmp_path, capsys):
    path = tmp_path / "features.csv"
    assert main(["characterize", "VA", "HG", "--sample-blocks", "8", "--csv", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("workload,suite,")
    assert len(lines) == 3


def test_analyze_runs_on_cached_suite(capsys, suite_profiles):
    # suite_profiles fixture has warmed the on-disk cache for all workloads.
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "BIC-optimal K" in out
    assert "representative" in out


def test_subspace_known(capsys, suite_profiles):
    assert main(["subspace", "branch divergence"]) == 0
    out = capsys.readouterr().out
    assert "variation" in out


def test_subspace_unknown_errors(capsys):
    assert main(["subspace", "nope"]) == 2
    assert "unknown subspace" in capsys.readouterr().err


def test_stress_all_blocks(capsys, suite_profiles):
    assert main(["stress", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "branch divergence unit" in out
    assert "texture cache" in out


def test_stress_unknown_block(capsys, suite_profiles):
    assert main(["stress", "--block", "warp turbo"]) == 2


def test_evaluate(capsys, suite_profiles):
    assert main(["evaluate", "--subset-k", "6"]) == 0
    out = capsys.readouterr().out
    assert "mean |error|" in out
    assert "same winner" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_report_to_stdout(capsys, suite_profiles):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "# GPGPU workload characterization report" in out
    assert "## Clusters" in out


def test_report_to_file(tmp_path, suite_profiles):
    path = tmp_path / "report.md"
    assert main(["report", "-o", str(path)]) == 0
    text = path.read_text()
    assert "Functional-block stress" in text
    assert "| suite |" in text


def test_disasm_stats(capsys):
    assert main(["disasm", "RD"]) == 0
    out = capsys.readouterr().out
    assert "reduce0_interleaved_divergent" in out
    assert "reg pressure" in out


def test_disasm_full(capsys):
    assert main(["disasm", "VA", "--full"]) == 0
    out = capsys.readouterr().out
    assert ".kernel vectoradd" in out
    assert "ld.global" in out


def test_disasm_unknown(capsys):
    assert main(["disasm", "NOPE"]) == 2


def test_characterize_with_jobs_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["characterize", "VA", "--sample-blocks", "8", "--jobs", "2"]) == 0
    assert "VA" in capsys.readouterr().out


def test_characterize_verbose_prints_progress_once_per_workload(
    capsys, tmp_path, monkeypatch
):
    from repro.telemetry import get_telemetry

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    path = tmp_path / "features.csv"
    args = ["characterize", "VA", "VA", "--sample-blocks", "8", "-v", "--csv", str(path)]
    assert main(args) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "characterizing 1 workloads (jobs=1, sample_blocks=8)"
    assert err[2].startswith("  VA     ok      [1/1] ")
    assert err[-1].startswith("done: 1 ok, 0 failed, 0 cache hits in ")
    assert len(path.read_text().strip().splitlines()) == 2  # header + one VA row
    # -v is a progress sink only; it does not switch telemetry on.
    assert not get_telemetry().enabled and get_telemetry().spans == []


def test_profile_cache_inspection_and_purge(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["profile-cache"]) == 0
    assert "empty" in capsys.readouterr().out
    assert main(["characterize", "VA", "--sample-blocks", "8"]) == 0
    capsys.readouterr()
    assert main(["profile-cache"]) == 0
    out = capsys.readouterr().out
    assert "VA" in out and "fresh" in out
    # --purge only touches stale/orphan shards: the fresh one survives.
    assert main(["profile-cache", "--purge"]) == 0
    assert "removed 0 stale/orphan shard" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*.profile.json"))) == 1
    assert main(["profile-cache", "--clear"]) == 0
    assert "removed 1 shard" in capsys.readouterr().out
    assert list(tmp_path.glob("*.profile.json")) == []


def test_profile_cache_clear_removes_timing_shards(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["dse", "sweep", "VA", "HG", "--model", "cycle"]) == 0
    capsys.readouterr()
    assert len(list(tmp_path.glob("*.profile.json"))) == 2
    assert len(list(tmp_path.glob("dse-*.timing.json"))) == 2
    assert main(["profile-cache", "--clear"]) == 0
    assert "removed 4 shard(s) (2 profile, 2 timing)" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--purge", "--clear"], ["--purge", "--stats"],
                                   ["--clear", "--stats"]])
def test_profile_cache_actions_conflict(capsys, tmp_path, monkeypatch, flags):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # A stale shard that either --purge or --clear would delete.
    shard = tmp_path / "VA-0.profile.json"
    shard.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["profile-cache", *flags])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert shard.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_characterize_sample_blocks_below_one_is_usage_error(capsys, value):
    # Rejected by the config before any workload runs, so it is neither
    # reported as a workload crash nor retried.
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "VA", "--no-cache", "--sample-blocks", value, "-v"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "sample_blocks must be >= 1" in err
    assert "failed" not in err.lower() and "attempt" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--budget", "0"], "budget must be >= 1"),
        (["verify", "--budget", "-5"], "budget must be >= 1"),
        (["verify", "--seed", "-1"], "seed must be >= 0"),
        (["evaluate", "--subset-k", "0"], "subset_k must be in [1, "),
        (["evaluate", "--subset-k", "100"], "subset_k must be in [1, "),
        (["analyze", "VA"], "at least two workloads"),
        (["stress", "--top", "0"], "--top must be at least 1, got 0"),
        (["stress", "--top", "-2", "--json"], "--top must be at least 1, got -2"),
        (["telemetry", "trace.json", "--top", "-2"], "--top must be at least 1, got -2"),
    ],
)
def test_misuse_is_a_one_line_usage_error(capsys, suite_profiles, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_list_json_schema(capsys):
    import json

    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.workloads/v1"
    by_abbrev = {w["abbrev"]: w for w in doc["workloads"]}
    assert set(by_abbrev["VA"]) == {"suite", "abbrev", "name", "description"}
    assert by_abbrev["VA"]["suite"] == "CUDA SDK"


def test_characterize_json_schema(capsys):
    import json

    assert main(["characterize", "VA", "--sample-blocks", "8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.feature-matrix/v1"
    (entry,) = doc["workloads"]
    assert entry["workload"] == "VA"
    assert set(entry["values"]) == set(doc["metrics"])
    assert all(isinstance(v, float) for v in entry["values"].values())


def test_characterize_json_csv_conflict(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "VA", "--json", "--csv", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_characterize_unknown_metric_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "VA", "--metrics", "bogus.metric"])
    assert exc.value.code == 2
    assert "unknown metric" in capsys.readouterr().err


def test_characterize_unknown_workload_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "NOPE"])
    assert exc.value.code == 2


def test_stress_json_schema(capsys, suite_profiles):
    import json

    assert main(["stress", "--json", "--top", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.stress/v1"
    assert doc["top"] == 3
    for block, ranking in doc["blocks"].items():
        assert len(ranking) == 3
        assert all(set(r) == {"workload", "score"} for r in ranking)


def test_evaluate_json_schema(capsys, suite_profiles):
    import json

    assert main(["evaluate", "--subset-k", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.evaluate/v1"
    assert doc["subset_k"] == 6 and doc["model"] == "roofline"
    assert len(doc["representatives"]) == 6
    assert all(set(r) == {"workload", "weight"} for r in doc["representatives"])
    names = [d["name"] for d in doc["designs"]]
    assert "base" in names and "fat" in names
    for d in doc["designs"]:
        assert set(d) == {"name", "full_speedup", "subset_speedup", "relative_error"}
    assert isinstance(doc["kendall_tau"], float)
    assert isinstance(doc["same_winner"], bool)


def test_evaluate_unknown_model_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", "oracle"])
    assert exc.value.code == 2
    assert "unknown timing model" in capsys.readouterr().err


def test_dse_sweep_json_schema(capsys, suite_profiles):
    import json

    assert main(["dse", "sweep", "VA", "BS", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.dse-sweep/v1"
    assert doc["space"] == "default" and doc["model"] == "roofline"
    assert doc["workloads"] == ["VA", "BS"]
    assert len(doc["designs"]) == 16
    for d in doc["designs"]:
        assert set(d) == {"name", "cost", "speedup", "pareto"}
    assert any(d["pareto"] for d in doc["designs"])
    assert {rec["field"] for rec in doc["sensitivity"]} >= {"num_sms", "dram_bandwidth"}
    assert set(doc["cache"]) == {"hits", "misses"}


def test_dse_sweep_quick_conflicts_with_workloads(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dse", "sweep", "VA", "--quick"])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_dse_sweep_text_output(capsys, suite_profiles):
    assert main(["dse", "sweep", "VA", "BS", "--model", "cycle"]) == 0
    out = capsys.readouterr().out
    assert "cycle model" in out
    assert "per-axis sensitivity" in out
    assert "cache:" in out


def test_dse_sweep_custom_design_space(capsys, tmp_path):
    import json

    spec = {
        "schema": "repro.design-space/v1",
        "name": "mine",
        "sweep": "one_hot",
        "baseline": {"name": "base"},
        "axes": [
            {"field": "num_sms", "points": [{"name": "sm32", "value": 32}]},
        ],
        "points": [],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(spec))
    assert main(["dse", "sweep", "VA", "--design-space", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["space"] == "mine"
    assert [d["name"] for d in doc["designs"]] == ["base", "sm32"]


def test_dse_sweep_bad_design_space_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nope/v9"}')
    with pytest.raises(SystemExit) as exc:
        main(["dse", "sweep", "VA", "--design-space", str(path)])
    assert exc.value.code == 2
    assert "schema" in capsys.readouterr().err


def test_dse_compare_json_schema(capsys, suite_profiles):
    import json

    assert main(["dse", "compare", "VA", "BS", "NN", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.dse-compare/v1"
    assert doc["models"] == ["roofline", "cycle"]
    for d in doc["designs"]:
        assert set(d) == {"name", "roofline", "cycle"}
    (agreement,) = doc["rank_agreement"]
    assert agreement["models"] == ["roofline", "cycle"]
    assert -1.0 <= agreement["kendall_tau"] <= 1.0


def test_dse_compare_needs_two_models(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dse", "compare", "VA", "--models", "roofline"])
    assert exc.value.code == 2
    assert "at least two" in capsys.readouterr().err


def test_dse_fidelity_json_schema(capsys, suite_profiles):
    import json

    assert main(["dse", "fidelity", "--subset-k", "4,6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.dse-fidelity/v1"
    assert doc["model"] == "roofline"
    assert [p["subset_k"] for p in doc["points"]] == [4, 6]
    for p in doc["points"]:
        assert set(p) == {
            "subset_k",
            "representatives",
            "mean_error",
            "max_error",
            "kendall_tau",
            "same_winner",
        }
        assert len(p["representatives"]) == p["subset_k"]


def test_dse_fidelity_bad_subset_k_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dse", "fidelity", "--subset-k", "2,two"])
    assert exc.value.code == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_dse_fidelity_subset_k_exceeding_workloads(capsys, suite_profiles):
    with pytest.raises(SystemExit) as exc:
        main(["dse", "fidelity", "VA", "BS", "--subset-k", "8"])
    assert exc.value.code == 2
    assert "exceeds" in capsys.readouterr().err
