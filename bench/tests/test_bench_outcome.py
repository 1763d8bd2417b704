"""Output checks decide the result and the exit code."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import specs
from repro.workloads import registry
from repro.workloads.runner import run_workload

TINY = (("VA", {"n": 4096}),)


@pytest.fixture
def tiny(monkeypatch):
    """A one-workload basket registered as workload ``tiny``."""
    monkeypatch.setitem(specs.SPECS, "tiny", specs.Basket("tiny", TINY, specs.SAMPLE_BLOCKS))
    monkeypatch.setattr(run, "time_setups", lambda name, seed, outcome: [0.25])
    bench = run.load_benchmark()
    bench["workloads"].append({"name": "tiny", "why": "test"})
    monkeypatch.setattr(run, "load_benchmark", lambda: bench)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


def _run_tiny(capsys, seed):
    code = run.main(["--workload", "tiny", "--seed", str(seed), "--seconds", "0.01"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_planted_digest_mismatch_fails_the_run(tiny, monkeypatch, capsys):
    monkeypatch.setattr(specs, "load_expected", lambda: {"tiny": {"VA": "0" * 64}})
    code, result = _run_tiny(capsys, specs.EXPECTED_SEED)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0 and result["attempted"] >= result["failed"]


def test_matching_digest_passes(tiny, monkeypatch, capsys):
    profile = run_workload(registry.get("VA")(**TINY[0][1]), verify=False,
                           sample_blocks=specs.SAMPLE_BLOCKS, seed=specs.EXPECTED_SEED)
    monkeypatch.setattr(specs, "load_expected",
                        lambda: {"tiny": {"VA": specs.profile_digest(profile)}})
    code, result = _run_tiny(capsys, specs.EXPECTED_SEED)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_other_seeds_check_agreement_with_the_verified_warmup(tiny, capsys):
    code, result = _run_tiny(capsys, 7)
    assert code == 0 and result["correct"]


def test_exits_2_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
