"""Parallel characterization runtime: parity, sharded cache, fault isolation."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.api import characterize
from repro.core import metrics
from repro.core.runtime import (
    CharacterizationConfig,
    CharacterizationError,
    ProfileCache,
    resolve_jobs,
    run_characterization,
)
from repro.workloads import registry
from repro.workloads.base import Workload

#: Small, behaviourally spread subset so the parity tests stay fast.
PARITY_SET = ["VA", "SS", "HG", "RD"]


def workloads(tele, name, **attrs):
    """Workloads of the recorded ``name`` spans whose attributes match."""
    return [
        sp.attrs["workload"]
        for sp in tele.spans_by_name(name)
        if all(sp.attrs.get(key) == value for key, value in attrs.items())
    ]


def succeeded(tele):
    """Workloads whose parent-side ``attempt`` span records a result."""
    return [
        sp.attrs["workload"]
        for sp in tele.spans_by_name("attempt")
        if "warp_instrs" in sp.attrs
    ]


class CrashingWorkload(Workload):
    abbrev = "XCRASH"
    name = "crash probe"
    suite = "CUDA SDK"
    description = "always raises inside run()"

    def run(self, ctx):
        raise RuntimeError("deliberate crash")

    def check(self, ctx):
        pass


class DyingWorkload(Workload):
    abbrev = "XDIE"
    name = "hard-death probe"
    suite = "CUDA SDK"
    description = "kills its worker process outright"

    def run(self, ctx):
        os._exit(17)

    def check(self, ctx):
        pass


class HangingWorkload(Workload):
    abbrev = "XHANG"
    name = "hang probe"
    suite = "CUDA SDK"
    description = "sleeps far past any reasonable budget"

    def run(self, ctx):
        import time

        time.sleep(120)

    def check(self, ctx):
        pass


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def register(monkeypatch):
    def _register(cls):
        registry._ensure_loaded()
        monkeypatch.setitem(registry._REGISTRY, cls.abbrev, cls)

    return _register


# ---------------------------------------------------------------------------
# Parallel == serial


def test_parallel_results_identical_to_serial(cache_dir):
    serial = run_characterization(
        CharacterizationConfig(abbrevs=PARITY_SET, sample_blocks=8, use_cache=False)
    )
    parallel = run_characterization(
        CharacterizationConfig(
            abbrevs=PARITY_SET, sample_blocks=8, use_cache=False, jobs=2
        )
    )
    assert [p.workload for p in serial.profiles] == PARITY_SET
    assert [p.workload for p in parallel.profiles] == PARITY_SET
    for ps, pp in zip(serial.profiles, parallel.profiles):
        assert ps.total_thread_instrs == pp.total_thread_instrs
        assert ps.total_warp_instrs == pp.total_warp_instrs
        assert metrics.extract_vector(ps) == metrics.extract_vector(pp)


def test_parallel_populates_same_cache_shards(cache_dir, global_tele):
    run_characterization(
        CharacterizationConfig(abbrevs=PARITY_SET[:2], sample_blocks=8, jobs=2)
    )
    global_tele.reset()
    serial = run_characterization(
        CharacterizationConfig(abbrevs=PARITY_SET[:2], sample_blocks=8)
    )
    assert serial.cache_hits == 2
    assert workloads(global_tele, "cache_hit") == PARITY_SET[:2]


# ---------------------------------------------------------------------------
# Sharded cache behaviour


def test_cache_hit_miss_events_and_shard_files(cache_dir, global_tele):
    config = CharacterizationConfig(abbrevs=["VA"], sample_blocks=8)
    first = run_characterization(config)
    assert first.cache_misses == 1 and first.cache_hits == 0
    assert workloads(global_tele, "attempt", cache="miss", attempt=1) == ["VA"]
    assert succeeded(global_tele) == ["VA"]
    (attempt,) = global_tele.spans_by_name("attempt")
    assert attempt.attrs["warp_instrs"] > 0 and attempt.duration > 0
    assert attempt.attrs["kernels"] == len(first.profiles[0].kernels)
    assert global_tele.spans_by_name("cache_hit") == []

    global_tele.reset()
    second = run_characterization(config)
    assert second.cache_hits == 1 and second.cache_misses == 0
    assert global_tele.spans_by_name("attempt") == []
    assert workloads(global_tele, "cache_hit") == ["VA"]
    (hit,) = global_tele.spans_by_name("cache_hit")
    (suite,) = global_tele.spans_by_name("suite")
    assert hit.parent_id == suite.span_id
    assert hit.attrs["warp_instrs"] == attempt.attrs["warp_instrs"]
    assert hit.attrs["saved_seconds"] > 0
    assert suite.attrs["cache_hits"] == 1 and suite.attrs["completed"] == 1
    assert metrics.extract_vector(first.profiles[0]) == metrics.extract_vector(
        second.profiles[0]
    )
    assert len(list(cache_dir.glob("*.profile.json"))) == 1
    # Atomic writes: no temp files survive.
    assert not [p for p in cache_dir.iterdir() if ".tmp" in p.name]


def test_progress_lines_on_cold_and_warm_runs(cache_dir):
    config = CharacterizationConfig(abbrevs=["VA", "HG"], sample_blocks=8)
    cold = []
    run_characterization(config, cold.append)
    assert cold[0] == "characterizing 2 workloads (jobs=1, sample_blocks=8)"
    assert cold[1] == "  VA     started"
    ok = r"  VA     ok      \[1/2\] \d+\.\d\ds, [\d,]+ warp instrs, \d+ kernels"
    assert re.fullmatch(ok, cold[2])
    assert cold[3] == "  HG     started"
    assert re.fullmatch(r"  HG     ok      \[2/2\] .*", cold[4])
    assert re.fullmatch(r"done: 2 ok, 0 failed, 0 cache hits in \d+\.\ds", cold[5])
    assert len(cold) == 6

    warm = []
    run_characterization(config, warm.append)
    cached = r"  {}     cached  \[{}/2\] \(saved \d+\.\ds, [\d,]+ warp instrs\)"
    assert re.fullmatch(cached.format("VA", 1), warm[1])
    assert re.fullmatch(cached.format("HG", 2), warm[2])
    assert re.fullmatch(r"done: 2 ok, 0 failed, 2 cache hits in \d+\.\ds", warm[3])
    assert len(warm) == 4


def test_duplicate_requests_run_and_report_once(cache_dir, global_tele):
    lines = []
    result = run_characterization(
        CharacterizationConfig(abbrevs=["VA", "HG", "VA"], sample_blocks=8), lines.append
    )
    assert [p.workload for p in result.profiles] == ["VA", "HG"]
    assert result.cache_misses == 2
    (suite,) = global_tele.spans_by_name("suite")
    assert suite.attrs["workloads"] == 2 and suite.attrs["completed"] == 2
    assert lines[0].startswith("characterizing 2 workloads ")
    assert lines[-1].startswith("done: 2 ok, ")


def _load_temp_workload(path, marker):
    """(Re)write a trivial workload module at ``path`` and import it."""
    path.write_text(
        "from repro.workloads.base import Workload\n"
        "\n"
        "class TempWorkload(Workload):\n"
        '    abbrev = "XTMP"\n'
        '    name = "temp"\n'
        '    suite = "CUDA SDK"\n'
        '    description = "cache invalidation probe"\n'
        "\n"
        f"    def run(self, ctx):  # {marker}\n"
        "        pass\n"
        "\n"
        "    def check(self, ctx):\n"
        "        pass\n"
    )
    spec = importlib.util.spec_from_file_location("repro_test_tempwl", str(path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_editing_workload_module_invalidates_only_its_shard(
    cache_dir, tmp_path, register, monkeypatch, global_tele
):
    module_path = tmp_path / "tempwl.py"
    module = _load_temp_workload(module_path, "v1")
    # inspect.getfile() resolves the digest source through sys.modules.
    monkeypatch.setitem(sys.modules, "repro_test_tempwl", module)
    register(module.TempWorkload)
    config = CharacterizationConfig(abbrevs=["XTMP", "VA"], sample_blocks=8)

    first = run_characterization(config)
    assert first.cache_misses == 2
    assert len(list(cache_dir.glob("*.profile.json"))) == 2

    global_tele.reset()
    run_characterization(config)
    assert sorted(workloads(global_tele, "cache_hit")) == ["VA", "XTMP"]

    # Edit the workload module: only the XTMP shard may go stale.
    module = _load_temp_workload(module_path, "v2-edited")
    sys.modules["repro_test_tempwl"] = module  # monkeypatch removes it at teardown
    register(module.TempWorkload)
    global_tele.reset()
    result = run_characterization(config)
    assert workloads(global_tele, "cache_hit") == ["VA"]
    assert workloads(global_tele, "attempt", cache="miss") == ["XTMP"]
    assert result.cache_hits == 1 and result.cache_misses == 1

    cache = ProfileCache()
    statuses = {(e.workload, e.status) for e in cache.entries()}
    assert ("XTMP", "stale") in statuses  # the superseded shard
    assert ("XTMP", "fresh") in statuses  # the rebuilt one
    assert ("VA", "fresh") in statuses
    # purge removes exactly the stale shard.
    removed = cache.purge(stale_only=True)
    assert len(removed) == 1 and "XTMP" in os.path.basename(removed[0])


def test_editing_shared_sources_invalidates_everything(cache_dir, monkeypatch, global_tele):
    config = CharacterizationConfig(abbrevs=["VA"], sample_blocks=8)
    run_characterization(config)
    # Simulate a simulator/collector edit by changing the shared digest.
    monkeypatch.setattr(
        ProfileCache, "_shared_digest", lambda self: "simulated-source-edit"
    )
    global_tele.reset()
    result = run_characterization(config)
    assert result.cache_misses == 1
    assert workloads(global_tele, "attempt", cache="miss") == ["VA"]


def test_shared_digest_is_independent_of_checkout_location(tmp_path):
    package = os.path.dirname(os.path.abspath(repro.__file__))
    probe = (
        "import repro; from repro.core.runtime import ProfileCache; "
        "print(repro.__file__); print(ProfileCache('unused')._shared_digest())"
    )
    digests = {ProfileCache(str(tmp_path))._shared_digest()}
    for root in (tmp_path / "a", tmp_path / "b" / "moved"):
        shutil.copytree(
            package, root / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(root)},
            capture_output=True,
            text=True,
            check=True,
        )
        imported, digest = out.stdout.split()
        assert imported.startswith(str(root))
        digests.add(digest)
    assert len(digests) == 1


def test_numeric_environment_changes_shared_digest(tmp_path, monkeypatch):
    before = ProfileCache(str(tmp_path))._shared_digest()
    monkeypatch.setattr(np, "__version__", "0.0.0+elsewhere")
    assert ProfileCache(str(tmp_path))._shared_digest() != before


def test_editing_one_pass_reruns_only_that_pass(cache_dir, monkeypatch, global_tele):
    from repro.trace.serialize import workload_section_bytes

    config = CharacterizationConfig(abbrevs=["VA"], sample_blocks=8)
    first = run_characterization(config)
    assert first.cache_misses == 1
    baseline = {
        name: workload_section_bytes(first.profiles[0], name)
        for name in first.profiles[0].passes
    }

    # Simulate editing the reuse pass module: only its digest changes.
    original = ProfileCache.pass_digest

    def edited(self, name):
        return "simulated-edit" if name == "reuse" else original(self, name)

    monkeypatch.setattr(ProfileCache, "pass_digest", edited)

    # A run that doesn't need the edited pass still hits the cache outright.
    global_tele.reset()
    sub = run_characterization(
        CharacterizationConfig(
            abbrevs=["VA"], sample_blocks=8, passes=("mix", "branch")
        )
    )
    assert sub.cache_hits == 1 and sub.cache_misses == 0
    assert global_tele.spans_by_name("attempt") == []

    # An all-pass run reruns exactly the stale pass and merges the rest.
    global_tele.reset()
    result = run_characterization(config)
    (started,) = global_tele.spans_by_name("attempt")
    assert started.attrs["workload"] == "VA"
    assert started.attrs["cache"] == "top-up"
    assert started.attrs["passes"] == ["reuse"]
    profile = result.profiles[0]
    assert profile.passes == first.profiles[0].passes
    for name in profile.passes:
        assert workload_section_bytes(profile, name) == baseline[name]

    # The refreshed shard records the new digest, so the next run full-hits.
    global_tele.reset()
    again = run_characterization(config)
    assert again.cache_hits == 1 and again.cache_misses == 0
    assert global_tele.spans_by_name("attempt") == []


def test_corrupt_shard_is_treated_as_miss(cache_dir):
    config = CharacterizationConfig(abbrevs=["VA"], sample_blocks=8)
    run_characterization(config)
    shard = next(cache_dir.glob("*.profile.json"))
    shard.write_text("{ not json")
    result = run_characterization(config)
    assert result.cache_misses == 1
    assert result.profiles[0].workload == "VA"


# ---------------------------------------------------------------------------
# Fault isolation


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_workload_is_structured_failure_not_abort(
    cache_dir, register, jobs, global_tele
):
    register(CrashingWorkload)
    lines = []
    result = run_characterization(
        CharacterizationConfig(
            abbrevs=["XCRASH", "VA"], sample_blocks=8, use_cache=False, jobs=jobs
        ),
        lines.append,
    )
    assert [p.workload for p in result.profiles] == ["VA"]
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.workload == "XCRASH"
    assert failure.attempts == 2  # retried once, then failed
    assert "deliberate crash" in failure.error
    crashed = [
        sp for sp in global_tele.spans_by_name("attempt") if sp.attrs["workload"] == "XCRASH"
    ]
    assert sorted(sp.attrs["attempt"] for sp in crashed) == [1, 2]
    assert all(sp.attrs["error"] == "RuntimeError" for sp in crashed)
    assert succeeded(global_tele) == ["VA"]
    (suite,) = global_tele.spans_by_name("suite")
    assert suite.attrs["completed"] == 1 and suite.attrs["failed"] == 1
    assert "  XCRASH started (retry 1)" in lines
    failed = r"  XCRASH FAILED  \[[12]/2\] after 2 attempts: RuntimeError: deliberate crash"
    # Each outcome is reported exactly once, also on the pool's requeue paths.
    assert [line for line in lines if " FAILED " in line] == [
        line for line in lines if re.fullmatch(failed, line)
    ]
    assert len([line for line in lines if " FAILED " in line]) == 1
    assert [line.split()[0] for line in lines if " ok " in line] == ["VA"]
    assert lines[-1].startswith("done: 1 ok, 1 failed, 0 cache hits in ")


def test_worker_process_death_is_isolated(cache_dir, register, global_tele):
    register(DyingWorkload)
    result = run_characterization(
        CharacterizationConfig(
            abbrevs=["XDIE", "VA"], sample_blocks=8, use_cache=False, jobs=2
        )
    )
    assert [p.workload for p in result.profiles] == ["VA"]
    assert len(result.failures) == 1
    assert result.failures[0].workload == "XDIE"
    assert "worker process died" in result.failures[0].error
    assert "worker_died" in {
        sp.attrs.get("error") for sp in global_tele.spans_by_name("attempt")
        if sp.attrs["workload"] == "XDIE"
    }
    assert succeeded(global_tele) == ["VA"]


def test_hung_workload_times_out_without_killing_suite(cache_dir, register, global_tele):
    register(HangingWorkload)
    result = run_characterization(
        CharacterizationConfig(
            abbrevs=["XHANG", "VA"],
            sample_blocks=8,
            use_cache=False,
            jobs=2,
            retries=0,
            workload_timeout=1.0,
        )
    )
    assert [p.workload for p in result.profiles] == ["VA"]
    assert len(result.failures) == 1
    assert result.failures[0].workload == "XHANG"
    assert "timed out" in result.failures[0].error
    assert workloads(global_tele, "attempt", error="timeout") == ["XHANG"]
    assert succeeded(global_tele) == ["VA"]


def test_characterize_raises_structured_error(cache_dir, register):
    register(CrashingWorkload)
    with pytest.raises(CharacterizationError) as exc_info:
        characterize(
            CharacterizationConfig(abbrevs=["XCRASH"], sample_blocks=8, use_cache=False)
        )
    assert exc_info.value.failures[0].workload == "XCRASH"


# ---------------------------------------------------------------------------
# Config plumbing


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2  # explicit beats the environment
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def test_unknown_workload_fails_fast(cache_dir):
    with pytest.raises(KeyError):
        run_characterization(CharacterizationConfig(abbrevs=["NOPE"]))
