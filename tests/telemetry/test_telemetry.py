"""Telemetry: spans, counters, worker merge, the trace file and the CLI surface."""

import json

import pytest

from repro.telemetry import (
    TRACE_FORMAT,
    Telemetry,
    format_summary,
    get_telemetry,
    load_trace,
    write_trace,
)


@pytest.fixture()
def tele():
    """A private, enabled registry (never the process-global one)."""
    t = Telemetry()
    t.enable()
    return t


# ----------------------------------------------------------------------
# Core span/counter semantics
# ----------------------------------------------------------------------


def test_disabled_is_noop():
    t = Telemetry()
    with t.span("a", k=1):
        t.count("c")
    assert t.start_span("b") is None
    assert t.open_span("d") is None
    t.finish_span(None)
    assert t.spans == [] and t.counters == {}


def test_disabled_span_is_shared_singleton():
    t = Telemetry()
    assert t.span("a") is t.span("b")  # no allocation on the disabled path


def test_span_nesting_and_attrs(tele):
    with tele.span("outer", kind="suite") as outer:
        with tele.span("inner") as inner:
            inner.set(blocks=4)
    spans = {sp.name: sp for sp in tele.spans}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id is None
    assert spans["outer"].attrs == {"kind": "suite"}
    assert spans["inner"].attrs == {"blocks": 4}
    assert spans["inner"].duration <= spans["outer"].duration
    assert outer.span.t1 is not None


def test_span_records_exception(tele):
    with pytest.raises(RuntimeError):
        with tele.span("boom"):
            raise RuntimeError("x")
    (sp,) = tele.spans
    assert sp.attrs["error"] == "RuntimeError"
    assert sp.t1 is not None  # still closed


def test_open_spans_do_not_nest_under_each_other(tele):
    with tele.span("suite"):
        root = tele.current_span_id()
        a = tele.open_span("attempt", parent_id=root, workload="VA")
        b = tele.open_span("attempt", parent_id=root, workload="BS")
        # Detached spans never join the open-span stack...
        assert tele.current_span_id() == root
        # ...so both parent to the suite, not to each other.
        tele.finish_span(b)
        tele.finish_span(a)
    assert all(sp.parent_id == root for sp in tele.spans_by_name("attempt"))


def test_counters_accumulate(tele):
    tele.count("hits")
    tele.count("hits", 2)
    tele.count("seconds", 0.25)
    assert tele.counters == {"hits": 3, "seconds": 0.25}


def test_snapshot_merge_reparents_and_rebases(tele):
    worker = Telemetry()
    worker.enable()
    worker.epoch_anchor = tele.epoch_anchor + 100.0  # clocks differ by 100s
    with worker.span("workload:VA"):
        with worker.span("launch"):
            worker.count("engine.launches")
    snap = worker.snapshot()

    tele.count("engine.launches")
    with tele.span("suite"):
        attempt = tele.open_span("attempt", parent_id=tele.current_span_id())
        tele.finish_span(attempt)
        tele.merge_snapshot(snap, parent_id=attempt.span_id)
    by_name = {sp.name: sp for sp in tele.spans}
    # Worker root re-parented under the dispatching attempt span.
    assert by_name["workload:VA"].parent_id == attempt.span_id
    # Non-root worker spans keep their in-worker parents.
    assert by_name["launch"].parent_id == by_name["workload:VA"].span_id
    # Timestamps rebased onto the parent's clock (the 100s skew applied).
    assert by_name["workload:VA"].t0 > attempt.t0 + 99.0
    # Counters add across processes.
    assert tele.counters["engine.launches"] == 2


def test_merged_ids_do_not_collide(tele):
    worker = Telemetry()
    worker.enable()
    worker._pid = tele._pid + 1  # what begin_worker()'s re-arm guarantees
    with worker.span("w"):
        pass
    with tele.span("w"):
        pass
    tele.merge_snapshot(worker.snapshot())
    ids = [sp.span_id for sp in tele.spans]
    assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Pipeline integration: serial and parallel characterization
# ----------------------------------------------------------------------


def _characterize(jobs, abbrevs):
    from repro.api import CharacterizationConfig, characterize

    return characterize(
        CharacterizationConfig(
            abbrevs=abbrevs, sample_blocks=8, use_cache=False, jobs=jobs
        )
    )


def test_serial_run_produces_span_tree_and_pass_costs(global_tele):
    (profile,) = _characterize(jobs=1, abbrevs=["VA"]).profiles
    t = global_tele
    (suite,) = t.spans_by_name("suite")
    (workload,) = t.spans_by_name("workload:VA")
    (attempt,) = t.spans_by_name("attempt")
    assert workload.parent_id == suite.span_id
    assert attempt.parent_id == workload.span_id
    assert suite.attrs["completed"] == 1 and suite.attrs["failed"] == 0
    launches = t.spans_by_name("launch")
    assert launches and all(sp.duration > 0 for sp in launches)
    assert t.counters["engine.launches"] == len(launches)
    assert t.counters["cache.misses"] == 1
    # Each launch span mirrors its launch record, and the engine counters
    # fold the same records the profile's totals do.
    for sp in launches:
        assert {"profiled_blocks", "hazard_tier", "pin_reason", "batches"} <= set(sp.attrs)
    totals = profile.engine_stats
    assert totals["launches"] == len(launches)
    for key in ("blocks", "batches", "batched_blocks", "observed_batches", "event_bytes"):
        assert t.counters[f"engine.compiled.{key}"] == totals[key]
    for kind, n in totals["event_counts"].items():
        assert t.counters[f"engine.compiled.events.{kind}"] == n
    for tier, n in totals["hazard_tiers"].items():
        assert t.counters[f"engine.compiled.hazard.{tier}"] == n
    # Every enabled pass accrues nonzero measured time, even event-less ones.
    from repro.trace.profile import PASS_NAMES

    for name in PASS_NAMES:
        assert t.counters[f"pass.{name}.seconds"] > 0
        assert f"pass.{name}.events" in t.counters
    # Each pass is charged only the events of the kinds it subscribes to.
    counts = totals["event_counts"]
    assert counts["instr"] > 0 and counts["mem"] > 0
    assert t.counters["pass.mix.events"] == counts["instr"]
    assert t.counters["pass.coalescing.events"] == counts["mem"]
    assert t.counters["pass.branch.events"] == counts["branch"]
    # Each launch span says how its blocks were batched.
    assert sum(sp.attrs["batches"] for sp in launches) == totals["batches"] > 0


def test_parallel_run_merges_worker_spans_with_correct_parents(global_tele):
    _characterize(jobs=2, abbrevs=["VA", "BS"])
    t = global_tele
    (suite,) = t.spans_by_name("suite")
    attempts = t.spans_by_name("attempt")
    assert len(attempts) == 2
    assert all(sp.parent_id == suite.span_id for sp in attempts)
    attempt_of = {sp.attrs["workload"]: sp for sp in attempts}
    for abbrev in ("VA", "BS"):
        (workload,) = t.spans_by_name(f"workload:{abbrev}")
        assert workload.parent_id == attempt_of[abbrev].span_id
        # Worker spans keep their recording PID, distinct from the parent's.
        assert workload.pid != t._pid
    assert t.counters["engine.launches"] >= 2
    assert t.counters["cache.misses"] == 2


def test_disabled_run_records_nothing(global_tele):
    global_tele.disable()
    global_tele.reset()
    _characterize(jobs=1, abbrevs=["VA"])
    assert global_tele.spans == [] and global_tele.counters == {}


#: The recording entry points every instrumented layer calls.
_ENTRY_POINTS = ("span", "count", "start_span", "open_span", "finish_span")

#: Disabled-path calls one launch may make: three spans, the launch-record
#: counters and two counters per pass (24 in all with the seven passes).
CALLS_PER_LAUNCH = 32


def _disabled_calls(monkeypatch, abbrev, sample_blocks):
    from repro.workloads.runner import run_workload

    calls = dict.fromkeys(_ENTRY_POINTS, 0)

    def counting(name, original):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        for name in _ENTRY_POINTS:
            m.setattr(Telemetry, name, counting(name, getattr(Telemetry, name)))
        profile = run_workload(abbrev, verify=False, sample_blocks=sample_blocks)
    return calls, profile.engine_stats


# Workloads whose profiled blocks span several batches, so sampling them
# records fewer events than profiling every block.
@pytest.mark.parametrize("abbrev", ["BFS", "HYS"])
def test_disabled_path_call_budget(monkeypatch, abbrev):
    """With telemetry off, the recording calls scale with launches only:
    never with batches, blocks, profiled blocks or events."""
    assert not get_telemetry().enabled
    sampled, stats = _disabled_calls(monkeypatch, abbrev, sample_blocks=8)
    full, full_stats = _disabled_calls(monkeypatch, abbrev, sample_blocks=None)
    # Profiling every block records more events but makes no extra calls.
    assert full_stats["event_counts"]["instr"] > stats["event_counts"]["instr"]
    assert full == sampled
    assert sampled["span"] > 0 and sampled["count"] > 0
    # Several batches per launch, so a per-batch call would show.
    assert stats["batches"] > stats["launches"]
    budget = CALLS_PER_LAUNCH * stats["launches"]
    assert sum(sampled.values()) <= budget, (sampled, stats["launches"])


# ----------------------------------------------------------------------
# Trace file, loader, summary
# ----------------------------------------------------------------------


def _small_trace(tele):
    with tele.span("suite", workloads=1):
        with tele.span("launch", kernel="k"):
            tele.count("engine.launches")
    tele.count("pass.mix.events", 10)
    tele.count("pass.mix.seconds", 0.25)
    return tele


def test_chrome_trace_schema(tele, tmp_path):
    path = tmp_path / "trace.json"
    write_trace(_small_trace(tele), str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "reproTelemetry"}
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in meta] == ["process_name"]
    assert {e["name"] for e in complete} == {"suite", "launch"}
    for e in complete:
        assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert e["cat"] == "repro"
        assert e["ts"] >= 0 and e["dur"] >= 0  # microseconds from trace start
        assert "id" in e["args"] and "parent" in e["args"]
    launch = next(e for e in complete if e["name"] == "launch")
    suite = next(e for e in complete if e["name"] == "suite")
    assert launch["args"]["parent"] == suite["args"]["id"]
    assert launch["args"]["kernel"] == "k"
    extra = doc["reproTelemetry"]
    assert set(extra) == {"format", "baseEpochSeconds", "counters"}
    assert extra["format"] == TRACE_FORMAT == "repro.telemetry/v2"
    assert extra["counters"]["engine.launches"] == 1


def test_trace_roundtrip_ignores_extension(tele, tmp_path):
    _small_trace(tele)
    jl, ch = tmp_path / "t.jsonl", tmp_path / "t.json"
    write_trace(tele, str(jl))
    write_trace(tele, str(ch))
    # One file format whatever the extension.
    assert jl.read_text() == ch.read_text()
    data = load_trace(str(jl))
    assert sorted(sp["name"] for sp in data.spans) == ["launch", "suite"]
    assert data.counters == tele.counters
    (launch,) = [sp for sp in data.spans if sp["name"] == "launch"]
    (suite,) = [sp for sp in data.spans if sp["name"] == "suite"]
    assert launch["parent"] == suite["id"]
    assert launch["attrs"] == {"kernel": "k"}
    assert launch["dur"] <= suite["dur"]


def test_load_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    for text in (
        "this is not json\n",
        # A line-per-record span log is not a trace.
        '{"kind": "meta", "format": "repro.telemetry/v1"}\n{"kind": "span"}\n',
        '[{"traceEvents": []}]\n',
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match="^not Chrome trace-event JSON: "):
            load_trace(str(path))


def test_format_summary_sections(tele, tmp_path):
    path = tmp_path / "t.json"
    write_trace(_small_trace(tele), str(path))
    text = format_summary(load_trace(str(path)))
    assert "2 spans over" in text
    assert "top spans by self-time" in text
    assert "analysis passes (measured)" in text
    assert "mix" in text and "0.2500" in text
    assert "engine.launches = 1" in text


def test_format_summary_empty():
    from repro.telemetry import TraceData

    assert "no spans recorded" in format_summary(TraceData())


# ----------------------------------------------------------------------
# CLI: --trace-out, REPRO_TRACE and the telemetry subcommand
# ----------------------------------------------------------------------


def test_cli_trace_out_and_summary(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace = tmp_path / "run.json"
    assert main(["characterize", "VA", "--sample-blocks", "8",
                 "--trace-out", str(trace)]) == 0
    captured = capsys.readouterr()
    assert f"wrote telemetry trace to {trace}" in captured.err
    assert not get_telemetry().enabled  # disabled again after the run

    doc = json.loads(trace.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert {"suite", "workload:VA", "attempt", "launch"} <= names

    assert main(["telemetry", str(trace), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "top spans by self-time" in out
    assert "analysis passes (measured)" in out
    assert "cache.misses = 1" in out


def test_cli_repro_trace_env(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(trace))
    assert main(["characterize", "VA", "--sample-blocks", "8"]) == 0
    capsys.readouterr()
    # Chrome trace-event JSON whatever the extension.
    doc = json.loads(trace.read_text())
    assert doc["reproTelemetry"]["counters"]["cache.misses"] == 1
    assert "launch" in {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}


def test_cli_telemetry_usage_errors(capsys, tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["telemetry", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert "no such trace file" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "meta"}\n')
    with pytest.raises(SystemExit) as exc:
        main(["telemetry", str(bad)])
    assert exc.value.code == 2
    assert f"could not parse {bad}: not Chrome trace-event JSON" in capsys.readouterr().err
