"""Trace writer, loader and summarizer.

A trace has one file format, Chrome trace-event JSON, whatever the file's
extension.  :func:`write_trace` turns a
:class:`~repro.telemetry.core.Telemetry` registry into a document loadable
in ``chrome://tracing`` / Perfetto: spans become complete (``"ph": "X"``)
events on one absolute microsecond timeline, one row per recording
process, and the counters ride in a ``reproTelemetry`` top-level key
(Chrome ignores unknown keys).

:func:`load_trace` reads such a file back into a :class:`TraceData`, and
:func:`format_summary` renders it as text — top spans by self-time, the
per-pass cost table and the counter totals (what ``python -m repro
telemetry`` prints).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.core import Telemetry

TRACE_FORMAT = "repro.telemetry/v2"

__all__ = [
    "TRACE_FORMAT",
    "TraceData",
    "write_trace",
    "load_trace",
    "format_summary",
]


def write_trace(tele: Telemetry, path: str) -> None:
    """Write the registry's finished spans and its counters to ``path``."""
    spans = sorted((sp for sp in tele.spans if sp.t1 is not None), key=lambda sp: sp.t0)
    t_base = tele.epoch_anchor + spans[0].t0 if spans else 0.0
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro pid {pid}"},
        }
        for pid in sorted({sp.pid for sp in spans})
    ]
    for sp in spans:
        events.append(
            {
                "name": sp.name,
                "cat": "repro",
                "ph": "X",
                "ts": round((tele.epoch_anchor + sp.t0 - t_base) * 1e6, 3),
                "dur": round(sp.duration * 1e6, 3),
                "pid": sp.pid,
                "tid": 0,
                "args": {"id": sp.span_id, "parent": sp.parent_id, **sp.attrs},
            }
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "reproTelemetry": {
            "format": TRACE_FORMAT,
            "baseEpochSeconds": t_base,
            "counters": {k: tele.counters[k] for k in sorted(tele.counters)},
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# Loading and summarizing
# ----------------------------------------------------------------------


@dataclass
class TraceData:
    """Contents of a trace file: span records and counter totals.

    Each span record holds ``name``, ``id``, ``parent``, ``ts`` (absolute
    epoch seconds), ``dur`` (seconds), ``pid`` and ``attrs``.
    """

    spans: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


def load_trace(path: str) -> TraceData:
    """Read a trace written by :func:`write_trace`.

    Raises ``ValueError`` when the file is not Chrome trace-event JSON.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"not Chrome trace-event JSON: {exc}") from None
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not Chrome trace-event JSON: no traceEvents key")
    extra = doc.get("reproTelemetry", {})
    base = float(extra.get("baseEpochSeconds", 0.0))
    data = TraceData(counters={k: float(v) for k, v in extra.get("counters", {}).items()})
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        data.spans.append(
            {
                "name": ev["name"],
                "id": args.pop("id", None),
                "parent": args.pop("parent", None),
                "ts": base + float(ev["ts"]) / 1e6,
                "dur": float(ev["dur"]) / 1e6,
                "pid": ev.get("pid", 0),
                "attrs": args,
            }
        )
    return data


def _self_times(spans: List[Dict[str, Any]]) -> Dict[Optional[str], float]:
    """Per-span self time: duration minus direct children's durations."""
    child_sum: Dict[Optional[str], float] = {}
    for sp in spans:
        parent = sp.get("parent")
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + sp["dur"]
    return {
        sp["id"]: max(sp["dur"] - child_sum.get(sp["id"], 0.0), 0.0) for sp in spans
    }


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}us"


def _fmt_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return lines


def format_summary(data: TraceData, top: int = 15) -> str:
    """Human-readable trace digest: top spans by self-time, counter totals."""
    lines: List[str] = []
    spans = data.spans
    if spans:
        t0 = min(sp["ts"] for sp in spans)
        t1 = max(sp["ts"] + sp["dur"] for sp in spans)
        pids = {sp["pid"] for sp in spans}
        lines.append(
            f"{len(spans)} spans over {_fmt_seconds(t1 - t0)} wall "
            f"({len(pids)} process{'es' if len(pids) != 1 else ''})"
        )
        self_of = _self_times(spans)
        agg: Dict[str, List[float]] = {}
        for sp in spans:
            rec = agg.setdefault(sp["name"], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += sp["dur"]
            rec[2] += self_of.get(sp["id"], 0.0)
        ranked = sorted(agg.items(), key=lambda kv: kv[1][2], reverse=True)
        rows = [
            [name, str(int(n)), _fmt_seconds(total), _fmt_seconds(self_s),
             _fmt_seconds(total / n)]
            for name, (n, total, self_s) in ranked[:top]
        ]
        lines.append("")
        lines.append(f"top spans by self-time (of {len(agg)} distinct):")
        lines.extend(_table(["span", "count", "total", "self", "mean"], rows))
    else:
        lines.append("no spans recorded")

    pass_rows = _pass_rows(data.counters)
    if pass_rows:
        lines.append("")
        lines.append("analysis passes (measured):")
        lines.extend(_table(["pass", "events", "seconds", "share"], pass_rows))

    if data.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(data.counters):
            lines.append(f"  {name} = {_fmt_value(data.counters[name])}")
    return "\n".join(lines)


def _pass_rows(counters: Dict[str, float]) -> List[List[str]]:
    """Rows for the per-analysis-pass table (``pass.<name>.{events,seconds}``)."""
    names = sorted(
        {
            name.split(".", 2)[1]
            for name in counters
            if name.startswith("pass.") and name.count(".") >= 2
        }
    )
    if not names:
        return []
    seconds = {n: counters.get(f"pass.{n}.seconds", 0.0) for n in names}
    total = sum(seconds.values())
    rows = []
    for n in sorted(names, key=lambda n: seconds[n], reverse=True):
        events = counters.get(f"pass.{n}.events", 0.0)
        share = seconds[n] / total if total else 0.0
        rows.append(
            [n, _fmt_value(events), f"{seconds[n]:.4f}", f"{share:.0%}"]
        )
    return rows
