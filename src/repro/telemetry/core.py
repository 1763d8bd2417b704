"""Lightweight, dependency-free tracing: spans and counters.

One process-global :class:`Telemetry` registry collects two kinds of
record:

* **spans** — named, nested wall-clock intervals with parent/child IDs and
  per-span attributes, opened via the ``with tele.span("name"): ...``
  context-manager API (or :meth:`Telemetry.start_span` /
  :meth:`Telemetry.finish_span` when the interval does not map onto a
  ``with`` block, e.g. a future submitted to a pool);
* **counters** — monotonically added floats (``cache.hits``,
  ``pool.retries``, ``pass.mix.events`` …).

Telemetry is **disabled by default** and every recording entry point begins
with one ``enabled`` check: ``span()`` returns a shared no-op context
manager and :meth:`Telemetry.count` returns immediately, so instrumented
code pays a few attribute loads per *launch or suite event* (never per
batch, block or dynamic instruction) when telemetry is off.  The compiled
engine's batch loop never calls telemetry at all — spans wrap whole
launches, the same way observation hooks are compiled out of unprofiled
blocks.

Worker processes record into their own registry and ship a picklable
:class:`TelemetrySnapshot` back to the parent, which merges it with
:meth:`Telemetry.merge_snapshot` — re-parenting the worker's root spans
under the parent-side span that launched the work, so one trace covers the
whole parallel run.  Span IDs are prefixed with the recording PID, so
merged IDs never collide.  Timestamps are ``time.perf_counter()`` values
paired with a per-process epoch anchor (``time.time() - perf_counter()``),
letting exporters place spans from different processes on one absolute
timeline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "get_telemetry",
]


class Span:
    """One named wall-clock interval in the trace tree."""

    __slots__ = ("name", "span_id", "parent_id", "t0", "t1", "attrs", "pid")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        t0: float,
        pid: int,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}
        self.pid = pid

    @property
    def duration(self) -> float:
        """Seconds from open to close (0.0 while still open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t0": self.t0,
            "t1": self.t1,
            "pid": self.pid,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, dur={self.duration:.6f})"


@dataclass
class TelemetrySnapshot:
    """Picklable copy of a registry's state (worker -> parent shipping)."""

    spans: List[Dict[str, Any]]
    counters: Dict[str, float]
    #: ``time.time() - time.perf_counter()`` in the recording process.
    epoch_anchor: float
    pid: int


class _NullSpan:
    """Shared no-op context manager returned while telemetry is disabled."""

    __slots__ = ()

    #: No span is recorded (``_LiveSpan.span`` is the open one).
    span: Optional[Span] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager driving one open :class:`Span`."""

    __slots__ = ("_tele", "span")

    def __init__(self, tele: "Telemetry", span: Span) -> None:
        self._tele = tele
        self.span = span

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        self._tele.finish_span(self.span)

    def set(self, **attrs: Any) -> None:
        self.span.attrs.update(attrs)


class Telemetry:
    """Process-global span + counter registry (disabled until :meth:`enable`)."""

    def __init__(self) -> None:
        self.enabled: bool = False
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.epoch_anchor: float = 0.0
        self._stack: List[Span] = []
        self._next_id: int = 0
        self._pid: int = os.getpid()

    # -- lifecycle ------------------------------------------------------

    def enable(self, reset: bool = True) -> None:
        """Turn recording on (clearing any prior state by default)."""
        if reset:
            self.reset()
        self.enabled = True
        self.epoch_anchor = time.time() - time.perf_counter()

    def disable(self) -> None:
        """Stop recording; collected spans and counters stay readable."""
        self.enabled = False

    def reset(self) -> None:
        self.spans = []
        self.counters = {}
        self._stack = []
        self._next_id = 0
        self._pid = os.getpid()

    def begin_worker(self) -> None:
        """Re-arm a forked worker's inherited registry for its own recording.

        Fork copies the parent's registry — spans and all.  The worker must
        record only its own activity, under IDs that cannot collide with the
        parent's, so this clears the state, refreshes the PID prefix and
        re-enables recording.
        """
        self.enable(reset=True)

    # -- spans ----------------------------------------------------------

    def _new_id(self) -> str:
        self._next_id += 1
        return f"{self._pid}-{self._next_id}"

    def span(self, name: str, **attrs: Any):
        """Open a child span of the innermost open span (context manager)."""
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, self.start_span(name, **attrs))

    def start_span(self, name: str, **attrs: Any) -> Optional[Span]:
        """Manually open a span (pair with :meth:`finish_span`)."""
        if not self.enabled:
            return None
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(name, self._new_id(), parent, time.perf_counter(), self._pid, attrs)
        self._stack.append(sp)
        return sp

    def open_span(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> Optional[Span]:
        """Open a *detached* span under an explicit parent.

        Unlike :meth:`start_span` the span is not pushed onto the open-span
        stack, so several can be open concurrently without nesting under
        each other — the shape of futures in flight on a process pool.
        Close with :meth:`finish_span`.
        """
        if not self.enabled:
            return None
        return Span(name, self._new_id(), parent_id, time.perf_counter(), self._pid, attrs)

    def finish_span(self, span: Optional[Span]) -> None:
        if span is None or span.t1 is not None:
            return
        span.t1 = time.perf_counter()
        # Out-of-order manual finishes (pool futures complete in any order)
        # just remove the span from wherever it sits in the open stack.
        try:
            self._stack.remove(span)
        except ValueError:
            pass
        self.spans.append(span)

    def current_span_id(self) -> Optional[str]:
        return self._stack[-1].span_id if self._stack else None

    # -- counters -------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0.0) + value

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Picklable copy of everything recorded so far (open spans closed)."""
        for sp in list(self._stack):
            self.finish_span(sp)
        return TelemetrySnapshot(
            spans=[sp.to_dict() for sp in self.spans],
            counters=dict(self.counters),
            epoch_anchor=self.epoch_anchor,
            pid=self._pid,
        )

    def merge_snapshot(
        self, snap: TelemetrySnapshot, parent_id: Optional[str] = None
    ) -> None:
        """Fold a worker's snapshot into this registry.

        Root spans of the snapshot (``parent is None``) are re-parented to
        ``parent_id`` so the worker's activity hangs off the parent-side
        span that dispatched it.  Worker timestamps are rebased onto this
        process's clock through the two epoch anchors, so one absolute
        timeline covers every process.
        """
        if not self.enabled:
            return
        shift = snap.epoch_anchor - self.epoch_anchor
        for rec in snap.spans:
            sp = Span(
                rec["name"],
                rec["id"],
                rec["parent"] if rec["parent"] is not None else parent_id,
                rec["t0"] + shift,
                rec["pid"],
                dict(rec["attrs"]),
            )
            sp.t1 = rec["t1"] + shift if rec["t1"] is not None else None
            self.spans.append(sp)
        for name, value in snap.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    # -- introspection ---------------------------------------------------

    def spans_by_name(self, name: str) -> List[Span]:
        return [sp for sp in self.spans if sp.name == name]


_GLOBAL: Optional[Telemetry] = None


def get_telemetry() -> Telemetry:
    """The process-global registry (created on first use, disabled)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = Telemetry()
    return _GLOBAL

