"""Byte-compatibility reference: the naive windowed ILP tracker.

This is the per-instruction tracker that :class:`repro.trace.passes.ilp.IlpPass`
replaced, kept (class body unchanged) so tests can pin the pass's per-width
window sums and counts to it exactly.  It is test code only; nothing under
``src/`` imports it.

Original module docstring:

    Follows the MICA methodology (Hoste & Eeckhout): the dynamic instruction
    stream is split into consecutive windows of W instructions; within a
    window, instructions schedule as early as their register dependences
    allow (perfect branch prediction, infinite functional units, unit
    latency).  The window ILP is ``W / critical_path_length`` and the
    reported ILP is the average over windows.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple


class IlpTracker:
    """Windowed critical-path ILP over a register-dependence stream."""

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._depth: Dict[str, int] = {}
        self._in_window = 0
        self._max_depth = 0
        self._ilp_sum = 0.0
        self._windows = 0
        self.instructions = 0

    def note(self, dest: Optional[str], srcs: Sequence[str]) -> None:
        """Record one instruction with its register reads and write."""
        depths = self._depth
        depth = 1
        for src in srcs:
            d = depths.get(src)
            if d is not None and d >= depth:
                depth = d + 1
        if dest is not None:
            depths[dest] = depth
        if depth > self._max_depth:
            self._max_depth = depth
        self._in_window += 1
        self.instructions += 1
        if self._in_window == self.window:
            self._close_window()

    def _close_window(self) -> None:
        self._ilp_sum += self._in_window / self._max_depth
        self._windows += 1
        self._depth.clear()
        self._in_window = 0
        self._max_depth = 0

    def flush(self) -> None:
        """Close a partial window (call at block end)."""
        if self._in_window:
            self._close_window()

    @property
    def ilp(self) -> float:
        """Average window ILP (1.0 for an empty stream, the serial floor)."""
        if self._windows == 0:
            return 1.0
        return self._ilp_sum / self._windows


def tracker_contribution(
    deps: Sequence[Tuple[Optional[str], Sequence[str]]], windows: Sequence[int]
) -> Tuple[Tuple[float, int], ...]:
    """Per window width, the ``(ilp_sum, windows)`` a fresh tracker holds
    after noting one block's ``(dest, srcs)`` stream and flushing."""
    out = []
    for width in windows:
        tracker = IlpTracker(width)
        for dest, srcs in deps:
            tracker.note(dest, srcs)
        tracker.flush()
        out.append((tracker._ilp_sum, tracker._windows))
    return tuple(out)
