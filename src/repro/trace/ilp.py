"""Microarchitecture-independent ILP measurement.

Follows the MICA methodology (Hoste & Eeckhout): the dynamic instruction
stream is split into consecutive windows of W instructions; within a window,
instructions schedule as early as their register dependences allow (perfect
branch prediction, infinite functional units, unit latency).  The window ILP
is ``W / critical_path_length`` and the reported ILP is the average over
windows.

On a GPU the natural stream is the per-warp instruction stream; since every
warp of a block executes the same lockstep stream under our structured-IR
executor, the tracker consumes the block-level stream once per block.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple


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


def window_ilp(instrs: Sequence[Tuple[Optional[str], Sequence[str]]]) -> float:
    """ILP of one window of ``(dest, srcs)`` instructions: the value an
    :class:`IlpTracker` adds to its sum when it closes that window."""
    tracker = IlpTracker(len(instrs))
    for dest, srcs in instrs:
        tracker.note(dest, srcs)
    return tracker._ilp_sum


class IlpTrackerBank:
    """A set of ILP trackers at the standard MICA window sizes."""

    DEFAULT_WINDOWS: Tuple[int, ...] = (32, 64, 128, 256)

    def __init__(self, windows: Iterable[int] = DEFAULT_WINDOWS) -> None:
        self.trackers = {w: IlpTracker(w) for w in windows}
        self._bank = tuple(self.trackers.values())

    def note(self, dest: Optional[str], srcs: Sequence[str]) -> None:
        for tracker in self._bank:
            tracker.note(dest, srcs)

    def flush(self) -> None:
        for tracker in self._bank:
            tracker.flush()

    def results(self) -> Dict[int, float]:
        return {w: t.ilp for w, t in self.trackers.items()}

    def add_contribution(self, contrib: Tuple[Tuple[float, int, int], ...]) -> None:
        """Add one stream's per-tracker ``(ilp_sum, windows, instructions)``,
        in tracker order (what feeding the stream and flushing would add)."""
        for t, (ilp_sum, windows, instructions) in zip(self._bank, contrib):
            t._ilp_sum += ilp_sum
            t._windows += windows
            t.instructions += instructions
