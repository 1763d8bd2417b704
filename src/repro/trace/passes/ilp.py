"""Windowed instruction-level-parallelism pass.

Follows the MICA methodology (Hoste & Eeckhout): each block's dynamic
register-dependence stream is split into consecutive windows of W
instructions; within a window, instructions schedule as early as their
register dependences allow (perfect branch prediction, infinite functional
units, unit latency).  A window's ILP is its length over its critical path,
and the reported ILP is the average over every window of the launch (1.0,
the serial floor, for a width that saw no window).  Every warp of a block
executes the same lockstep stream, so the block-level stream is consumed
once per block.

The stream is a pure function of the executed sid sequence (barriers and
bare branches carry no registers and are skipped).  Blocks usually replay
the same sequence, so each distinct stream's contribution is cached, and
within a stream each distinct window's ILP.  Both depend only on the
kernel's static statements (and a contribution on the window widths), so
the caches live with the kernel (:class:`_KernelTables`) and serve every
launch of it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.simt.ir import stmt_regs
from repro.trace.passes.base import AnalysisPass, register_pass


def _ilp_of_window(deps: Sequence[Tuple[Optional[str], Tuple[str, ...]]]) -> float:
    """ILP of one window of ``(dest, srcs)`` instructions: its length over
    its critical path, counting only dependences inside the window."""
    depth: Dict[str, int] = {}
    critical = 1
    for dest, srcs in deps:
        d = 1
        for src in srcs:
            s = depth.get(src, 0)
            if s >= d:
                d = s + 1
        if dest is not None:
            depth[dest] = d
        if d > critical:
            critical = d
    return len(deps) / critical


class _KernelTables:
    """One kernel's launch-invariant ILP state, kept on the ``Kernel``.

    ``deps`` maps each statement id to its ``(dest, srcs)`` registers and
    ``feeds`` flags the statements that take part in the stream.
    ``windows`` caches the ILP of each distinct window by its int64 sid
    bytes; ``contribs`` caches each distinct stream's contribution per
    ``ilp_windows`` tuple, by the stream's sid bytes.
    """

    __slots__ = ("deps", "feeds", "windows", "contribs")

    def __init__(self, kernel) -> None:
        self.deps = {stmt.sid: stmt_regs(stmt) for stmt in kernel.walk()}
        self.feeds = np.zeros(kernel.num_static_stmts, dtype=bool)
        for sid, (dest, srcs) in self.deps.items():
            self.feeds[sid] = dest is not None or bool(srcs)
        self.windows: Dict[bytes, float] = {}
        self.contribs: Dict[Tuple[int, ...], Dict[bytes, tuple]] = {}

    @classmethod
    def of(cls, kernel) -> "_KernelTables":
        tables = getattr(kernel, "_ilp_tables", None)
        if tables is None:
            tables = kernel._ilp_tables = cls(kernel)
        return tables


@register_pass
class IlpPass(AnalysisPass):
    name = "ilp"
    subscribes = frozenset({"instr"})
    fields = ("ilp",)

    def begin_kernel(self, kernel, profile):
        self._widths = self.config.ilp_windows
        # Per width, the float sum of window ILPs and the window count.
        self._sums = [0.0] * len(self._widths)
        self._counts = [0] * len(self._widths)
        tables = _KernelTables.of(kernel)
        self._deps = tables.deps
        self._feeds = tables.feeds
        self._windows = tables.windows
        self._contribs = tables.contribs.setdefault(tuple(self._widths), {})

    def consume(self, batch):
        # Each block's stream is the feeding sid column restricted to the
        # events it takes part in; contributions are added block by block.
        ins = batch.instr
        feeding = self._feeds[ins.sid]
        sids = ins.sid[feeding]
        if not sids.size:
            return
        slots = ins.slot[feeding]
        takes_part = batch.warp_lanes.any(axis=2).T  # (P, S)
        contribs = self._contribs
        sums, counts = self._sums, self._counts
        for i in range(len(batch)):
            stream = sids[takes_part[i][slots]]
            if stream.size == 0:
                continue
            key = stream.tobytes()
            contrib = contribs.get(key)
            if contrib is None:
                contrib = contribs[key] = self._contribution(stream)
            for j, (ilp_sum, nwin) in enumerate(contrib):
                sums[j] += ilp_sum
                counts[j] += nwin

    def _contribution(self, stream: np.ndarray) -> Tuple[Tuple[float, int], ...]:
        """One block's ``(sum of window ILPs, window count)`` per width, the
        windows' values summed in window order from ``0.0``.  The last
        window of a width may be partial."""
        out = []
        for width in self._widths:
            ilp_sum = 0.0
            for w0 in range(0, stream.size, width):
                win = stream[w0 : w0 + width]
                key = win.tobytes()
                value = self._windows.get(key)
                if value is None:
                    value = self._windows[key] = _ilp_of_window(
                        [self._deps[sid] for sid in win.tolist()]
                    )
                ilp_sum += value
            out.append((ilp_sum, -(-stream.size // width)))
        return tuple(out)

    def end_kernel(self, profile):
        profile.ilp = {
            width: total / n if n else 1.0
            for width, total, n in zip(self._widths, self._sums, self._counts)
        }
