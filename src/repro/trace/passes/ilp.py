"""Windowed instruction-level-parallelism pass.

ILP is windowed over the per-block register-dependence stream, which is a
pure function of the executed sid sequence.  Blocks of one launch usually
replay the same sequence, so each distinct stream's tracker contribution is
cached, and within a stream each distinct window's ILP (barriers/branches
carry no regs and are skipped from the stream).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simt.ir import Atomic, Instr, Load, Reg, Stmt
from repro.trace.ilp import IlpTrackerBank, window_ilp
from repro.trace.passes.base import AnalysisPass, register_pass


def _reg_deps(stmt: Stmt):
    """Extract (dest register name, source register names) for ILP tracking."""
    if isinstance(stmt, Instr):
        return stmt.dest.name, [s.name for s in stmt.srcs if isinstance(s, Reg)]
    if isinstance(stmt, Load):
        srcs = [stmt.addr.name] if isinstance(stmt.addr, Reg) else []
        return stmt.dest.name, srcs
    if isinstance(stmt, Atomic):
        srcs = [s.name for s in (stmt.addr, stmt.value, stmt.compare) if isinstance(s, Reg)]
        return (stmt.dest.name if stmt.dest is not None else None), srcs
    if hasattr(stmt, "addr"):  # Store
        srcs = [s.name for s in (stmt.addr, stmt.value) if isinstance(s, Reg)]
        return None, srcs
    if hasattr(stmt, "cond") and isinstance(getattr(stmt, "cond"), Reg):
        return None, [stmt.cond.name]
    return None, []


@register_pass
class IlpPass(AnalysisPass):
    name = "ilp"
    subscribes = frozenset({"instr"})
    fields = ("ilp",)

    def begin_kernel(self, kernel, profile):
        self._bank = IlpTrackerBank(self.config.ilp_windows)
        # Register dependences per static statement id, and whether the
        # statement feeds the stream at all (barriers and bare branches
        # carry no registers and are skipped).
        self._deps: Dict[int, Tuple[Optional[str], List[str]]] = {
            stmt.sid: _reg_deps(stmt) for stmt in kernel.walk()
        }
        self._feeds = np.zeros(kernel.num_static_stmts, dtype=bool)
        for sid, (dest, srcs) in self._deps.items():
            self._feeds[sid] = dest is not None or bool(srcs)
        # Tracker contribution per distinct stream, and ILP per distinct
        # window, keyed by their int64 sid bytes.
        self._contribs: Dict[bytes, tuple] = {}
        self._windows: Dict[bytes, float] = {}

    def consume(self, batch):
        # Each block's stream is the feeding sid column restricted to the
        # events it takes part in.  Streams repeat across blocks, so the
        # per-stream contribution cache does the heavy lifting; contributions
        # are added block by block.
        ins = batch.instr
        feeding = self._feeds[ins.sid]
        sids = ins.sid[feeding]
        if not sids.size:
            return
        slots = ins.slot[feeding]
        takes_part = ins.lanes.T > 0  # (P, S)
        contribs = self._contribs
        for i in range(len(batch)):
            stream = sids[takes_part[i][slots]]
            if stream.size == 0:
                continue
            key = stream.tobytes()
            contrib = contribs.get(key)
            if contrib is None:
                contrib = contribs[key] = self._contribution(stream)
            self._bank.add_contribution(contrib)

    def _contribution(self, stream: np.ndarray) -> tuple:
        """One block's tracker contribution, window by window.

        A tracker clears its depth table at every window close, so a
        window's ILP depends only on that window's sids and is cached; the
        windows' values are summed in window order as the tracker adds them.
        """
        out = []
        for width in self._bank.trackers:
            ilp_sum = 0.0
            nwin = 0
            for w0 in range(0, stream.size, width):
                win = stream[w0 : w0 + width]
                key = win.tobytes()
                value = self._windows.get(key)
                if value is None:
                    value = self._windows[key] = window_ilp(
                        [self._deps[sid] for sid in win.tolist()]
                    )
                ilp_sum += value
                nwin += 1
            out.append((ilp_sum, nwin, stream.size))
        return tuple(out)

    def end_kernel(self, profile):
        profile.ilp = self._bank.results()
        self._bank = None
