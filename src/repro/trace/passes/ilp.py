"""Windowed instruction-level-parallelism pass.

ILP is windowed over the per-block register-dependence stream, which is a
pure function of the executed sid sequence.  Blocks of one launch usually
replay the same sequence, so sids are buffered per block and each distinct
stream's tracker contribution is cached (barriers/branches carry no regs
and are skipped from the stream).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simt.ir import Atomic, Instr, Load, Reg, Stmt
from repro.trace.ilp import IlpTrackerBank
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
        # Per-launch cache of _reg_deps(stmt) keyed by static statement id
        # (one kernel at a time, so sids are unambiguous within a launch).
        self._deps: Dict[int, Tuple[Optional[str], List[str]]] = {}
        self._feeds: Dict[int, bool] = {}
        # Tracker contribution per distinct stream, keyed by its int64 bytes.
        self._contribs: Dict[bytes, tuple] = {}

    def consume(self, batch):
        # One participation matrix over the feeding events gives each
        # block's sid stream in a single fancy-index; streams repeat across
        # blocks, so the per-stream tracker contribution cache (keyed by
        # the stream's int64 bytes) does the heavy lifting.
        sids: List[int] = []
        lane_cols = []
        feeds_cache = self._feeds
        deps_cache = self._deps
        for ev in batch.events:
            if ev[0] != "instr":
                continue
            stmt = ev[1]
            feeds = feeds_cache.get(stmt.sid)
            if feeds is None:
                deps = _reg_deps(stmt)
                deps_cache[stmt.sid] = deps
                feeds = deps[0] is not None or bool(deps[1])
                feeds_cache[stmt.sid] = feeds
            if feeds:
                sids.append(stmt.sid)
                lane_cols.append(ev[3])
        if not sids:
            return
        sid_arr = np.array(sids, dtype=np.int64)
        part = np.stack(lane_cols, axis=1) > 0  # (P, events)
        contribs = self._contribs
        for i in range(len(batch.block_ids)):
            stream = sid_arr[part[i]]
            if stream.size == 0:
                continue
            key = stream.tobytes()
            contrib = contribs.get(key)
            if contrib is None:
                bank = IlpTrackerBank(self.config.ilp_windows)
                deps = deps_cache
                for sid in stream:
                    dest, srcs = deps[sid]
                    bank.note(dest, srcs)
                bank.flush()
                contrib = bank.contribution()
                contribs[key] = contrib
            self._bank.add_contribution(contrib)

    def end_kernel(self, profile):
        profile.ilp = self._bank.results()
        self._bank = None
