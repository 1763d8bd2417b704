"""Compiled kernel dispatch and block-batched SIMT execution.

Three mechanisms accelerate kernel launches beyond the statement
interpreter in :mod:`repro.simt.executor`:

* **Generated kernel bodies** — on first use the kernel body is written,
  per observation hook set, as the source of one Python function and built
  with ``compile()`` (:class:`_Generator`): registers become locals,
  ``If``/``While`` become Python ``if``/``while`` over lane masks, operands
  are resolved to locals, literals or parameters, and unsubscribed hooks
  are simply not written.  No array is changed in place: a register write
  under the batch's full mask, or to a run-local temporary
  (:func:`_run_local_temps`), binds its result, and any other write
  becomes ``np.where(act, result, cur)``.  The observed body notes each
  straight-line run's instruction events with one
  :meth:`~repro.simt.events.EventRecorder.instr_run` call.  Bodies are
  cached on the :class:`CompiledKernel`, itself cached on the
  :class:`~repro.simt.ir.Kernel`, so repeated launches write nothing.

* **Block batching** — independent blocks are stacked into a single state
  of ``K * npad`` lanes (per-block ``%ctaid``/``%tid`` vectors, and a
  :class:`~repro.simt.memory.SharedMemory` with one row per block in each
  shared array), amortising every numpy operation across K blocks.
  Profiled blocks batch exactly like silent ones: a batch
  containing profiled blocks runs the observed body with an
  :class:`~repro.simt.events.EventRecorder` of its own capturing per-kind
  columnar buffers.  Consecutive observed batches that recorded the same
  code lists merge into one recording, up to :func:`lane_budget_cap`
  profiled blocks, which is delivered to sinks as one ``on_batch`` call
  (:func:`run_compiled_launch`).  Load and store sites skip compacting
  their lanes when the mask holds every lane of the batch
  (:func:`_load`, :func:`_store`).  Atomic lane
  serialisation is defined in launch order, which stacking reorders, so
  atomics pin their launch unless they commute: integer ADD/MIN/MAX whose
  old values nobody reads, on buffers nothing else in the launch touches
  (:func:`_atomics_commute`).  Those give the same final memory in any
  lane order and leave the hazard test and the footprint analysis.

* **Batch planning** — lockstep program order lets an earlier block's
  later memory operation land after a later block's earlier one, so
  launches with a cross-block memory hazard — a global load that can
  observe a buffer the same launch stores to, two store sites that can hit
  one buffer, or a store inside a loop (detected by a static base-pointer
  dataflow resolved against the bound buffers, see :func:`_batch_hazard`)
  — cannot batch blindly.  Instead of pinning every such launch to one
  block per batch, :func:`plan_batches` refines the boolean hazard into
  three tiers backed by :mod:`repro.simt.footprint`.  The footprint
  analysis sees every store site but only the load sites that can read a
  stored buffer (:func:`_colliding_loads`); both it and the hazard test
  rest on one rule: a loaded value never carries a buffer's base, and an
  address derived from a buffer's base stays in that buffer.

  ========================  ==================================================
  tier                      meaning
  ========================  ==================================================
  ``clear``                 no hazard; batch to the lane-budget cap
  ``symbolic_clear``        hazard flagged, but the affine address analysis
                            proves no two blocks can touch a common byte —
                            batch to the cap (the TR/STEN tile shape)
  ``footprint_grouped``     affine but not provably disjoint; blocks are
                            greedily grouped into contiguous runs whose
                            concrete per-block write footprints (exact byte
                            sets where enumerable, else intervals) stay
                            disjoint from each other and from the runs' reads
  ``pinned``                non-commuting atomics, a non-affine store or
                            colliding load address, or genuinely overlapping
                            footprints — one block per batch
  ========================  ==================================================

Blocks are stacked in ascending linear order and batches always cover
contiguous runs of linear block ids, so numpy's highest-lane-wins scatter
resolution reproduces the interpreter's last-block-wins outcome for
conflicting stores within one statement, and cross-batch conflicts resolve
in sequential block order.
"""

from __future__ import annotations

import math
import re
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.simt import footprint
from repro.simt.classify import COMMUTING_ATOMICS
from repro.simt.errors import ExecutionError
from repro.simt.events import (
    BRANCH_KIND_CODE,
    CATEGORY_CODE,
    MEM_KIND_CODE,
    SPACE_CODE,
    EventRecorder,
)
from repro.simt.ir import (
    Atomic,
    AtomicOp,
    Barrier,
    If,
    Imm,
    Instr,
    Kernel,
    Load,
    MemSpace,
    Op,
    OpCategory,
    ParamRef,
    Reg,
    Return,
    Stmt,
    Store,
    While,
    op_category,
    read_regs,
    stmt_regs,
    walk_stmts,
)
from repro.simt.memory import SharedMemory
from repro.simt.types import WARP_SIZE, DType

#: Lane budget per silent batch: K is chosen so ``K * npad`` stays near this.
TARGET_BATCH_LANES = 8192

#: Hard cap on blocks per batch regardless of block size.
MAX_BATCH_BLOCKS = 256


def lane_budget_cap(npad: int) -> int:
    """Blocks of ``npad`` lanes a batch may stack: the lane budget, within
    ``[1, MAX_BATCH_BLOCKS]``.  Also the most profiled blocks one delivered
    event batch holds."""
    return max(1, min(MAX_BATCH_BLOCKS, TARGET_BATCH_LANES // npad))

#: ``(op, dtype)`` of the atomics that may batch (integer ADD/MIN/MAX),
#: the classifier's commuting set; its own name so a verify plant can widen
#: the planner's copy alone.
_COMMUTING_ATOMICS = COMMUTING_ATOMICS

_SREG_NAMES = frozenset(
    (
        "%tid.x",
        "%tid.y",
        "%ctaid.x",
        "%ctaid.y",
        "%ntid.x",
        "%ntid.y",
        "%nctaid.x",
        "%nctaid.y",
    )
)


def _trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style (truncating) integer division, as CUDA defines it."""
    q = np.abs(a) // np.abs(b)
    return np.where((a < 0) ^ (b < 0), -q, q)


def _trunc_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a - _trunc_div(a, b) * b


def _i2f(a):
    return a.astype(np.float64) if isinstance(a, np.ndarray) else float(a)


def _f2i(a):
    return np.trunc(a).astype(np.int64) if isinstance(a, np.ndarray) else int(a)


#: Globals of the generated kernel bodies and of the op expressions.
_NAMESPACE = {
    "_minimum": np.minimum,
    "_maximum": np.maximum,
    "_abs": np.abs,
    "_floor": np.floor,
    "_sqrt": np.sqrt,
    "_exp": np.exp,
    "_log": np.log,
    "_sin": np.sin,
    "_cos": np.cos,
    "_power": np.power,
    "_where": np.where,
    "_zeros": np.zeros,
    "_full": np.full,
    "_i2f": _i2f,
    "_f2i": _f2i,
    "_trunc_div": _trunc_div,
    "_trunc_mod": _trunc_mod,
    "_AtomicOp": AtomicOp,
    "_i64": np.dtype(np.int64),
    "_f64": np.dtype(np.float64),
    "_bool": np.dtype(np.bool_),
}
_DTYPE_NAME = {_NAMESPACE[n]: n for n in ("_i64", "_f64", "_bool")}
_I64 = _NAMESPACE["_i64"]

#: Every scalar op but IDIV/IMOD as a Python expression over its operands
#: ``{0}``, ``{1}``, ``{2}``, each used once.  The generator inlines these
#: into kernel bodies and :data:`_OP_FUNCS` wraps them as functions for the
#: interpreter and the reference engine, so each op is defined once.
_OP_EXPR = {
    Op.IADD: "{0} + {1}",
    Op.ISUB: "{0} - {1}",
    Op.IMUL: "{0} * {1}",
    Op.IMIN: "_minimum({0}, {1})",
    Op.IMAX: "_maximum({0}, {1})",
    Op.INEG: "-{0}",
    Op.IABS: "_abs({0})",
    Op.IAND: "{0} & {1}",
    Op.IOR: "{0} | {1}",
    Op.IXOR: "{0} ^ {1}",
    Op.ISHL: "{0} << {1}",
    Op.ISHR: "{0} >> {1}",
    Op.FADD: "{0} + {1}",
    Op.FSUB: "{0} - {1}",
    Op.FMUL: "{0} * {1}",
    Op.FDIV: "{0} / {1}",
    Op.FNEG: "-{0}",
    Op.FABS: "_abs({0})",
    Op.FMIN: "_minimum({0}, {1})",
    Op.FMAX: "_maximum({0}, {1})",
    Op.FMA: "{0} * {1} + {2}",
    Op.FFLOOR: "_floor({0})",
    Op.FSQRT: "_sqrt({0})",
    Op.FEXP: "_exp({0})",
    Op.FLOG: "_log({0})",
    Op.FSIN: "_sin({0})",
    Op.FCOS: "_cos({0})",
    Op.FRCP: "1.0 / {0}",
    Op.FPOW: "_power({0}, {1})",
    Op.ILT: "{0} < {1}",
    Op.ILE: "{0} <= {1}",
    Op.IGT: "{0} > {1}",
    Op.IGE: "{0} >= {1}",
    Op.IEQ: "{0} == {1}",
    Op.INE: "{0} != {1}",
    Op.FLT: "{0} < {1}",
    Op.FLE: "{0} <= {1}",
    Op.FGT: "{0} > {1}",
    Op.FGE: "{0} >= {1}",
    Op.FEQ: "{0} == {1}",
    Op.FNE: "{0} != {1}",
    Op.PAND: "{0} & {1}",
    Op.POR: "{0} | {1}",
    Op.PNOT: "~{0}",
    Op.MOV: "{0}",
    Op.SEL: "_where({0}, {1}, {2})",
    Op.I2F: "_i2f({0})",
    Op.F2I: "_f2i({0})",
}

_OP_FUNCS = {
    op: eval(  # the fixed templates above, nothing from outside
        "lambda {}: {}".format(", ".join("abc"[: expr.count("{")]), expr.format("a", "b", "c")),
        _NAMESPACE,
    )
    for op, expr in _OP_EXPR.items()
}

_LOAD_CATEGORY = {
    MemSpace.SHARED: OpCategory.LOAD_SHARED,
    MemSpace.CONST: OpCategory.LOAD_CONST,
    MemSpace.TEXTURE: OpCategory.LOAD_TEXTURE,
    MemSpace.GLOBAL: OpCategory.LOAD_GLOBAL,
}
#: Recorder codes of the control-flow events.
_BRANCH_CODE = CATEGORY_CODE[OpCategory.BRANCH]
_BARRIER_CODE = CATEGORY_CODE[OpCategory.BARRIER]
_IF = BRANCH_KIND_CODE["if"]
_LOOP = BRANCH_KIND_CODE["loop"]


class _RunState:
    """Lane state for one batch of blocks, read by the generated body.

    ``regs`` holds the special registers' lane arrays by slot (every other
    register lives in a local of the generated function).  ``shared`` is
    the batch's :class:`~repro.simt.memory.SharedMemory`, addressed by the
    ``lane_block`` rows.  ``recorder`` is the batch's
    :class:`~repro.simt.events.EventRecorder` when it contains profiled
    blocks; only an observed body, which records into it, runs with one
    installed.
    """

    __slots__ = (
        "device",
        "params",
        "nblk",
        "npad",
        "nlanes",
        "regs",
        "returned",
        "block_mask",
        "lane_block",
        "shared",
        "recorder",
    )


# ----------------------------------------------------------------------
# Kernel body generation
# ----------------------------------------------------------------------

#: Nesting one generated function may reach before a statement list moves
#: into a function of its own: CPython allows 20 nested loops in one
#: function and 100 indentation levels.
_MAX_LOOPS = 8
_MAX_DEPTH = 40

_NAME = re.compile(r"[A-Za-z_]\w*")

#: State a generated function binds when its body uses the name.
_PROLOGUE = (
    "n = st.nlanes",
    "ret = st.returned",
    "dev = st.device",
    "sh = st.shared",
    "lb = st.lane_block",
    "rec_instr_run = st.recorder.instr_run",
    "rec_mem = st.recorder.mem",
    "rec_branch = st.recorder.branch",
)


def _undefined(kname: str, name: str) -> None:
    raise ExecutionError(
        f"kernel {kname!r}: register {name!r} read before any write reached it"
    )


def _divide(div, num, den, act: np.ndarray, kname: str, sid: int):
    """``div`` (the truncating quotient or remainder), faulting when an
    active lane divides by zero."""
    divisor = np.asarray(den)
    bad = (divisor == 0) if divisor.ndim == 0 else (divisor == 0) & act
    if np.any(bad):
        raise ExecutionError(f"kernel {kname!r}: integer division by zero (sid={sid})")
    return div(np.asarray(num), np.where(divisor == 0, 1, den))


def _spread(n: int, act: np.ndarray, values, dtype: np.dtype) -> np.ndarray:
    """``values`` (one per active lane, or a scalar) on the active lanes of
    ``n`` lanes of ``dtype``, 0 elsewhere."""
    out = np.zeros(n, dtype=dtype)
    out[act] = values
    return out


def _merge(cur: np.ndarray, act: np.ndarray, values) -> np.ndarray:
    """A copy of ``cur`` with ``values`` written to its active lanes."""
    out = cur.copy()
    out[act] = values
    return out


def _load(mem, act: np.ndarray, addr: np.ndarray, esize: int, dtype: np.dtype, cur=None,
          rows=None, via=None) -> np.ndarray:
    """A load site's new register value.

    ``mem`` (the device, or the batch's shared memory with the lanes' block
    ``rows``) is read at ``addr`` on ``act``'s lanes, cast through the
    statement's dtype ``via`` (when it is not the register's) to the
    register's ``dtype``.  The other lanes keep ``cur``, or hold 0 when the
    write binds (``cur`` is None).  When ``act`` holds every lane of the
    array, which it never does where there are padding lanes, every address
    is read with no compaction and the result is bound whole.
    """
    full = act.all()
    if not full:
        addr = addr[act]
        if rows is not None:
            rows = rows[act]
    values = mem.gather(addr, esize) if rows is None else mem.gather(addr, rows, esize)
    if via is not None:
        values = values.astype(via)
    if full:
        return values.astype(dtype, copy=False)
    if cur is None:
        return _spread(len(act), act, values, dtype)
    return _merge(cur, act, values)


def _store(mem, act: np.ndarray, addr: np.ndarray, values: np.ndarray, esize: int,
           rows=None) -> None:
    """A store site: ``values`` to ``mem`` at ``addr`` on ``act``'s lanes
    (as :func:`_load` takes ``mem`` and ``rows``), with no compaction when
    ``act`` holds every lane of the array."""
    if not act.all():
        addr, values = addr[act], values[act]
        if rows is not None:
            rows = rows[act]
    if rows is None:
        mem.scatter(addr, values, esize)
    else:
        mem.scatter(addr, rows, values, esize)


def _barrier(st: _RunState, act: np.ndarray, kname: str, sid: int) -> None:
    expected = st.block_mask & ~st.returned
    if st.nblk > 1:
        # A barrier synchronizes within one block.  Batched blocks reach it
        # on different loop iterations, so a block with no active lanes here
        # simply isn't executing this statement (it would not have run it in
        # single-block execution); only blocks that arrive are held to the
        # all-lanes-present rule.
        act = act.reshape(st.nblk, st.npad)
        here = act.any(axis=1)
        act, expected = act[here], expected.reshape(st.nblk, st.npad)[here]
    if not np.array_equal(act, expected):
        raise ExecutionError(
            f"kernel {kname!r}: divergent barrier (sid={sid}); "
            "some non-retired lanes did not reach __syncthreads"
        )


_NAMESPACE.update(
    _undefined=_undefined,
    _divide=_divide,
    _spread=_spread,
    _merge=_merge,
    _load=_load,
    _store=_store,
    _barrier=_barrier,
)


def _contains_return(stmt: Stmt) -> bool:
    if isinstance(stmt, Return):
        return True
    if isinstance(stmt, If):
        return any(map(_contains_return, stmt.then_body)) or any(
            map(_contains_return, stmt.else_body)
        )
    if isinstance(stmt, While):
        return any(map(_contains_return, stmt.cond_body)) or any(
            map(_contains_return, stmt.body)
        )
    return False


def _run_local_temps(body: List[Stmt]) -> FrozenSet[int]:
    """The ``sid`` of every statement whose result is a run-local temporary.

    Its destination register has one static definition, and every read of
    it comes later in the statement list holding that definition (nested in
    a later statement included) or is the condition of the loop whose
    condition block that list is.  Each read then runs after the
    definition under a subset of its lanes, so no lane outside them ever
    reads the value: the result can be bound whole.
    """
    defs: Dict[str, List[Tuple[int, int, int]]] = {}
    reads: Dict[str, List[Dict[int, int]]] = {}

    def visit(stmts: List[Stmt], path: Dict[int, int]) -> None:
        # ``path`` maps each enclosing list to the position in it.
        key = id(stmts)
        for i, stmt in enumerate(stmts):
            here = {**path, key: i}
            dest, srcs = stmt_regs(stmt)
            at = here
            if isinstance(stmt, While):
                # The loop reads its condition after its condition block.
                at = {**here, id(stmt.cond_body): len(stmt.cond_body)}
            for name in srcs:
                reads.setdefault(name, []).append(at)
            if dest is not None:
                defs.setdefault(dest, []).append((key, i, stmt.sid))
            if isinstance(stmt, If):
                visit(stmt.then_body, here)
                visit(stmt.else_body, here)
            elif isinstance(stmt, While):
                visit(stmt.cond_body, here)
                visit(stmt.body, here)

    visit(body, {})
    return frozenset(
        sites[0][2]
        for name, sites in defs.items()
        if len(sites) == 1
        and all(at.get(sites[0][0], -1) > sites[0][1] for at in reads.get(name, ()))
    )


class _Fn:
    """Source lines of one generated function."""

    __slots__ = ("lines", "depth", "loops")

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 1
        self.loops = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)


class _Generator:
    """Writes one kernel body, observing one hook set, as Python source.

    The body becomes ``run(state, act)``: registers are locals ``r<slot>``,
    ``If``/``While`` become Python ``if``/``while`` over lane masks, and
    each statement becomes inline numpy code.  No array is changed in
    place.  A write binds its result when ``act`` holds every live lane or
    the register is a run-local temporary (:func:`_run_local_temps`); any
    other write merges into a new array.  A statement list nested deeper
    than :data:`_MAX_DEPTH` or :data:`_MAX_LOOPS` allows moves into a
    function of its own, which takes and returns the registers it touches
    (:meth:`outline`).
    """

    def __init__(self, ck: "CompiledKernel", hooks: frozenset) -> None:
        self.ck = ck
        self.kname = repr(ck.kernel.name)
        self.instr = "instr" in hooks
        self.mem = "mem" in hooks
        self.branch = "branch" in hooks
        self.temps = _run_local_temps(ck.kernel.body)
        self.ns = dict(_NAMESPACE)
        self.sources: List[str] = []
        #: Registers that may be read while unbound: the body starts them
        #: at ``None``.
        self.unbound: set = set()

    def build(self) -> Callable:
        fn = _Fn()
        self.block(fn, self.ck.kernel.body, "act", True, {name for name, _ in self.ck.sreg_slots})
        sregs = [slot for _, slot in sorted(self.ck.sreg_slots, key=lambda s: s[1])]
        head = [f"r{slot} = st.regs[{slot}]" for slot in sregs]
        unbound = sorted(self.unbound, key=self.ck.slot_of.get)
        if unbound:
            head.append(" = ".join(f"r{self.ck.slot_of[name]}" for name in unbound) + " = None")
        self.define("run", fn, (), head)
        source = "\n\n".join(self.sources)
        exec(compile(source, f"<kernel {self.ck.kernel.name}>", "exec"), self.ns)
        return self.ns["run"]

    def define(self, name: str, fn: _Fn, regs: Sequence[str], head: Sequence[str] = (),
               returns: Sequence[str] = ()) -> None:
        """Add ``fn`` as function ``name(st, act, *regs)``; its prologue binds
        the state it uses, then ``head``."""
        if returns:
            fn.emit(f"return {', '.join(returns)},")
        used = set(_NAME.findall("\n".join(fn.lines)))
        prologue = [line for line in _PROLOGUE if line.split(" ", 1)[0] in used]
        prologue += [f"p{i} = st.params[{i}]" for i in range(len(self.ck.kernel.params))
                     if f"p{i}" in used]
        args = "".join(f", {r}" for r in regs)
        self.sources.append("\n".join(
            [f"def {name}(st, act{args}):"]
            + ["    " + line for line in prologue + [h for h in head if h.split(" ", 1)[0] in used]]
            + fn.lines
        ))

    def outline(self, fn: _Fn, stmts: List[Stmt], act: str, full: bool, defined: set,
                tail: Tuple[int, ...] = ()) -> set:
        """Emit ``stmts`` as a call to a function of their own."""
        slot_of = self.ck.slot_of
        touched, written = set(), set()
        for stmt in walk_stmts(stmts):
            dest, srcs = stmt_regs(stmt)
            touched.update(srcs)
            if dest is not None:
                touched.add(dest)
                written.add(dest)
        self.unbound.update(touched - defined)
        regs = [f"r{slot_of[name]}" for name in sorted(touched, key=slot_of.get)]
        returns = [f"r{slot_of[name]}" for name in sorted(written, key=slot_of.get)]
        sub = _Fn()
        defined = self.block(sub, stmts, "act", full, defined, tail)
        name = f"_part{len(self.sources)}"
        self.define(name, sub, regs, returns=returns)
        call = f"{name}(st, {act}{''.join(', ' + r for r in regs)})"
        fn.emit(f"{', '.join(returns)}, = {call}" if returns else call)
        return defined

    def block(self, fn: _Fn, stmts: List[Stmt], act: str, full: bool, defined: set,
              tail: Tuple[int, ...] = ()) -> set:
        """Emit ``stmts`` under the lane mask named ``act``, which is
        non-empty and holds no retired lane.  ``full`` says ``act`` holds
        every live lane of the batch; ``defined`` names the registers
        certainly bound, and ``tail`` the instruction events to note after
        the last run.  Returns the registers certainly bound once the list
        has run."""
        if fn.depth > _MAX_DEPTH:
            return self.outline(fn, stmts, act, full, defined, tail)
        defined = set(defined)
        start = len(fn.lines)
        run: List[int] = []
        for i, stmt in enumerate(stmts):
            kind = type(stmt)
            if kind is Return:
                run += (stmt.sid, _BRANCH_CODE)
                self.flush(fn, run, act)
                fn.emit(f"ret |= {act}")
                # Every lane of ``act`` has retired: the rest never runs.
                return defined
            if kind is If:
                run += (stmt.sid, _BRANCH_CODE)
                self.flush(fn, run, act)
                defined = self.if_(fn, stmt, act, defined)
            elif kind is While:
                self.flush(fn, run, act)
                if fn.loops >= _MAX_LOOPS:
                    defined = self.outline(fn, [stmt], act, full, defined)
                else:
                    defined = self.while_(fn, stmt, act, defined)
            else:
                bind = full or stmt.sid in self.temps
                run += (stmt.sid, self.simple(fn, stmt, act, bind, defined))
            if i + 1 < len(stmts) and _contains_return(stmt):
                # Lanes may have retired: the rest runs on those left.
                self.flush(fn, run, act)
                live = f"a{stmt.sid}"
                fn.emit(f"{live} = {act} & ~ret")
                fn.emit(f"if {live}.any():")
                fn.depth += 1
                self.block(fn, stmts[i + 1:], live, full, defined, tail)
                fn.depth -= 1
                return defined
        run += tail
        self.flush(fn, run, act)
        if len(fn.lines) == start:
            fn.emit("pass")
        return defined

    def flush(self, fn: _Fn, run: List[int], act: str) -> None:
        """Note the pending run's instruction events, one call per run."""
        if run and self.instr:
            # A global, not a literal: long literal tuples slow compile().
            name = f"_run{len(self.ns)}"
            self.ns[name] = tuple(run)
            fn.emit(f"rec_instr_run({name}, {act})")
        run.clear()

    def if_(self, fn: _Fn, stmt: If, act: str, defined: set) -> set:
        sid = stmt.sid
        cond = self.read(fn, stmt.cond, defined)
        if stmt.else_body:
            # The else mask needs the condition as it was on entry.
            fn.emit(f"c{sid} = {cond}")
            cond = f"c{sid}"
        taken = f"t{sid}"
        fn.emit(f"{taken} = {act} & {cond}")
        if self.branch:
            fn.emit(f"rec_branch({sid}, {_IF}, {act}, {taken})")
        fn.emit(f"if {taken}.any():")
        fn.depth += 1
        then = self.block(fn, stmt.then_body, taken, False, defined)
        fn.depth -= 1
        if not stmt.else_body:
            return defined
        other = f"f{sid}"
        fn.emit(f"{other} = {act} & ~{cond} & ~ret")
        fn.emit(f"if {other}.any():")
        fn.depth += 1
        orelse = self.block(fn, stmt.else_body, other, False, defined)
        fn.depth -= 1
        # Lanes reaching the If take one list or the other: one of them runs.
        return defined | (then & orelse)

    def while_(self, fn: _Fn, stmt: While, act: str, defined: set) -> set:
        sid = stmt.sid
        live = f"l{sid}"
        header = (sid, _BRANCH_CODE)
        cond_returns = any(map(_contains_return, stmt.cond_body))
        fn.emit(f"{live} = {act}")
        fn.emit("while True:")
        fn.depth += 1
        fn.loops += 1
        # The condition block runs at least once, the body maybe never.
        defined = self.block(
            fn, stmt.cond_body, live, False, defined, () if cond_returns else header
        )
        if cond_returns:
            self.retire(fn, live)
            self.flush(fn, list(header), live)
        cond = self.read(fn, stmt.cond, defined)
        if self.branch:
            fn.emit(f"s{sid} = {live} & {cond}")
            fn.emit(f"rec_branch({sid}, {_LOOP}, {live}, s{sid})")
            fn.emit(f"{live} = s{sid}")
        else:
            fn.emit(f"{live} = {live} & {cond}")
        fn.emit(f"if not {live}.any():")
        fn.emit("    break")
        self.block(fn, stmt.body, live, False, defined)
        if any(map(_contains_return, stmt.body)):
            self.retire(fn, live)
        fn.depth -= 1
        fn.loops -= 1
        return defined

    @staticmethod
    def retire(fn: _Fn, live: str) -> None:
        fn.emit(f"{live} = {live} & ~ret")
        fn.emit(f"if not {live}.any():")
        fn.emit("    break")

    # -- operands and register writes ------------------------------------

    def reg(self, reg: Reg) -> str:
        return f"r{self.ck.slot_of[reg.name]}"

    def read(self, fn: _Fn, reg: Reg, defined: set) -> str:
        """A register read, checked where no write certainly precedes it."""
        name = self.reg(reg)
        if reg.name not in defined:
            fn.emit(f"if {name} is None: _undefined({self.kname}, {reg.name!r})")
            self.unbound.add(reg.name)
            defined.add(reg.name)
        return name

    def operand(self, fn: _Fn, op, defined: set) -> str:
        if isinstance(op, Reg):
            return self.read(fn, op, defined)
        if isinstance(op, Imm):
            value = op.value
            if type(value) in (bool, int) or (type(value) is float and math.isfinite(value)):
                return repr(value) if value >= 0 else f"({value!r})"
            name = f"_imm{len(self.ns)}"
            self.ns[name] = value
            return name
        return f"p{self.ck.param_index[op.name]}"

    def lanes(self, fn: _Fn, op, defined: set, name: str, dtype: np.dtype,
              convert: str = "{}") -> str:
        """A full-width lane array of ``op``: a register already is one, any
        other operand fills ``name``."""
        if isinstance(op, Reg):
            return self.read(fn, op, defined)
        value = convert.format(self.operand(fn, op, defined))
        fn.emit(f"{name} = _full(n, {value}, {_DTYPE_NAME[dtype]})")
        return name

    def current(self, fn: _Fn, dest: Reg, defined: set) -> str:
        """The register a merge writes into, 0 on every lane if unbound."""
        r = self.reg(dest)
        if dest.name not in defined:
            fn.emit(f"if {r} is None: {r} = _zeros(n, {_DTYPE_NAME[dest.dtype.numpy_dtype]})")
            self.unbound.add(dest.name)
        return r

    def write(self, fn: _Fn, dest: Reg, expr: str, act: str, bind: bool, defined: set) -> None:
        """Write ``expr``, a lane array, cast to the register's dtype (no copy
        where numpy already typed it so)."""
        expr = f"({expr}).astype({_DTYPE_NAME[dest.dtype.numpy_dtype]}, copy=False)"
        if bind:
            fn.emit(f"{self.reg(dest)} = {expr}")
        else:
            r = self.current(fn, dest, defined)
            fn.emit(f"{r} = _where({act}, {expr}, {r})")
        defined.add(dest.name)

    def write_active(self, fn: _Fn, dest: Reg, value: str, act: str, bind: bool,
                     defined: set) -> None:
        """Write ``value``, one per active lane or a scalar."""
        if bind:
            dt = _DTYPE_NAME[dest.dtype.numpy_dtype]
            fn.emit(f"{self.reg(dest)} = _spread(n, {act}, {value}, {dt})")
        else:
            r = self.current(fn, dest, defined)
            fn.emit(f"{r} = _merge({r}, {act}, {value})")
        defined.add(dest.name)

    # -- straight-line statements ----------------------------------------

    def barrier(self, fn: _Fn, stmt: Barrier, act: str) -> int:
        fn.emit(f"_barrier(st, {act}, {self.kname}, {stmt.sid})")
        return _BARRIER_CODE

    def simple(self, fn: _Fn, stmt: Stmt, act: str, bind: bool, defined: set) -> int:
        """Emit one straight-line statement; returns its category code."""
        sid = stmt.sid
        if isinstance(stmt, Instr):
            args = [self.operand(fn, src, defined) for src in stmt.srcs]
            if stmt.op in (Op.IDIV, Op.IMOD):
                div = "_trunc_div" if stmt.op is Op.IDIV else "_trunc_mod"
                expr = f"_divide({div}, {args[0]}, {args[1]}, {act}, {self.kname}, {sid})"
            else:
                expr = _OP_EXPR[stmt.op].format(*args)
            if any(isinstance(src, Reg) for src in stmt.srcs):
                self.write(fn, stmt.dest, expr, act, bind, defined)
            else:
                self.write_active(fn, stmt.dest, expr, act, bind, defined)
            return CATEGORY_CODE[op_category(stmt.op)]
        if isinstance(stmt, Barrier):
            return self.barrier(fn, stmt, act)
        esize = stmt.dtype.element_size
        dtype = stmt.dtype.numpy_dtype
        addr = self.lanes(fn, stmt.addr, defined, f"x{sid}", _I64, "int({})")
        if isinstance(stmt, Load):
            space, kind, category = stmt.space, "load", _LOAD_CATEGORY[stmt.space]
        elif isinstance(stmt, Store):
            space, kind = stmt.space, "store"
            category = OpCategory.STORE_SHARED if space is MemSpace.SHARED else OpCategory.STORE_GLOBAL
            value = self.lanes(fn, stmt.value, defined, f"v{sid}", dtype)
        else:
            space, kind, category = MemSpace.GLOBAL, "atomic", OpCategory.ATOMIC
            value = self.lanes(fn, stmt.value, defined, f"v{sid}", dtype)
            compare = "None"
            if stmt.compare is not None:
                compare = self.lanes(fn, stmt.compare, defined, f"w{sid}", dtype) + f"[{act}]"
        # The event comes first: a load may overwrite its own address register.
        if self.mem:
            fn.emit(
                f"rec_mem({sid}, {SPACE_CODE[space]}, {MEM_KIND_CODE[kind]}, {esize}, "
                f"{addr}, {act})"
            )
        # Shared memory is per block: its calls also take the lanes' block rows.
        shared = space is MemSpace.SHARED
        target = "sh" if shared else "dev"
        if kind == "store":
            fn.emit(f"_store({target}, {act}, {addr}, {value}, {esize}{', lb' if shared else ''})")
            return CATEGORY_CODE[category]
        if kind == "load":
            dest, dt = stmt.dest, stmt.dest.dtype.numpy_dtype
            args = [target, act, addr, str(esize), _DTYPE_NAME[dt],
                    "None" if bind else self.current(fn, dest, defined),
                    "lb" if shared else "None", "None" if dtype == dt else _DTYPE_NAME[dtype]]
            while args[-1] == "None":
                args.pop()  # _load's defaults
            fn.emit(f"{self.reg(dest)} = _load({', '.join(args)})")
            defined.add(dest.name)
            return CATEGORY_CODE[category]
        # An old value no statement reads is never materialised: the device
        # then applies ADD/MIN/MAX in one index-ordered ufunc pass.
        keep = stmt.dest is not None and stmt.dest.name in self.ck.reads
        expr = (
            f"dev.atomic_update({addr}[{act}], {value}[{act}], _AtomicOp.{stmt.op.name}, "
            f"{esize}, compare={compare}, need_old={keep})"
        )
        if not keep:
            fn.emit(expr)
            return CATEGORY_CODE[category]
        if dtype != stmt.dest.dtype.numpy_dtype:
            # Through the statement's own dtype first, as the old values and
            # loaded elements always went.
            expr = f"{expr}.astype({_DTYPE_NAME[dtype]})"
        self.write_active(fn, stmt.dest, expr, act, bind, defined)
        return CATEGORY_CODE[category]


# ----------------------------------------------------------------------
# Kernel compilation and the launch driver
# ----------------------------------------------------------------------


class CompiledKernel:
    """A kernel's launch-invariant analysis and its generated bodies, cached
    on the ``Kernel``."""

    __slots__ = (
        "kernel",
        "nslots",
        "slot_of",
        "param_index",
        "sreg_slots",
        "ctaid_slots",
        "reads",
        "load_sites",
        "store_sites",
        "atomic_sites",
        "run_silent",
        "_bodies",
        "plan_cache",
    )

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.param_index: Dict[str, int] = {p.name: i for i, p in enumerate(kernel.params)}
        self.slot_of: Dict[str, int] = {}
        for stmt in kernel.walk():
            dest, srcs = stmt_regs(stmt)
            for name in (dest,) + srcs if dest is not None else srcs:
                self.slot_of.setdefault(name, len(self.slot_of))
        self.nslots = len(self.slot_of)
        self.reads = read_regs(kernel.body)
        self.load_sites, self.store_sites, self.atomic_sites = _buffer_param_flow(
            kernel, self.reads
        )
        self.sreg_slots: Tuple[Tuple[str, int], ...] = tuple(
            (name, slot) for name, slot in self.slot_of.items() if name in _SREG_NAMES
        )
        self.ctaid_slots: Tuple[Tuple[str, int], ...] = tuple(
            (name, slot)
            for name, slot in self.sreg_slots
            if name in ("%ctaid.x", "%ctaid.y")
        )
        # One generated body per hook set, each written on first use: a
        # launch that only observes never writes the silent body, and a
        # mix-only run never writes the mem/branch variants.
        self._bodies: Dict[frozenset, Callable] = {}
        self.run_silent = self._run_silent
        # Batch plans keyed by (grid, block, cap, bound params): the
        # footprint analysis runs once per launch configuration, not per
        # launch (see plan_batches).
        self.plan_cache: Dict = {}

    def body(self, hooks: frozenset) -> Callable:
        """The generated body ``run(state, act)`` recording exactly
        ``hooks``, written on first request."""
        run = self._bodies.get(hooks)
        if run is None:
            run = self._bodies[hooks] = _Generator(self, hooks).build()
        return run

    def _run_silent(self, st: _RunState, act: np.ndarray) -> None:
        self.body(frozenset())(st, act)

    def observed_runner(self, hooks: frozenset) -> Callable:
        """The runner emitting exactly ``hooks``."""
        return self.body(hooks) if hooks else self.run_silent


def _buffer_param_flow(kernel: Kernel, reads: AbstractSet[str]):
    """Which buffer params each global load, store and atomic site can reach.

    A forward dataflow over register definitions: a register *derives from*
    a buffer param when the param's base pointer appears anywhere in the
    arithmetic producing it (the builder always forms addresses as
    ``ParamRef(buf) + offset``).  Loaded *values* never carry base-ness —
    buffers hold data, and the builder offers no way to use one as a base —
    so an address derived from a buffer's base stays in that buffer.  The
    ``deriv`` map is iterated to a fixpoint so loop-carried address
    registers converge; the sites are read off it afterwards.

    Returns ``(load_sites, store_sites, atomic_sites)``: ``load_sites``
    maps each global load's ``sid`` to the frozenset of param names its
    address derives from, ``store_sites`` holds one ``(params, in_loop)``
    entry per static global store site, and ``atomic_sites`` one
    ``(params, kind)`` entry per atomic site, ``kind`` being its
    ``(op, dtype)`` when that is in :data:`_COMMUTING_ATOMICS` and no
    statement reads its old value (``reads`` names every register read),
    else ``None``.  The launch driver resolves the param names through the
    actual buffer bindings, to decide whether batching this launch's
    blocks could reorder memory operations (see :func:`_atomics_commute`
    and :func:`_batch_hazard`) and which load sites the footprint analysis
    must see (see :func:`plan_batches`).
    """
    bufs = {p.name for p in kernel.params if p.is_buffer}
    deriv: Dict[str, set] = {}

    def of(op) -> set:
        if isinstance(op, ParamRef):
            return {op.name} if op.name in bufs else set()
        if isinstance(op, Reg):
            return deriv.get(op.name, set())
        return set()

    instrs = [stmt for stmt in kernel.walk() if isinstance(stmt, Instr)]
    changed = True
    while changed:
        changed = False
        for stmt in instrs:
            s: set = set()
            for src in stmt.srcs:
                s |= of(src)
            cur = deriv.setdefault(stmt.dest.name, set())
            if not s <= cur:
                cur |= s
                changed = True

    load_sites: Dict[int, frozenset] = {}
    store_sites: List[Tuple[frozenset, bool]] = []
    atomic_sites: List[Tuple[frozenset, Optional[Tuple[AtomicOp, DType]]]] = []

    def collect(stmts, in_loop: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, Load):
                if stmt.space is MemSpace.GLOBAL:
                    load_sites[stmt.sid] = frozenset(of(stmt.addr))
            elif isinstance(stmt, Store):
                if stmt.space is not MemSpace.SHARED:
                    store_sites.append((frozenset(of(stmt.addr)), in_loop))
            elif isinstance(stmt, Atomic):
                kind = (stmt.op, stmt.dtype)
                if kind not in _COMMUTING_ATOMICS or (
                    stmt.dest is not None and stmt.dest.name in reads
                ):
                    kind = None
                atomic_sites.append((frozenset(of(stmt.addr)), kind))
            elif isinstance(stmt, If):
                collect(stmt.then_body, in_loop)
                collect(stmt.else_body, in_loop)
            elif isinstance(stmt, While):
                collect(stmt.cond_body, True)
                collect(stmt.body, True)

    collect(kernel.body, False)
    return load_sites, tuple(store_sites), tuple(atomic_sites)


def _atomics_commute(ck: "CompiledKernel", params_by_name: Dict, device=None) -> bool:
    """Whether no batching order can change what this launch's atomics do.

    Every atomic site must be a commuting op (see :func:`_buffer_param_flow`)
    on buffers that nothing else in the launch touches: no load or plain
    store site, and no atomic of another op or dtype, may reach them.  Then
    the final contents of those buffers are the same in any lane order, and
    no other site can observe them part-way.  ``device``, when given, must
    hold a buffer of the atomic's own dtype at each base (an integer atomic
    on float data rounds in lane order); without it the binding is trusted
    to match the param's declared dtype.
    """
    claimed: Dict[int, Tuple[AtomicOp, DType]] = {}
    for names, kind in ck.atomic_sites:
        if kind is None or not names:
            return False
        for name in names:
            if claimed.setdefault(params_by_name[name], kind) != kind:
                return False
    if device is not None:
        dtype_at = {buf.base: buf.dtype for buf in device.buffers}
        if any(dtype_at.get(base) is not kind[1] for base, kind in claimed.items()):
            return False
    touched = {params_by_name[n] for names, _ in ck.store_sites for n in names}
    touched.update(params_by_name[n] for names in ck.load_sites.values() for n in names)
    return not touched.intersection(claimed)


def _batch_hazard(ck: "CompiledKernel", params_by_name: Dict) -> bool:
    """Whether batching blocks of this launch could change device memory.

    Batched blocks execute in lockstep program order, so a *later* block's
    store at an *earlier* program point lands before an earlier block's
    store at a later point — the reverse of sequential block order.  That
    reordering is observable exactly when

    - a global load's possible base buffers intersect any store's (a block
      could see, or miss, a same-launch neighbour's store), or
    - two distinct store sites can hit the same buffer (cross-site
      write-write collisions resolve in program-point order, not block
      order), or
    - a store site sits inside a loop (iteration *k* of a later block must
      not be overwritten by iteration *k+1* of an earlier one).

    Base sets are resolved against the actual bound buffer bases, so two
    params bound to one buffer alias correctly.  Single straight-line store
    sites are always safe: the scatter's highest-lane-wins tie-break makes
    the last block win, same as sequential order.  Atomic sites are not
    considered: :func:`plan_batches` pins every launch whose atomics do not
    commute on buffers of their own (:func:`_atomics_commute`).
    """
    base_sites = []
    for names, in_loop in ck.store_sites:
        bases = frozenset(params_by_name[n] for n in names)
        if bases and in_loop:
            return True
        base_sites.append(bases)
    if _colliding_loads(ck, params_by_name):
        return True
    seen: set = set()
    for bases in base_sites:
        if bases & seen:
            return True
        seen |= bases
    return False


def _colliding_loads(ck: "CompiledKernel", params_by_name: Dict) -> frozenset:
    """The ``sid`` of every global load that may read a buffer this launch
    stores to: its base params, resolved through the bound buffers, meet a
    store site's.  Any other load reads a buffer no block writes, so no
    batching order can change what it sees.
    """
    store_bases = {params_by_name[n] for names, _ in ck.store_sites for n in names}
    return frozenset(
        sid
        for sid, names in ck.load_sites.items()
        if any(params_by_name[n] in store_bases for n in names)
    )


class BatchPlan:
    """How one launch configuration batches its blocks.

    ``tier`` is one of ``clear`` / ``symbolic_clear`` / ``footprint_grouped``
    / ``pinned`` (see the module docstring).  ``limit`` is the maximum
    blocks per batch; ``group_of`` (grouped tier only) maps linear block id
    to a non-decreasing group id — batches never span a group boundary.
    ``pin_reason`` names why a pinned launch pinned.
    """

    __slots__ = ("tier", "limit", "group_of", "groups", "largest_group", "pin_reason")

    def __init__(self, tier, limit, group_of=None, groups=None, largest_group=None, pin_reason=None):
        self.tier = tier
        self.limit = limit
        self.group_of = group_of
        self.groups = groups
        self.largest_group = largest_group
        self.pin_reason = pin_reason


def plan_batches(
    ck: CompiledKernel,
    grid: Tuple[int, int],
    block: Tuple[int, int],
    params_by_name: Dict,
    batch_blocks: Optional[int] = None,
    device=None,
) -> BatchPlan:
    """Decide how wide this launch may batch, refining the hazard pin.

    Hazard-free launches batch to the lane-budget cap outright.  For
    hazard-flagged launches the footprint analysis runs in two layers:
    the symbolic pass first tries to prove every cross-block store-store
    and store-load pair disjoint structurally (tier ``symbolic_clear``);
    failing that, each block's concrete per-site byte footprints are
    grouped greedily into contiguous runs that no cross-block collision
    crosses (tier ``footprint_grouped``).  Only launches with
    non-commuting atomics, a non-affine address, or genuinely colliding
    footprints stay pinned at one block per batch.  Commuting atomics
    (:func:`_atomics_commute`) leave both the hazard test and the
    analysis.  The analysis sees only the load sites whose bases,
    resolved through the bound buffers, meet the launch's store bases:
    any other load reads a buffer no block of this launch writes.

    Plans are cached on ``ck.plan_cache`` per (grid, block, cap, bound
    params) — an explicit ``batch_blocks`` override adjusts the cap but
    never widens what the analysis allows.  ``device`` is the launch's
    device, used only to check the dtype of atomic target buffers.
    """
    nthreads = block[0] * block[1]
    npad = -(-nthreads // WARP_SIZE) * WARP_SIZE
    if batch_blocks is not None:
        cap = max(1, int(batch_blocks))
    else:
        cap = lane_budget_cap(npad)
    if ck.atomic_sites and not _atomics_commute(ck, params_by_name, device):
        return BatchPlan("pinned", 1, pin_reason="atomics")
    if not _batch_hazard(ck, params_by_name):
        return BatchPlan("clear", cap)
    try:
        key = (grid, block, cap, tuple(sorted(params_by_name.items())))
    except TypeError:
        key = None
    if key is not None:
        cached = ck.plan_cache.get(key)
        if cached is not None:
            return cached
    nblocks = grid[0] * grid[1]
    fp = footprint.analyze(
        ck.kernel, grid, block, params_by_name, _colliding_loads(ck, params_by_name)
    )
    if not fp.complete:
        plan = BatchPlan("pinned", 1, pin_reason="opaque-address")
    elif footprint.symbolically_disjoint(fp, grid):
        plan = BatchPlan("symbolic_clear", cap)
    else:
        extents = footprint.block_extents(fp, grid, nblocks)
        if extents is None:
            plan = BatchPlan("pinned", 1, pin_reason="opaque-address")
        else:
            group_of, groups, largest = footprint.group_blocks(extents, nblocks, cap)
            if largest <= 1:
                plan = BatchPlan("pinned", 1, pin_reason="footprint-overlap")
            else:
                plan = BatchPlan(
                    "footprint_grouped",
                    cap,
                    group_of=group_of,
                    groups=groups,
                    largest_group=largest,
                )
    if key is not None:
        ck.plan_cache[key] = plan
    return plan


def compile_kernel(kernel: Kernel) -> CompiledKernel:
    """Return the compiled form of ``kernel``, lowering it on first use."""
    ck = getattr(kernel, "_compiled_cache", None)
    if ck is None:
        ck = CompiledKernel(kernel)
        kernel._compiled_cache = ck
    return ck


def _state_template(
    ck: CompiledKernel,
    grid: Tuple[int, int],
    block: Tuple[int, int],
    nblk: int,
) -> Dict:
    """Launch-invariant state arrays for a batch width of ``nblk`` blocks.

    Everything here is read-only during execution (active masks are always
    combined into fresh arrays, sreg slots are never assigned), so one
    template is safely shared by every state of the same width in a launch.
    """
    nthreads = block[0] * block[1]
    nwarps = -(-nthreads // WARP_SIZE)
    npad = nwarps * WARP_SIZE
    nlanes = nblk * npad
    lane = np.arange(npad, dtype=np.int64)
    mask = lane < nthreads
    tmpl: Dict = {
        "block_mask": np.tile(mask, nblk) if nblk > 1 else mask,
        "lane_block": np.repeat(np.arange(nblk, dtype=np.int64), npad),
        "sregs": [],
    }
    for name, slot in ck.sreg_slots:
        if name == "%tid.x":
            v = lane % block[0]
            arr = np.tile(v, nblk) if nblk > 1 else v
        elif name == "%tid.y":
            v = np.minimum(lane // block[0], block[1] - 1)
            arr = np.tile(v, nblk) if nblk > 1 else v
        elif name == "%ntid.x":
            arr = np.full(nlanes, block[0], dtype=np.int64)
        elif name == "%ntid.y":
            arr = np.full(nlanes, block[1], dtype=np.int64)
        elif name == "%nctaid.x":
            arr = np.full(nlanes, grid[0], dtype=np.int64)
        elif name == "%nctaid.y":
            arr = np.full(nlanes, grid[1], dtype=np.int64)
        else:  # %ctaid.x / %ctaid.y depend on which blocks run: per-state.
            continue
        tmpl["sregs"].append((slot, arr))
    return tmpl


def _make_state(
    ck: CompiledKernel,
    executor,
    grid: Tuple[int, int],
    block: Tuple[int, int],
    linears: Sequence[int],
    params: List,
    templates: Optional[Dict[int, Dict]] = None,
) -> _RunState:
    """Build run state for a batch of blocks (``linears`` in ascending order)."""
    nthreads = block[0] * block[1]
    nwarps = -(-nthreads // WARP_SIZE)
    npad = nwarps * WARP_SIZE
    nblk = len(linears)
    nlanes = nblk * npad

    if templates is None:
        tmpl = _state_template(ck, grid, block, nblk)
    else:
        tmpl = templates.get(nblk)
        if tmpl is None:
            tmpl = _state_template(ck, grid, block, nblk)
            templates[nblk] = tmpl

    st = _RunState()
    st.device = executor.device
    st.params = params
    st.nblk = nblk
    st.npad = npad
    st.nlanes = nlanes
    st.regs = [None] * ck.nslots
    st.returned = np.zeros(nlanes, dtype=bool)
    st.recorder = None
    st.block_mask = tmpl["block_mask"]
    st.lane_block = tmpl["lane_block"]
    st.shared = SharedMemory(ck.kernel, nblk)
    for slot, arr in tmpl["sregs"]:
        st.regs[slot] = arr
    if ck.ctaid_slots:
        la = np.asarray(linears, dtype=np.int64)
        for name, slot in ck.ctaid_slots:
            coord = la % grid[0] if name == "%ctaid.x" else la // grid[0]
            st.regs[slot] = np.repeat(coord, npad)
    return st


def run_compiled_launch(
    executor,
    kernel: Kernel,
    grid: Tuple[int, int],
    block: Tuple[int, int],
    params_by_name: Dict,
) -> None:
    """Drive one launch through the compiled engine.

    Blocks accumulate into batches of up to ``batch_limit`` contiguous
    blocks.  A batch containing profiled blocks runs the observed body
    with an :class:`~repro.simt.events.EventRecorder` of its own capturing
    columnar buffers; purely silent batches run the silent body.  Blocks
    execute in ascending contiguous runs, preserving the interpreter's
    sequential device-memory outcome.

    Recordings are delivered to ``executor._deliver`` once per run of
    observed batches that noted the same code lists: the recorder held
    absorbs each finished one it matches
    (:meth:`~repro.simt.events.EventRecorder.absorb`), and is finished and
    delivered when one does not match, before an observed batch whose
    profiled blocks would take it past :func:`lane_budget_cap`, and at the
    end of the launch.  The batching and plan fields are filled into
    ``executor.last_launch_stats``.
    """
    ck = compile_kernel(kernel)
    params = [params_by_name[p.name] for p in kernel.params]
    nblocks = grid[0] * grid[1]
    nthreads = block[0] * block[1]
    nwarps = -(-nthreads // WARP_SIZE)
    npad = nwarps * WARP_SIZE

    # The plan beats an explicit batch_blocks override: the override is a
    # sizing knob, not a correctness waiver — a pinned launch stays pinned
    # and a grouped launch never batches across a group boundary.
    plan = plan_batches(
        ck, grid, block, params_by_name, executor.batch_blocks, executor.device
    )
    limit = plan.limit
    group_of = plan.group_of

    sinks = executor.sinks
    pf = executor.profile_filter
    observed = ck.observed_runner(executor.hook_subscriptions()) if sinks else None
    stats = executor.last_launch_stats
    stats.update(
        batch_limit=limit,
        hazard_tier=plan.tier,
        pin_reason=plan.pin_reason,
        batch_groups=plan.groups,
    )
    pending: List[int] = []
    prof_rows: List[int] = []
    prof_ids: List[int] = []
    templates: Dict[int, Dict] = {}
    cap = lane_budget_cap(npad)
    held: Optional[EventRecorder] = None

    def release() -> None:
        nonlocal held
        if held is not None:
            executor._deliver(held.finish())
            held = None

    def flush() -> None:
        nonlocal held
        if not pending:
            return
        st = _make_state(ck, executor, grid, block, pending, params, templates=templates)
        if prof_ids:
            if held is not None and len(held.block_ids) + len(prof_ids) > cap:
                release()
            rec = EventRecorder(prof_ids, prof_rows, len(pending), npad, nwarps, nthreads)
            st.recorder = rec
            observed(st, st.block_mask)
            prof_ids.clear()
            prof_rows.clear()
            if held is None or not held.absorb(rec):
                release()
                held = rec
        else:
            ck.run_silent(st, st.block_mask)
        stats["batches"] += 1
        stats["batched_blocks"] += len(pending)
        if len(pending) > stats["largest_batch"]:
            stats["largest_batch"] = len(pending)
        pending.clear()

    for linear in range(nblocks):
        if group_of is not None and pending and group_of[linear] != group_of[pending[-1]]:
            flush()
        if sinks and pf(linear, nblocks):
            prof_rows.append(len(pending))
            prof_ids.append(linear)
        pending.append(linear)
        if len(pending) >= limit:
            flush()
    flush()
    release()
