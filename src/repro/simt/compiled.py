"""Compiled kernel dispatch and block-batched SIMT execution.

Two execution regimes accelerate kernel launches beyond the statement
interpreter in :mod:`repro.simt.executor`:

* **Compile-once dispatch** — at first launch the kernel body is lowered
  into a flat tree of specialised closures: operand accessors are resolved
  to register slots / immediates / parameter indices, op functions and
  dtypes are hoisted out of the per-block loop, and observation hooks are
  simply not compiled in for unprofiled blocks.  The compiled form is
  cached on the :class:`~repro.simt.ir.Kernel` instance, so repeated
  launches of the same kernel pay lowering cost once.

* **Block batching** — independent blocks are stacked into a single state
  of ``K * npad`` lanes (per-block ``%ctaid``/``%tid`` vectors, one
  shared-memory row per block), amortising every numpy operation across K
  blocks.  Profiled blocks batch exactly like silent ones: a batch
  containing profiled blocks runs the observed program with an
  :class:`~repro.simt.events.EventRecorder` capturing per-kind columnar
  buffers, delivered to sinks as one ``on_batch`` call.  Atomic lane
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

from bisect import bisect_right
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Tuple

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
)
from repro.simt.types import WARP_SIZE, DType

#: Lane budget per silent batch: K is chosen so ``K * npad`` stays near this.
TARGET_BATCH_LANES = 8192

#: Hard cap on blocks per batch regardless of block size.
MAX_BATCH_BLOCKS = 256

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


_OP_FUNCS = {
    Op.IADD: lambda a, b: a + b,
    Op.ISUB: lambda a, b: a - b,
    Op.IMUL: lambda a, b: a * b,
    Op.IMIN: np.minimum,
    Op.IMAX: np.maximum,
    Op.INEG: lambda a: -a,
    Op.IABS: np.abs,
    Op.IAND: lambda a, b: a & b,
    Op.IOR: lambda a, b: a | b,
    Op.IXOR: lambda a, b: a ^ b,
    Op.ISHL: lambda a, b: a << b,
    Op.ISHR: lambda a, b: a >> b,
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: lambda a, b: a / b,
    Op.FNEG: lambda a: -a,
    Op.FABS: np.abs,
    Op.FMIN: np.minimum,
    Op.FMAX: np.maximum,
    Op.FMA: lambda a, b, c: a * b + c,
    Op.FFLOOR: np.floor,
    Op.FSQRT: np.sqrt,
    Op.FEXP: np.exp,
    Op.FLOG: np.log,
    Op.FSIN: np.sin,
    Op.FCOS: np.cos,
    Op.FRCP: lambda a: 1.0 / a,
    Op.FPOW: np.power,
    Op.ILT: lambda a, b: a < b,
    Op.ILE: lambda a, b: a <= b,
    Op.IGT: lambda a, b: a > b,
    Op.IGE: lambda a, b: a >= b,
    Op.IEQ: lambda a, b: a == b,
    Op.INE: lambda a, b: a != b,
    Op.FLT: lambda a, b: a < b,
    Op.FLE: lambda a, b: a <= b,
    Op.FGT: lambda a, b: a > b,
    Op.FGE: lambda a, b: a >= b,
    Op.FEQ: lambda a, b: a == b,
    Op.FNE: lambda a, b: a != b,
    Op.PAND: lambda a, b: a & b,
    Op.POR: lambda a, b: a | b,
    Op.PNOT: lambda a: ~a,
    Op.MOV: lambda a: a,
    Op.SEL: lambda c, a, b: np.where(c, a, b),
    Op.I2F: lambda a: a.astype(np.float64) if isinstance(a, np.ndarray) else float(a),
    Op.F2I: lambda a: np.trunc(a).astype(np.int64) if isinstance(a, np.ndarray) else int(a),
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
    """Mutable lane state for one batch of blocks.

    ``recorder`` is the batch's :class:`~repro.simt.events.EventRecorder`
    when it contains profiled blocks; only the observed program, whose
    hooks record into it, runs with one installed.
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
# Operand lowering
# ----------------------------------------------------------------------


def _make_acc(ck: "CompiledKernel", operand) -> Callable[[_RunState], object]:
    """Lower an operand to an accessor closure over the run state."""
    if isinstance(operand, Reg):
        slot = ck.slot_of[operand.name]
        name = operand.name
        kname = ck.kernel.name

        def acc(st: _RunState):
            v = st.regs[slot]
            if v is None:
                raise ExecutionError(
                    f"kernel {kname!r}: register {name!r} read "
                    "before any write reached it"
                )
            return v

        return acc
    if isinstance(operand, Imm):
        value = operand.value
        return lambda st: value
    idx = ck.param_index[operand.name]
    return lambda st: st.params[idx]


def _make_addr(ck: "CompiledKernel", operand) -> Callable[[_RunState], np.ndarray]:
    acc = _make_acc(ck, operand)
    if isinstance(operand, Reg):
        return acc  # register operands are always full-width arrays

    def addr(st: _RunState) -> np.ndarray:
        return np.full(st.nlanes, int(acc(st)), dtype=np.int64)

    return addr


def _make_vec(ck: "CompiledKernel", operand, np_dtype) -> Callable[[_RunState], np.ndarray]:
    acc = _make_acc(ck, operand)
    if isinstance(operand, Reg):
        return acc

    def vec(st: _RunState) -> np.ndarray:
        return np.full(st.nlanes, acc(st), dtype=np_dtype)

    return vec


def _make_write(ck: "CompiledKernel", dest: Reg):
    slot = ck.slot_of[dest.name]
    np_dtype = dest.dtype.numpy_dtype

    def write(st: _RunState, result, act: np.ndarray) -> None:
        cur = st.regs[slot]
        if cur is None:
            cur = np.zeros(st.nlanes, dtype=np_dtype)
            st.regs[slot] = cur
        if isinstance(result, np.ndarray) and result.shape == cur.shape:
            np.copyto(cur, result, where=act, casting="unsafe")
        else:
            cur[act] = result

    return write


# ----------------------------------------------------------------------
# Shared memory (one row per batched block)
# ----------------------------------------------------------------------


def _make_shared_locate(ck: "CompiledKernel"):
    decls = ck.shared_decls
    offsets = ck.shared_offsets
    starts = offsets.tolist()
    kname = ck.kernel.name

    def locate(a: np.ndarray, esize: int):
        if not decls:
            raise ExecutionError(
                f"kernel {kname!r} accesses shared memory but declares none"
            )
        if a.size:
            hi = int(a.max())
            u0 = bisect_right(starts, int(a.min())) - 1
            if u0 < 0:
                raise ExecutionError(f"kernel {kname!r}: negative shared address")
            if bisect_right(starts, hi) - 1 == u0:
                # Both ends in one declaration (the common case even in
                # multi-array kernels): bound the highest address alone and
                # skip the per-decl partitioning.
                decl = decls[u0]
                if (hi - decl.offset) // esize >= decl.count:
                    raise ExecutionError(
                        f"kernel {kname!r}: shared array {decl.name!r} "
                        f"index out of bounds (size {decl.count})"
                    )
                return [(u0, slice(None), (a - decl.offset) // esize)]
        di = np.searchsorted(offsets, a, side="right") - 1
        out = []
        for u in np.unique(di):
            decl = decls[u]
            sel = di == u
            elems = (a[sel] - decl.offset) // esize
            if np.any(elems >= decl.count):
                raise ExecutionError(
                    f"kernel {kname!r}: shared array {decl.name!r} "
                    f"index out of bounds (size {decl.count})"
                )
            out.append((int(u), sel, elems))
        return out

    return locate


def _make_shared_gather(ck: "CompiledKernel"):
    locate = _make_shared_locate(ck)

    def gather(st: _RunState, addrs, act, esize) -> np.ndarray:
        values = np.zeros(st.nlanes, dtype=np.float64)
        lanes = np.flatnonzero(act)
        a = addrs[lanes]
        rows = st.lane_block[lanes]
        for u, sel, elems in locate(a, esize):
            values[lanes[sel]] = st.shared[u][rows[sel], elems]
        return values

    return gather


def _make_shared_scatter(ck: "CompiledKernel"):
    locate = _make_shared_locate(ck)

    def scatter(st: _RunState, addrs, values, act, esize) -> None:
        lanes = np.flatnonzero(act)
        a = addrs[lanes]
        rows = st.lane_block[lanes]
        for u, sel, elems in locate(a, esize):
            arr = st.shared[u]
            arr[rows[sel], elems] = values[lanes[sel]].astype(arr.dtype, copy=False)

    return scatter


# ----------------------------------------------------------------------
# Statement lowering
# ----------------------------------------------------------------------


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


def _compile_instr(ck, stmt: Instr, hooks: frozenset):
    write = _make_write(ck, stmt.dest)
    category = op_category(stmt.op)
    accs = tuple(_make_acc(ck, s) for s in stmt.srcs)
    if stmt.op in (Op.IDIV, Op.IMOD):
        div = _trunc_div if stmt.op is Op.IDIV else _trunc_mod
        a0, a1 = accs
        kname = ck.kernel.name
        sid = stmt.sid

        def core(st, act):
            num, den = a0(st), a1(st)
            divisor = np.asarray(den)
            bad = (divisor == 0) if divisor.ndim == 0 else (divisor == 0) & act
            if np.any(bad):
                raise ExecutionError(
                    f"kernel {kname!r}: integer division by zero (sid={sid})"
                )
            safe = np.where(divisor == 0, 1, den)
            return div(np.asarray(num), safe)

    else:
        fn = _OP_FUNCS[stmt.op]
        if len(accs) == 1:
            (a0,) = accs

            def core(st, act):
                return fn(a0(st))

        elif len(accs) == 2:
            a0, a1 = accs

            def core(st, act):
                return fn(a0(st), a1(st))

        elif len(accs) == 3:
            a0, a1, a2 = accs

            def core(st, act):
                return fn(a0(st), a1(st), a2(st))

        else:  # pragma: no cover - no ops beyond arity 3

            def core(st, act):
                return fn(*[a(st) for a in accs])

    if "instr" in hooks:
        sid, code = stmt.sid, CATEGORY_CODE[category]

        def run(st, act):
            write(st, core(st, act), act)
            st.recorder.instr(sid, code, act)

    else:

        def run(st, act):
            write(st, core(st, act), act)

    return run


def _compile_load(ck, stmt: Load, hooks: frozenset):
    addr = _make_addr(ck, stmt.addr)
    esize = stmt.dtype.element_size
    stmt_dt = stmt.dtype.numpy_dtype
    dest_dt = stmt.dest.dtype.numpy_dtype
    category = _LOAD_CATEGORY[stmt.space]
    if stmt.space is MemSpace.SHARED:
        gather = _make_shared_gather(ck)
        write = _make_write(ck, stmt.dest)

        def core(st, act):
            addrs = addr(st)
            write(st, gather(st, addrs, act, esize), act)
            return addrs

    elif stmt_dt == dest_dt:
        # Single masked assignment: the gather result is cast straight into
        # the destination register (stmt and dest dtypes agree, so this is
        # the same elementwise cast the two-step path performs).
        slot = ck.slot_of[stmt.dest.name]

        def core(st, act):
            addrs = addr(st)
            cur = st.regs[slot]
            if cur is None:
                cur = np.zeros(st.nlanes, dtype=dest_dt)
                st.regs[slot] = cur
            cur[act] = st.device.gather(addrs[act], esize)
            return addrs

    else:
        write = _make_write(ck, stmt.dest)

        def core(st, act):
            addrs = addr(st)
            values = np.zeros(st.nlanes, dtype=stmt_dt)
            values[act] = st.device.gather(addrs[act], esize)
            write(st, values, act)
            return addrs

    return _wrap_mem_op(core, stmt, category, "load", esize, hooks)


def _compile_store(ck, stmt: Store, hooks: frozenset):
    addr = _make_addr(ck, stmt.addr)
    val = _make_vec(ck, stmt.value, stmt.dtype.numpy_dtype)
    esize = stmt.dtype.element_size
    if stmt.space is MemSpace.SHARED:
        scatter = _make_shared_scatter(ck)
        category = OpCategory.STORE_SHARED

        def core(st, act):
            addrs = addr(st)
            scatter(st, addrs, val(st), act, esize)
            return addrs

    else:
        category = OpCategory.STORE_GLOBAL

        def core(st, act):
            addrs = addr(st)
            values = val(st)
            st.device.scatter(addrs[act], values[act], esize)
            return addrs

    return _wrap_mem_op(core, stmt, category, "store", esize, hooks)


def _compile_atomic(ck, stmt: Atomic, hooks: frozenset):
    addr = _make_addr(ck, stmt.addr)
    np_dt = stmt.dtype.numpy_dtype
    val = _make_vec(ck, stmt.value, np_dt)
    cmp = _make_vec(ck, stmt.compare, np_dt) if stmt.compare is not None else None
    esize = stmt.dtype.element_size
    # An old value no statement reads is never materialised: the device
    # then applies ADD/MIN/MAX in one index-ordered ufunc pass.
    keep_old = stmt.dest is not None and stmt.dest.name in ck.reads
    write = _make_write(ck, stmt.dest) if keep_old else None
    aop = stmt.op

    def core(st, act):
        addrs = addr(st)
        values = val(st)
        compare = cmp(st)[act] if cmp is not None else None
        olds_sel = st.device.atomic_update(
            addrs[act],
            values[act],
            aop,
            esize,
            compare=compare,
            need_old=write is not None,
        )
        if write is not None:
            olds = np.zeros(st.nlanes, dtype=np_dt)
            olds[act] = olds_sel
            write(st, olds, act)
        return addrs

    return _wrap_mem_op(core, stmt, OpCategory.ATOMIC, "atomic", esize, hooks, space=MemSpace.GLOBAL)


def _wrap_mem_op(core, stmt, category, kind, esize, hooks: frozenset, space=None):
    """Wrap a memory-op core with exactly the subscribed observation hooks.

    Each hook combination gets its own closure, so unsubscribed hooks cost
    nothing per event (no per-event flag checks on the hot path).
    """
    ni = "instr" in hooks
    nm = "mem" in hooks
    if not ni and not nm:

        def run(st, act):
            core(st, act)

        return run
    sid, code = stmt.sid, CATEGORY_CODE[category]
    space = SPACE_CODE[stmt.space if space is None else space]
    kind = MEM_KIND_CODE[kind]
    if ni and nm:

        def run(st, act):
            addrs = core(st, act)
            st.recorder.instr(sid, code, act)
            st.recorder.mem(sid, space, kind, esize, addrs, act)

    elif ni:

        def run(st, act):
            core(st, act)
            st.recorder.instr(sid, code, act)

    else:

        def run(st, act):
            addrs = core(st, act)
            st.recorder.mem(sid, space, kind, esize, addrs, act)

    return run


def _compile_if(ck, stmt: If, hooks: frozenset):
    cond = _make_acc(ck, stmt.cond)
    then_run = _compile_block(ck, stmt.then_body, hooks)
    else_run = _compile_block(ck, stmt.else_body, hooks) if stmt.else_body else None
    ni = "instr" in hooks
    nb = "branch" in hooks
    sid = stmt.sid

    if ni or nb:

        def run(st, act):
            c = cond(st)
            taken = act & c
            if ni:
                st.recorder.instr(sid, _BRANCH_CODE, act)
            if nb:
                st.recorder.branch(sid, _IF, act, taken)
            if taken.any():
                then_run(st, taken)
            if else_run is not None:
                fallthrough = act & ~c & ~st.returned
                if fallthrough.any():
                    else_run(st, fallthrough)

    else:

        def run(st, act):
            c = cond(st)
            taken = act & c
            if taken.any():
                then_run(st, taken)
            if else_run is not None:
                fallthrough = act & ~c & ~st.returned
                if fallthrough.any():
                    else_run(st, fallthrough)

    return run


def _compile_while(ck, stmt: While, hooks: frozenset):
    cond = _make_acc(ck, stmt.cond)
    cond_run = _compile_block(ck, stmt.cond_body, hooks)
    body_run = _compile_block(ck, stmt.body, hooks)
    cond_may_ret = any(map(_contains_return, stmt.cond_body))
    body_may_ret = any(map(_contains_return, stmt.body))
    ni = "instr" in hooks
    nb = "branch" in hooks
    sid = stmt.sid

    if ni or nb:

        def run(st, act):
            live = act.copy()
            while True:
                cond_run(st, live)
                if cond_may_ret:
                    live = live & ~st.returned
                    if not live.any():
                        return
                c = cond(st)
                stay = live & c
                if ni:
                    st.recorder.instr(sid, _BRANCH_CODE, live)
                if nb:
                    st.recorder.branch(sid, _LOOP, live, stay)
                live = stay
                if not live.any():
                    return
                body_run(st, live)
                if body_may_ret:
                    live = live & ~st.returned
                    if not live.any():
                        return

    else:

        def run(st, act):
            live = act.copy()
            while True:
                cond_run(st, live)
                if cond_may_ret:
                    live = live & ~st.returned
                    if not live.any():
                        return
                stay = live & cond(st)
                live = stay
                if not live.any():
                    return
                body_run(st, live)
                if body_may_ret:
                    live = live & ~st.returned
                    if not live.any():
                        return

    return run


def _compile_barrier(ck, stmt: Barrier, hooks: frozenset):
    kname = ck.kernel.name
    sid = stmt.sid

    def core(st, act):
        expected = st.block_mask & ~st.returned
        if st.nblk > 1:
            # A barrier synchronizes within one block.  Batched blocks
            # reach it on different loop iterations, so a block with no
            # active lanes here simply isn't executing this statement
            # (it would not have run it in single-block execution); only
            # blocks that arrive are held to the all-lanes-present rule.
            act = act.reshape(st.nblk, st.npad)
            here = act.any(axis=1)
            act, expected = act[here], expected.reshape(st.nblk, st.npad)[here]
        if not np.array_equal(act, expected):
            raise ExecutionError(
                f"kernel {kname!r}: divergent barrier (sid={sid}); "
                "some non-retired lanes did not reach __syncthreads"
            )

    if "instr" in hooks:

        def run(st, act):
            core(st, act)
            st.recorder.instr(sid, _BARRIER_CODE, act)

        return run

    return core


def _compile_return(ck, stmt: Return, hooks: frozenset):
    if "instr" in hooks:
        sid = stmt.sid

        def run(st, act):
            st.recorder.instr(sid, _BRANCH_CODE, act)
            st.returned |= act

    else:

        def run(st, act):
            st.returned |= act

    return run


_COMPILERS = {
    Instr: _compile_instr,
    Load: _compile_load,
    Store: _compile_store,
    Atomic: _compile_atomic,
    If: _compile_if,
    While: _compile_while,
    Barrier: _compile_barrier,
    Return: _compile_return,
}


def _compile_block(ck, stmts: List[Stmt], hooks: frozenset):
    """Lower a statement list to a single runner ``fn(state, act)``.

    ``hooks`` is the set of observation hooks to compile in (empty for the
    silent program; the executor passes its sinks' subscription union for
    profiled blocks, so unsubscribed hooks are never even generated).

    ``act`` must be non-empty and exclude retired lanes on entry (all call
    sites guarantee this).  The active mask is only recomputed after
    statements whose subtree contains a ``Return``, which is the only way
    lanes retire mid-body.
    """
    steps = []
    for stmt in stmts:
        try:
            compiler = _COMPILERS[type(stmt)]
        except KeyError:  # pragma: no cover - exhaustive over Stmt subclasses
            raise ExecutionError(f"unknown statement {stmt!r}") from None
        steps.append((compiler(ck, stmt, hooks), _contains_return(stmt)))

    if not any(may_ret for _, may_ret in steps):
        runners = tuple(fn for fn, _ in steps)
        if len(runners) == 1:
            return runners[0]

        def run_straight(st, act):
            for fn in runners:
                fn(st, act)

        return run_straight

    steps = tuple(steps)

    def run(st, act):
        for fn, may_ret in steps:
            fn(st, act)
            if may_ret:
                act = act & ~st.returned
                if not act.any():
                    return

    return run


# ----------------------------------------------------------------------
# Kernel compilation and the launch driver
# ----------------------------------------------------------------------


class CompiledKernel:
    """A kernel lowered to specialised closures, cached on the ``Kernel``."""

    __slots__ = (
        "kernel",
        "nslots",
        "slot_of",
        "param_index",
        "sreg_slots",
        "ctaid_slots",
        "shared_decls",
        "shared_offsets",
        "reads",
        "load_sites",
        "store_sites",
        "atomic_sites",
        "run_silent",
        "_observed",
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
        self.shared_decls = sorted(kernel.shared, key=lambda d: d.offset)
        self.shared_offsets = np.array([d.offset for d in self.shared_decls], dtype=np.int64)
        self.run_silent = _compile_block(self, kernel.body, frozenset())
        # Observed programs are specialized per hook-subscription set and
        # compiled lazily on first use (a mix-only run never lowers the
        # mem/branch hook variants at all).
        self._observed: Dict[frozenset, Callable] = {}
        # Batch plans keyed by (grid, block, cap, bound params): the
        # footprint analysis runs once per launch configuration, not per
        # launch (see plan_batches).
        self.plan_cache: Dict = {}

    def observed_runner(self, hooks: frozenset) -> Callable:
        """The runner emitting exactly ``hooks``, lowered on first request."""
        if not hooks:
            return self.run_silent
        run = self._observed.get(hooks)
        if run is None:
            run = _compile_block(self, self.kernel.body, hooks)
            self._observed[hooks] = run
        return run


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
        cap = max(1, min(MAX_BATCH_BLOCKS, TARGET_BATCH_LANES // npad))
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
    st.shared = [
        np.zeros((nblk, d.count), dtype=d.dtype.numpy_dtype) for d in ck.shared_decls
    ]
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
    blocks.  A batch containing profiled blocks runs the observed program
    with an :class:`~repro.simt.events.EventRecorder` capturing columnar
    buffers handed to ``executor._deliver``; purely silent batches run the
    silent program.  Blocks execute in ascending contiguous runs,
    preserving the interpreter's sequential device-memory outcome.  The
    batching and plan fields are filled into ``executor.last_launch_stats``.
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

    def flush() -> None:
        if not pending:
            return
        st = _make_state(ck, executor, grid, block, pending, params, templates=templates)
        if prof_ids:
            rec = EventRecorder(prof_ids, prof_rows, len(pending), npad, nwarps, nthreads)
            st.recorder = rec
            observed(st, st.block_mask)
            prof_ids.clear()
            prof_rows.clear()
            executor._deliver(rec.finish())
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
