"""Static semantics classifier: *lane-disjoint* vs *communicating* kernels.

The lane-serial reference interpreter (:mod:`repro.simt.reference`) executes
each lane to completion before starting the next, while the lockstep engines
run statement-major across all lanes of a block.  The two orders observe the
same final device memory exactly when no lane's result depends on values
produced by another lane *during* the launch.  This module proves that
property conservatively, by abstract interpretation over the structured IR:

* every register is tracked as a symbolic expression tree whose leaves are
  immediates, launch parameters, special registers, or *opaque* values
  (loads, atomic results, control-flow merges, loop-carried registers);
* a memory address is **lane-private** when its tree is affine in
  ``%tid.x`` with a non-zero scale and an otherwise lane-uniform remainder
  — distinct lanes of a (1-D) block then touch distinct locations at every
  dynamic instant, so statement-major and lane-major interleavings commute;
* barriers, consumed atomic old-values, non-commuting or aliasing atomics,
  and any store whose address cannot be proven lane-private make the kernel
  *communicating*.

The verdict errs on the side of ``communicating``: a spurious
``communicating`` tag only means the reference engine refuses a kernel it
could in fact have run; a spurious ``lane-disjoint`` tag would silently
compare engines outside their equivalence domain.  The fuzzer
(:mod:`repro.fuzz`) uses the same classifier to decide which generated
kernels participate in the tri-engine (vs two-engine) oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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
    Operand,
    ParamRef,
    Return,
    Stmt,
    Store,
    While,
    assigned_regs,
    read_regs,
)
from repro.simt.types import DType

#: Special registers that hold the same value in every lane of a block.
_UNIFORM_SREGS = frozenset(
    {"%ctaid.x", "%ctaid.y", "%ntid.x", "%ntid.y", "%nctaid.x", "%nctaid.y"}
)
_SREGS = _UNIFORM_SREGS | {"%tid.x", "%tid.y"}

#: ``(op, dtype)`` of the atomics whose effect on a location is
#: order-independent (commutative and associative, no rounding: integer
#: registers and I32 buffers are int64, whose wrapping add still is), so
#: any interleaving of a homogeneous set of them yields the same final
#: memory.
COMMUTING_ATOMICS = frozenset(
    (op, DType.I32) for op in (AtomicOp.ADD, AtomicOp.MIN, AtomicOp.MAX)
)


@dataclass(frozen=True)
class KernelClassification:
    """Result of :func:`classify_kernel`."""

    communicating: bool
    #: Human-readable reasons the kernel was tagged communicating (empty for
    #: lane-disjoint kernels).
    reasons: Tuple[str, ...]
    #: True when the lane-disjoint proof leans on ``%tid.x`` injectivity and
    #: therefore only holds for 1-D thread blocks (``block[1] == 1``).
    requires_1d_block: bool

    @property
    def tag(self) -> str:
        return "communicating" if self.communicating else "lane-disjoint"


# ---------------------------------------------------------------------------
# Symbolic expression trees
#
# Trees are nested tuples.  Leaves: ("imm", value), ("param", name),
# ("sreg", name), ("opaque", serial).  Interior nodes: (op_value, *children).
# Two structurally equal trees denote the same per-lane value at any single
# dynamic instant: opaque serials are minted per *assignment event*, and
# registers that may change across iterations or branches are re-opaqued at
# region boundaries.


@dataclass
class _MemAccess:
    kind: str  # "load" | "store"
    space: MemSpace
    tree: tuple


@dataclass
class _AtomicSite:
    op: AtomicOp
    dtype: DType
    tree: tuple
    in_loop: bool
    dest_name: Optional[str]


class _Analyzer:
    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.buffer_params: FrozenSet[str] = frozenset(
            p.name for p in kernel.params if p.is_buffer
        )
        self.env: Dict[str, tuple] = {}
        self._next_opaque = 0
        self.accesses: List[_MemAccess] = []
        self.atomics: List[_AtomicSite] = []
        self.has_barrier = False
        self._loop_depth = 0

    def run(self) -> None:
        self._walk(self.kernel.body)

    # -- expression construction -------------------------------------------

    def _fresh(self) -> tuple:
        self._next_opaque += 1
        return ("opaque", self._next_opaque)

    def _tree(self, operand: Operand) -> tuple:
        if isinstance(operand, Imm):
            return ("imm", operand.value)
        if isinstance(operand, ParamRef):
            return ("param", operand.name)
        name = operand.name
        if name in _SREGS:
            return ("sreg", name)
        tree = self.env.get(name)
        if tree is None:  # read-before-write: a runtime error, not our problem
            tree = self._fresh()
            self.env[name] = tree
        return tree

    # -- statement walk ----------------------------------------------------

    def _walk(self, stmts: Iterable[Stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Instr):
            if stmt.op is Op.MOV:
                self.env[stmt.dest.name] = self._tree(stmt.srcs[0])
            else:
                self.env[stmt.dest.name] = (stmt.op.value,) + tuple(
                    self._tree(s) for s in stmt.srcs
                )
        elif isinstance(stmt, Load):
            self.accesses.append(_MemAccess("load", stmt.space, self._tree(stmt.addr)))
            self.env[stmt.dest.name] = self._fresh()
        elif isinstance(stmt, Store):
            self.accesses.append(_MemAccess("store", stmt.space, self._tree(stmt.addr)))
        elif isinstance(stmt, Atomic):
            self.atomics.append(
                _AtomicSite(
                    stmt.op,
                    stmt.dtype,
                    self._tree(stmt.addr),
                    self._loop_depth > 0,
                    stmt.dest.name if stmt.dest is not None else None,
                )
            )
            if stmt.dest is not None:
                self.env[stmt.dest.name] = self._fresh()
        elif isinstance(stmt, Barrier):
            self.has_barrier = True
        elif isinstance(stmt, Return):
            pass
        elif isinstance(stmt, If):
            before = dict(self.env)
            self._walk(stmt.then_body)
            then_env = self.env
            self.env = dict(before)
            self._walk(stmt.else_body)
            else_env = self.env
            merged = dict(before)
            for name in set(then_env) | set(else_env):
                a, b = then_env.get(name), else_env.get(name)
                merged[name] = a if a == b and a is not None else self._fresh()
            self.env = merged
        elif isinstance(stmt, While):
            # Every register assigned anywhere in the loop carries an
            # iteration-dependent value: pin them to opaques both before the
            # walk (so in-loop addresses can't be proven affine from
            # pre-loop trees) and after (so post-loop uses can't either).
            assigned = assigned_regs(stmt.cond_body) | assigned_regs(stmt.body)
            for name in assigned:
                self.env[name] = self._fresh()
            self._loop_depth += 1
            self._walk(stmt.cond_body)
            self._walk(stmt.body)
            self._loop_depth -= 1
            for name in assigned:
                self.env[name] = self._fresh()


# ---------------------------------------------------------------------------
# Affine analysis


def _const(tree: tuple) -> Optional[int]:
    if tree[0] == "imm" and isinstance(tree[1], int) and not isinstance(tree[1], bool):
        return tree[1]
    return None


def _affine_scale(tree: tuple) -> Optional[int]:
    """Integer ``s`` such that ``tree == s * %tid.x + u`` with ``u``
    lane-uniform, or ``None`` when no such decomposition is provable."""
    head = tree[0]
    if head == "imm":
        return 0
    if head == "param":
        return 0
    if head == "sreg":
        if tree[1] in _UNIFORM_SREGS:
            return 0
        return 1 if tree[1] == "%tid.x" else None  # %tid.y is not uniform
    if head == "opaque":
        return None
    kids = tree[1:]
    if head == "iadd" or head == "isub":
        a, b = _affine_scale(kids[0]), _affine_scale(kids[1])
        if a is None or b is None:
            return None
        return a + b if head == "iadd" else a - b
    if head == "ineg":
        a = _affine_scale(kids[0])
        return None if a is None else -a
    if head == "imul":
        for lhs, rhs in ((kids[0], kids[1]), (kids[1], kids[0])):
            c = _const(rhs)
            if c is not None:
                a = _affine_scale(lhs)
                return None if a is None else a * c
        a, b = _affine_scale(kids[0]), _affine_scale(kids[1])
        return 0 if a == 0 and b == 0 else None
    if head == "ishl":
        c = _const(kids[1])
        if c is not None and 0 <= c < 63:
            a = _affine_scale(kids[0])
            return None if a is None else a << c
        a, b = _affine_scale(kids[0]), _affine_scale(kids[1])
        return 0 if a == 0 and b == 0 else None
    # Any other operation is lane-uniform only when all inputs are.
    return 0 if all(_affine_scale(k) == 0 for k in kids) else None


def _lane_private(tree: tuple) -> bool:
    """True when distinct lanes of a 1-D block always get distinct values."""
    scale = _affine_scale(tree)
    return scale is not None and scale != 0


def _buffer_leaves(tree: tuple, buffer_params: FrozenSet[str]) -> Set[str]:
    if tree[0] == "param":
        return {tree[1]} if tree[1] in buffer_params else set()
    if tree[0] in ("imm", "sreg", "opaque"):
        return set()
    out: Set[str] = set()
    for kid in tree[1:]:
        out |= _buffer_leaves(kid, buffer_params)
    return out


# ---------------------------------------------------------------------------
# Classification


def classify_kernel(kernel: Kernel) -> KernelClassification:
    """Tag ``kernel`` as lane-disjoint or communicating (memoized)."""
    cached = getattr(kernel, "_classification_cache", None)
    if cached is not None:
        return cached

    an = _Analyzer(kernel)
    an.run()
    reasons: List[str] = []
    requires_1d = False

    if an.has_barrier:
        reasons.append("barrier synchronises lanes mid-kernel")

    reasons.extend(_atomic_reasons(an, kernel))

    # Shared memory: stores that are never read back are unobservable (the
    # per-block scratch is discarded), and loads with no stores read zeros in
    # every engine.  When both occur, every access must hit the same
    # lane-private slot.
    sh = [a for a in an.accesses if a.space is MemSpace.SHARED]
    if any(a.kind == "load" for a in sh) and any(a.kind == "store" for a in sh):
        trees = {a.tree for a in sh}
        if len(trees) == 1 and _lane_private(next(iter(trees))):
            requires_1d = True
        else:
            reasons.append("shared memory is read back through non-lane-private addressing")

    # Global memory: read-only buffers are safe under any addressing; every
    # written buffer must be written (and, if also read, read) through a
    # single lane-private address expression.
    g_stores = [a for a in an.accesses if a.space is MemSpace.GLOBAL and a.kind == "store"]
    g_loads = [a for a in an.accesses if a.space is MemSpace.GLOBAL and a.kind == "load"]
    if g_stores:
        requires_1d = True
        reasons.extend(_global_reasons(an, g_stores, g_loads))

    result = KernelClassification(
        communicating=bool(reasons),
        reasons=tuple(reasons),
        requires_1d_block=requires_1d and not reasons,
    )
    kernel._classification_cache = result  # type: ignore[attr-defined]
    return result


def _atomic_reasons(an: _Analyzer, kernel: Kernel) -> List[str]:
    if not an.atomics:
        return []
    reasons: List[str] = []

    read = read_regs(kernel.body)
    if any(a.dest_name is not None and a.dest_name in read for a in an.atomics):
        reasons.append("an atomic's old value is consumed by later instructions")

    # Ordering: a single atomic site outside any loop executes in ascending
    # lane order under every engine; otherwise the interleavings differ and
    # only a homogeneous set of commuting integer atomics is order-free.
    single_site = len(an.atomics) == 1 and not an.atomics[0].in_loop
    commuting = (
        len({a.op for a in an.atomics}) == 1
        and all((a.op, a.dtype) in COMMUTING_ATOMICS for a in an.atomics)
    )
    if not single_site and not commuting:
        reasons.append("atomic interleaving differs across engines (non-commuting or repeated sites)")

    bases: Set[str] = set()
    for site in an.atomics:
        leaves = _buffer_leaves(site.tree, an.buffer_params)
        if len(leaves) != 1:
            reasons.append("an atomic's target buffer could not be identified")
            return reasons
        bases |= leaves
    touched: Set[str] = set()
    for acc in an.accesses:
        if acc.space is MemSpace.GLOBAL:
            touched |= _buffer_leaves(acc.tree, an.buffer_params)
    if bases & touched:
        reasons.append("an atomic target buffer is also accessed by plain loads/stores")
    return reasons


def _global_reasons(
    an: _Analyzer, stores: List[_MemAccess], loads: List[_MemAccess]
) -> List[str]:
    by_base: Dict[str, Set[tuple]] = {}
    for acc in stores:
        leaves = _buffer_leaves(acc.tree, an.buffer_params)
        if len(leaves) != 1:
            return ["a global store's target buffer could not be identified"]
        by_base.setdefault(next(iter(leaves)), set()).add(acc.tree)
    for base, trees in sorted(by_base.items()):
        if len(trees) != 1 or not _lane_private(next(iter(trees))):
            return [f"global stores to buffer {base!r} may overlap across lanes"]
    for acc in loads:
        leaves = _buffer_leaves(acc.tree, an.buffer_params)
        written = leaves & set(by_base)
        if not written:
            continue  # read-only buffer: any addressing is safe
        if len(leaves) != 1 or acc.tree not in by_base[next(iter(leaves))]:
            base = sorted(written)[0]
            return [f"buffer {base!r} is read back through a different address than it is written"]
    return []
