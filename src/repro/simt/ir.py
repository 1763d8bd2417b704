"""Intermediate representation for SIMT kernels.

Kernels are expressed in a small *structured* register IR: straight-line
instructions plus ``If`` / ``While`` regions.  Structured control flow means
every divergence point has a statically known reconvergence point (the end of
the region), which for structured programs coincides with the immediate
post-dominator used by classical SIMT stack hardware.  This is what lets the
executor reproduce the divergence behaviour of a PDOM stack machine while
running all lanes of a thread block in lockstep.

The IR is built through :class:`repro.simt.builder.KernelBuilder`; user code
never instantiates these nodes directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple, Union

from repro.simt.errors import BuildError
from repro.simt.types import DType


class OpCategory(enum.Enum):
    """Dynamic-instruction categories used for instruction-mix accounting.

    The categories mirror the groups a PTX-level profiler would report:
    integer ALU, floating point ALU, special-function unit (transcendental),
    comparisons/predicate logic, data movement, the memory spaces, atomics,
    control flow and synchronisation.
    """

    INT = "int"
    FP = "fp"
    SFU = "sfu"
    CMP = "cmp"
    MOV = "mov"
    LOAD_GLOBAL = "ld.global"
    STORE_GLOBAL = "st.global"
    LOAD_SHARED = "ld.shared"
    STORE_SHARED = "st.shared"
    LOAD_CONST = "ld.const"
    LOAD_TEXTURE = "ld.tex"
    ATOMIC = "atomic"
    BRANCH = "branch"
    BARRIER = "barrier"


class Op(enum.Enum):
    """Scalar operations of the ISA (applied per active lane)."""

    # Integer arithmetic / logic.
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    IDIV = "idiv"
    IMOD = "imod"
    IMIN = "imin"
    IMAX = "imax"
    INEG = "ineg"
    IABS = "iabs"
    IAND = "iand"
    IOR = "ior"
    IXOR = "ixor"
    ISHL = "ishl"
    ISHR = "ishr"
    # Floating point arithmetic.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FABS = "fabs"
    FMIN = "fmin"
    FMAX = "fmax"
    FMA = "fma"
    FFLOOR = "ffloor"
    # Special function unit (transcendental / iterative units).
    FSQRT = "fsqrt"
    FEXP = "fexp"
    FLOG = "flog"
    FSIN = "fsin"
    FCOS = "fcos"
    FRCP = "frcp"
    FPOW = "fpow"
    # Comparisons (produce predicates) and predicate logic.
    ILT = "ilt"
    ILE = "ile"
    IGT = "igt"
    IGE = "ige"
    IEQ = "ieq"
    INE = "ine"
    FLT = "flt"
    FLE = "fle"
    FGT = "fgt"
    FGE = "fge"
    FEQ = "feq"
    FNE = "fne"
    PAND = "pand"
    POR = "por"
    PNOT = "pnot"
    # Data movement / conversion.
    MOV = "mov"
    SEL = "sel"
    I2F = "i2f"
    F2I = "f2i"


_CATEGORY_BY_OP = {}
for _op in Op:
    _name = _op.name
    if _name.startswith("I") and _name not in ("ILT", "ILE", "IGT", "IGE", "IEQ", "INE", "I2F"):
        _CATEGORY_BY_OP[_op] = OpCategory.INT
    elif _name in ("FSQRT", "FEXP", "FLOG", "FSIN", "FCOS", "FRCP", "FPOW"):
        _CATEGORY_BY_OP[_op] = OpCategory.SFU
    elif _name.startswith("F") and _name not in ("FLT", "FLE", "FGT", "FGE", "FEQ", "FNE", "F2I"):
        _CATEGORY_BY_OP[_op] = OpCategory.FP
    elif _name in ("MOV", "SEL", "I2F", "F2I"):
        _CATEGORY_BY_OP[_op] = OpCategory.MOV
    else:
        _CATEGORY_BY_OP[_op] = OpCategory.CMP


def op_category(op: Op) -> OpCategory:
    """Return the instruction-mix category of a scalar op."""
    return _CATEGORY_BY_OP[op]


class MemSpace(enum.Enum):
    """Addressable memory spaces."""

    GLOBAL = "global"
    SHARED = "shared"
    CONST = "const"
    TEXTURE = "texture"


class AtomicOp(enum.Enum):
    """Read-modify-write operations on global memory."""

    ADD = "add"
    MIN = "min"
    MAX = "max"
    EXCH = "exch"
    CAS = "cas"


@dataclass(frozen=True)
class Reg:
    """A virtual register.

    Registers are mutable storage cells (not SSA values): loops re-assign
    them via ``MOV``.  Identity is by name within one kernel.
    """

    name: str
    dtype: DType

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"%{self.name}:{self.dtype.value}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand embedded in an instruction."""

    value: Union[int, float, bool]
    dtype: DType

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"#{self.value}"


@dataclass(frozen=True)
class ParamRef:
    """Reference to a kernel launch parameter (uniform across all lanes)."""

    name: str
    dtype: DType

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"${self.name}"


Operand = Union[Reg, Imm, ParamRef]


class Stmt:
    """Base class for IR statements.

    ``sid`` is a kernel-unique static id assigned when the kernel is
    finalized; trace sinks use it to key per-static-instruction state.
    """

    sid: int = -1


@dataclass
class Instr(Stmt):
    """A scalar computational instruction executed across active lanes."""

    op: Op
    dtype: DType
    dest: Reg
    srcs: Tuple[Operand, ...]
    sid: int = -1


@dataclass
class Load(Stmt):
    """Load from a memory space; the address operand holds byte addresses."""

    space: MemSpace
    dtype: DType
    dest: Reg
    addr: Operand
    sid: int = -1


@dataclass
class Store(Stmt):
    """Store to a memory space; the address operand holds byte addresses."""

    space: MemSpace
    dtype: DType
    addr: Operand
    value: Operand
    sid: int = -1


@dataclass
class Atomic(Stmt):
    """Atomic read-modify-write on global memory.

    Lanes are serialised in ascending lane order within the launch, which
    makes atomics deterministic (real hardware leaves the order unspecified;
    any workload whose result depends on the order is relying on UB anyway).
    """

    op: AtomicOp
    dtype: DType
    dest: Optional[Reg]
    addr: Operand
    value: Operand
    compare: Optional[Operand] = None  # only for CAS
    sid: int = -1


@dataclass
class Barrier(Stmt):
    """Block-wide synchronisation (``__syncthreads``)."""

    sid: int = -1


@dataclass
class Return(Stmt):
    """Retire the active lanes for the remainder of the kernel."""

    sid: int = -1


@dataclass
class If(Stmt):
    """Structured conditional; reconverges at the end of the region."""

    cond: Reg
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)
    sid: int = -1


@dataclass
class While(Stmt):
    """Structured loop.

    ``cond_body`` is re-executed before every iteration and must leave the
    loop predicate in ``cond``.  Lanes whose predicate is false retire from
    the loop; the loop reconverges when no lane remains active.
    """

    cond_body: List[Stmt] = field(default_factory=list)
    cond: Optional[Reg] = None
    body: List[Stmt] = field(default_factory=list)
    sid: int = -1


@dataclass(frozen=True)
class KernelParam:
    """Declared launch parameter of a kernel."""

    name: str
    dtype: DType
    is_buffer: bool = False
    #: For buffer params: byte size of one element, used by the ``ld``/``st``
    #: builder sugar when computing addresses.
    elem_size: int = 4


@dataclass(frozen=True)
class SharedDecl:
    """A statically sized shared-memory array declared by a kernel."""

    name: str
    count: int
    dtype: DType
    #: Byte offset of this array within the block's shared segment, used for
    #: bank-conflict analysis.
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return self.count * self.dtype.element_size


class Kernel:
    """A finalized SIMT kernel: parameters, shared decls and a statement tree.

    Built via :class:`repro.simt.builder.KernelBuilder`; immutable once
    finalized.
    """

    def __init__(
        self,
        name: str,
        params: Tuple[KernelParam, ...],
        shared: Tuple[SharedDecl, ...],
        body: List[Stmt],
    ) -> None:
        self.name = name
        self.params = params
        self.shared = shared
        self.body = body
        self._param_by_name = {p.name: p for p in params}
        self.num_static_stmts = self._assign_sids()
        self._validate()

    def param(self, name: str) -> KernelParam:
        try:
            return self._param_by_name[name]
        except KeyError:
            raise BuildError(f"kernel {self.name!r} has no parameter {name!r}") from None

    @property
    def shared_bytes(self) -> int:
        return sum(decl.nbytes for decl in self.shared)

    def walk(self) -> Iterator[Stmt]:
        """Yield every statement in the kernel in program order (pre-order)."""
        yield from _walk(self.body)

    def _assign_sids(self) -> int:
        next_sid = 0
        for stmt in self.walk():
            stmt.sid = next_sid
            next_sid += 1
        return next_sid

    def _validate(self) -> None:
        for stmt in self.walk():
            if isinstance(stmt, While) and stmt.cond is None:
                raise BuildError(
                    f"kernel {self.name!r}: while loop (sid={stmt.sid}) has no condition; "
                    "call loop.set_cond(...) inside the cond() block"
                )
            if isinstance(stmt, Atomic) and stmt.op is AtomicOp.CAS and stmt.compare is None:
                raise BuildError(f"kernel {self.name!r}: CAS atomic requires a compare operand")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name!r} stmts={self.num_static_stmts} params={len(self.params)}>"


def _walk(stmts: List[Stmt]) -> Iterator[Stmt]:
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk(stmt.then_body)
            yield from _walk(stmt.else_body)
        elif isinstance(stmt, While):
            yield from _walk(stmt.cond_body)
            yield from _walk(stmt.body)


def walk_stmts(stmts: List[Stmt]) -> Iterator[Stmt]:
    """Yield every statement of a statement list in pre-order.

    Like :meth:`Kernel.walk` but usable on a bare body fragment — analysis
    passes (the semantics classifier, the fuzz shrinker) walk sub-regions
    before any kernel exists.
    """
    yield from _walk(stmts)


def stmt_regs(stmt: Stmt) -> Tuple[Optional[str], Tuple[str, ...]]:
    """``(dest, sources)`` of one statement, nested bodies excluded: the name
    of the register it writes (``None`` if it writes none) and the names of
    the registers whose value it reads, in operand order."""
    if isinstance(stmt, Instr):
        dest, operands = stmt.dest, stmt.srcs
    elif isinstance(stmt, Load):
        dest, operands = stmt.dest, (stmt.addr,)
    elif isinstance(stmt, Store):
        dest, operands = None, (stmt.addr, stmt.value)
    elif isinstance(stmt, Atomic):
        dest, operands = stmt.dest, (stmt.addr, stmt.value, stmt.compare)
    elif isinstance(stmt, (If, While)):
        dest, operands = None, (stmt.cond,)
    else:
        return None, ()
    srcs = tuple(op.name for op in operands if isinstance(op, Reg))
    return (None if dest is None else dest.name), srcs


def assigned_regs(stmts: List[Stmt]) -> Set[str]:
    """Names of the registers any statement in ``stmts`` (nested included)
    writes."""
    dests = (stmt_regs(stmt)[0] for stmt in _walk(stmts))
    return {name for name in dests if name is not None}


def read_regs(stmts: List[Stmt]) -> Set[str]:
    """Names of the registers whose value any statement in ``stmts``
    (nested included) consumes."""
    return {name for stmt in _walk(stmts) for name in stmt_regs(stmt)[1]}
