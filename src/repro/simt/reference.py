"""Reference interpreter: one lane at a time, no vectorization, no masks.

A second, deliberately naive implementation of the IR semantics used for
*differential testing* of the lockstep executor: the same kernel runs on
both engines and the observable state (global memory) must match.

Semantics caveat, by design: lanes execute to completion one after another,
so programs whose results depend on inter-lane communication order (shared
memory cross-lane reads, overlapping stores, atomic old-value returns) are
outside the equivalence domain.  :func:`run_reference` enforces the domain:
kernels that the static classifier (:mod:`repro.simt.classify`) tags as
*communicating* raise :class:`~repro.simt.errors.UnsupportedKernelError`
instead of silently returning out-of-domain results.  The fuzzer and the
differential property tests rely on this gate; the workloads' own numpy
references cover the communicating cases.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.simt.classify import classify_kernel
from repro.simt.compiled import _OP_FUNCS, _trunc_div, _trunc_mod
from repro.simt.errors import ExecutionError, UnsupportedKernelError
from repro.simt.executor import _as_dim
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
    Reg,
    Return,
    Stmt,
    Store,
    While,
)
from repro.simt.memory import _ATOMIC_SCALAR, Device, DeviceBuffer
from repro.simt.types import DType


class _LaneReturn(Exception):
    """Raised to unwind a lane that executed ``Return``."""


def _wrap64(value: int) -> int:
    """Signed 64-bit wraparound, matching the executor's int64 registers."""
    return ((int(value) + 2**63) % 2**64) - 2**63


class _LaneState:
    def __init__(self, env: Dict[str, Union[int, float, bool]], params, device, shared):
        self.env = env
        self.params = params
        self.device = device
        self.shared = shared
        self.shared_decls = sorted(shared, key=lambda d: d.offset) if shared else []

    def eval(self, operand: Operand):
        if isinstance(operand, Reg):
            try:
                return self.env[operand.name]
            except KeyError:
                raise ExecutionError(f"register {operand.name!r} read before write") from None
        if isinstance(operand, Imm):
            return operand.value
        return self.params[operand.name]


def run_reference(
    kernel: Kernel,
    grid,
    block,
    args: Dict[str, Union[int, float, DeviceBuffer]],
    device: Device,
) -> None:
    """Execute a kernel lane by lane (slow; for differential testing).

    Raises :class:`UnsupportedKernelError` for communicating kernels, whose
    lockstep results this engine cannot reproduce.
    """
    grid = _as_dim(grid, "grid")
    block = _as_dim(block, "block")
    classification = classify_kernel(kernel)
    if classification.communicating:
        raise UnsupportedKernelError(
            f"kernel {kernel.name!r} is communicating; the lane-serial reference "
            f"is outside its equivalence domain: {'; '.join(classification.reasons)}"
        )
    if classification.requires_1d_block and block[1] > 1:
        raise UnsupportedKernelError(
            f"kernel {kernel.name!r}: the lane-disjoint proof assumes a 1-D "
            f"thread block, but block={block}"
        )
    params: Dict[str, Union[int, float]] = {}
    for p in kernel.params:
        value = args[p.name]
        params[p.name] = value.base if isinstance(value, DeviceBuffer) else value

    shared_decls = kernel.shared
    for bz in range(grid[1]):
        for bx in range(grid[0]):
            shared_mem = {
                d.name: np.zeros(d.count, dtype=d.dtype.numpy_dtype) for d in shared_decls
            }
            for lane in range(block[0] * block[1]):
                env: Dict[str, Union[int, float, bool]] = {
                    "%tid.x": lane % block[0],
                    "%tid.y": lane // block[0],
                    "%ctaid.x": bx,
                    "%ctaid.y": bz,
                    "%ntid.x": block[0],
                    "%ntid.y": block[1],
                    "%nctaid.x": grid[0],
                    "%nctaid.y": grid[1],
                }
                state = _LaneState(env, params, device, shared_decls)
                state.shared_arrays = shared_mem  # type: ignore[attr-defined]
                try:
                    _exec_block(kernel.body, state)
                except _LaneReturn:
                    pass


def _exec_block(stmts, state: _LaneState) -> None:
    for stmt in stmts:
        _exec_stmt(stmt, state)


def _exec_stmt(stmt: Stmt, state: _LaneState) -> None:
    if isinstance(stmt, Instr):
        srcs = [state.eval(s) for s in stmt.srcs]
        if stmt.op in (Op.IDIV, Op.IMOD):
            if srcs[1] == 0:
                raise ExecutionError("integer division by zero")
            a = np.int64(srcs[0])
            b = np.int64(srcs[1])
            result = _trunc_div(a, b) if stmt.op is Op.IDIV else _trunc_mod(a, b)
        else:
            # Scalar Python semantics diverge from the vectorized engines in
            # two spots: float division by zero raises (numpy yields inf/nan
            # under errstate) and ``~bool`` is integer invert (-2, truthy).
            # Promote floats and bools so numpy semantics govern both; ints
            # stay native for the explicit _wrap64 below.
            srcs = [
                np.bool_(s)
                if isinstance(s, bool)
                else np.float64(s)
                if isinstance(s, float)
                else s
                for s in srcs
            ]
            with np.errstate(all="ignore"):
                result = _OP_FUNCS[stmt.op](*srcs)
        if isinstance(result, (np.ndarray, np.generic)):
            result = result.item()
        if stmt.dtype is DType.I32 and isinstance(result, int):
            result = _wrap64(result)
        state.env[stmt.dest.name] = result
    elif isinstance(stmt, Load):
        addr = int(state.eval(stmt.addr))
        esize = stmt.dtype.element_size
        if stmt.space is MemSpace.SHARED:
            state.env[stmt.dest.name] = _shared_ref(state, addr, esize)[0]
        else:
            value = state.device.gather(np.array([addr]), esize)[0]
            state.env[stmt.dest.name] = value.item()
    elif isinstance(stmt, Store):
        addr = int(state.eval(stmt.addr))
        value = state.eval(stmt.value)
        esize = stmt.dtype.element_size
        if stmt.space is MemSpace.SHARED:
            _, write = _shared_ref(state, addr, esize, want_writer=True)
            write(value)
        else:
            state.device.scatter(
                np.array([addr]), np.array([value], dtype=stmt.dtype.numpy_dtype), esize
            )
    elif isinstance(stmt, Atomic):
        addr = int(state.eval(stmt.addr))
        value = state.eval(stmt.value)
        [(buf, _, elems)] = state.device.atomic_lane_view(
            np.array([addr]), stmt.dtype.element_size
        )
        old = buf.data[elems[0]]
        if stmt.op is AtomicOp.CAS:
            compare = state.eval(stmt.compare)
            new = value if old == compare else old
        else:
            new = _ATOMIC_SCALAR[stmt.op](old, value)
        buf.data[elems[0]] = new
        if stmt.dest is not None:
            state.env[stmt.dest.name] = old
    elif isinstance(stmt, Barrier):
        pass  # lanes run to completion; barriers are vacuous here
    elif isinstance(stmt, Return):
        raise _LaneReturn()
    elif isinstance(stmt, If):
        if bool(state.eval(stmt.cond)):
            _exec_block(stmt.then_body, state)
        else:
            _exec_block(stmt.else_body, state)
    elif isinstance(stmt, While):
        guard = 0
        while True:
            _exec_block(stmt.cond_body, state)
            if not bool(state.eval(stmt.cond)):  # type: ignore[arg-type]
                break
            _exec_block(stmt.body, state)
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - runaway safety net
                raise ExecutionError("reference interpreter: loop bound exceeded")
    else:  # pragma: no cover
        raise ExecutionError(f"unknown statement {stmt!r}")


def _shared_ref(state: _LaneState, addr: int, esize: int, want_writer: bool = False):
    decls = state.shared_decls
    if not decls:
        raise ExecutionError("shared access without shared declarations")
    decl = None
    for d in decls:
        if d.offset <= addr < d.offset + d.nbytes:
            decl = d
            break
    if decl is None:
        raise ExecutionError(f"shared address {addr} out of bounds")
    idx = (addr - decl.offset) // esize
    arrays = state.shared_arrays  # type: ignore[attr-defined]
    if want_writer:
        def write(value):
            arrays[decl.name][idx] = value

        return None, write
    return arrays[decl.name][idx].item(), None
