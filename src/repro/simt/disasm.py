"""Kernel disassembly and static analysis.

``disassemble`` renders a kernel IR as indented PTX-flavoured text — the
debugging view of what the builder DSL produced.  ``static_stats`` computes
compile-time properties: static instruction counts per category, control
structure counts, and a register-pressure estimate (maximum simultaneously
live virtual registers under a linear-scan approximation), which the
occupancy-minded can read next to the dynamic profile.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List

from repro.simt.ir import (
    Atomic,
    Barrier,
    If,
    Imm,
    Instr,
    Kernel,
    Load,
    Operand,
    Reg,
    Return,
    Stmt,
    Store,
    While,
    op_category,
    stmt_regs,
)


def _operand_str(operand: Operand) -> str:
    if isinstance(operand, Reg):
        return f"%{operand.name}"
    if isinstance(operand, Imm):
        return repr(operand.value)
    return f"${operand.name}"


def disassemble(kernel: Kernel) -> str:
    """Render the kernel as readable pseudo-assembly."""
    out = io.StringIO()
    out.write(f".kernel {kernel.name}\n")
    for param in kernel.params:
        kind = "buffer" if param.is_buffer else param.dtype.value
        out.write(f".param {kind} {param.name}\n")
    for decl in kernel.shared:
        out.write(f".shared {decl.dtype.value} {decl.name}[{decl.count}]  // +{decl.offset}B\n")
    _emit_block(out, kernel.body, indent=1)
    return out.getvalue()


def _emit_block(out: io.StringIO, stmts: List[Stmt], indent: int) -> None:
    pad = "  " * indent
    for stmt in stmts:
        if isinstance(stmt, Instr):
            srcs = ", ".join(_operand_str(s) for s in stmt.srcs)
            out.write(f"{pad}{stmt.op.value}.{stmt.dtype.value} %{stmt.dest.name}, {srcs}\n")
        elif isinstance(stmt, Load):
            out.write(
                f"{pad}ld.{stmt.space.value}.{stmt.dtype.value} "
                f"%{stmt.dest.name}, [{_operand_str(stmt.addr)}]\n"
            )
        elif isinstance(stmt, Store):
            out.write(
                f"{pad}st.{stmt.space.value}.{stmt.dtype.value} "
                f"[{_operand_str(stmt.addr)}], {_operand_str(stmt.value)}\n"
            )
        elif isinstance(stmt, Atomic):
            dest = f"%{stmt.dest.name}, " if stmt.dest else ""
            out.write(
                f"{pad}atom.{stmt.op.value}.{stmt.dtype.value} {dest}"
                f"[{_operand_str(stmt.addr)}], {_operand_str(stmt.value)}\n"
            )
        elif isinstance(stmt, Barrier):
            out.write(f"{pad}bar.sync\n")
        elif isinstance(stmt, Return):
            out.write(f"{pad}ret\n")
        elif isinstance(stmt, If):
            out.write(f"{pad}@%{stmt.cond.name} if {{\n")
            _emit_block(out, stmt.then_body, indent + 1)
            if stmt.else_body:
                out.write(f"{pad}}} else {{\n")
                _emit_block(out, stmt.else_body, indent + 1)
            out.write(f"{pad}}}\n")
        elif isinstance(stmt, While):
            out.write(f"{pad}while {{\n")
            _emit_block(out, stmt.cond_body, indent + 1)
            out.write(f"{pad}}} @%{stmt.cond.name} do {{\n")  # type: ignore[union-attr]
            _emit_block(out, stmt.body, indent + 1)
            out.write(f"{pad}}}\n")


@dataclass
class StaticStats:
    """Compile-time properties of one kernel."""

    static_instructions: int
    category_counts: Dict[str, int]
    branches: int
    loops: int
    barriers: int
    max_nesting: int
    #: Upper-bound estimate of simultaneously live virtual registers.
    register_pressure: int
    shared_bytes: int


def static_stats(kernel: Kernel) -> StaticStats:
    """Static instruction counts, structure counts and register pressure."""
    categories: Dict[str, int] = {}
    branches = loops = barriers = 0
    total = 0
    for stmt in kernel.walk():
        total += 1
        if isinstance(stmt, Instr):
            cat = op_category(stmt.op).value
        elif isinstance(stmt, Load):
            cat = f"ld.{stmt.space.value}"
        elif isinstance(stmt, Store):
            cat = f"st.{stmt.space.value}"
        elif isinstance(stmt, Atomic):
            cat = "atomic"
        elif isinstance(stmt, Barrier):
            cat = "barrier"
            barriers += 1
        elif isinstance(stmt, If):
            cat = "branch"
            branches += 1
        elif isinstance(stmt, While):
            cat = "branch"
            loops += 1
        else:
            cat = "branch"  # Return
        categories[cat] = categories.get(cat, 0) + 1
    return StaticStats(
        static_instructions=total,
        category_counts=categories,
        branches=branches,
        loops=loops,
        barriers=barriers,
        max_nesting=_max_nesting(kernel.body),
        register_pressure=_register_pressure(kernel),
        shared_bytes=kernel.shared_bytes,
    )


def _max_nesting(stmts: List[Stmt], depth: int = 0) -> int:
    deepest = depth
    for stmt in stmts:
        if isinstance(stmt, If):
            deepest = max(
                deepest,
                _max_nesting(stmt.then_body, depth + 1),
                _max_nesting(stmt.else_body, depth + 1),
            )
        elif isinstance(stmt, While):
            deepest = max(
                deepest,
                _max_nesting(stmt.cond_body, depth + 1),
                _max_nesting(stmt.body, depth + 1),
            )
    return deepest


def _register_pressure(kernel: Kernel) -> int:
    """Max live virtual registers over a linearisation of the kernel.

    Liveness is approximated over the pre-order statement sequence: a
    register is live from its first definition to its last use anywhere in
    the kernel.  Because loop bodies re-execute, this is the *safe* (upper
    bound) interpretation a register allocator would also have to honour
    for loop-carried values.
    """
    first_def: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for pos, stmt in enumerate(kernel.walk()):
        dest, srcs = stmt_regs(stmt)
        # Special registers are architecturally provided, never allocated.
        for name in srcs:
            if not name.startswith("%"):
                last_use[name] = pos
                first_def.setdefault(name, pos)  # used before def: live from here
        if dest is not None and not dest.startswith("%"):
            first_def.setdefault(dest, pos)
            last_use.setdefault(dest, pos)

    events: Dict[int, int] = {}
    for name in first_def:
        events[first_def[name]] = events.get(first_def[name], 0) + 1
        end = last_use[name] + 1
        events[end] = events.get(end, 0) - 1
    live = peak = 0
    for pos in sorted(events):
        live += events[pos]
        peak = max(peak, live)
    return peak
