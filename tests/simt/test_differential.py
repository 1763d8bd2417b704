"""Differential testing: lockstep executor vs the lane-at-a-time reference.

Hypothesis builds random *structured programs* — arithmetic, nested
conditionals, data-dependent loops, early returns — with per-lane-disjoint
memory effects, runs them on both engines, and requires identical global
memory afterwards.  This is the strongest evidence that divergence masks,
loop retirement and return handling implement the IR semantics faithfully.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import Device, DType, Executor, KernelBuilder
from repro.simt.reference import run_reference

LANES = 64

# Program AST: nested tuples built by hypothesis.
#   ("op", name, src_a, src_b)        arithmetic on value indices
#   ("if", cond_spec, then_prog, else_prog)
#   ("loop", bound_mod, body_prog)    while v < (i % bound_mod): ...
#   ("ret", threshold)                return if value > threshold


@st.composite
def programs(draw, depth=0):
    n_stmts = draw(st.integers(1, 4 if depth == 0 else 2))
    stmts = []
    for _ in range(n_stmts):
        choices = ["op", "op", "op"]
        if depth < 2:
            choices += ["if", "loop"]
        if depth > 0:
            choices.append("ret")
        kind = draw(st.sampled_from(choices))
        if kind == "op":
            stmts.append(
                (
                    "op",
                    draw(st.sampled_from(["iadd", "isub", "imul", "imin", "imax", "ixor"])),
                    draw(st.integers(-5, 5)),
                )
            )
        elif kind == "if":
            stmts.append(
                (
                    "if",
                    draw(st.integers(-10, 10)),
                    draw(programs(depth=depth + 1)),  # type: ignore[call-arg]
                    draw(programs(depth=depth + 1)),  # type: ignore[call-arg]
                )
            )
        elif kind == "loop":
            stmts.append(("loop", draw(st.integers(1, 6)), draw(programs(depth=depth + 1))))  # type: ignore[call-arg]
        else:
            stmts.append(("ret", draw(st.integers(-20, 20))))
    return stmts


def _emit(b, stmts, acc, i):
    """Emit the AST; returns the (possibly reassigned) accumulator register."""
    for stmt in stmts:
        if stmt[0] == "op":
            _tag, opname, imm = stmt
            b.assign(acc, getattr(b, opname)(acc, imm))
        elif stmt[0] == "if":
            _tag, threshold, then_prog, else_prog = stmt
            ife = b.if_else(b.ilt(b.imod(acc, 13), threshold))
            with ife.then():
                _emit(b, then_prog, acc, i)
            with ife.otherwise():
                _emit(b, else_prog, acc, i)
        elif stmt[0] == "loop":
            _tag, bound_mod, body = stmt
            j = b.let_i32(0)
            bound = b.imod(i, bound_mod)
            loop = b.while_loop()
            with loop.cond():
                loop.set_cond(b.ilt(j, bound))
            with loop.body():
                _emit(b, body, acc, i)
                b.assign(j, b.iadd(j, 1))
        elif stmt[0] == "ret":
            _tag, threshold = stmt
            b.ret_if(b.igt(b.imod(acc, 17), threshold))


def _build_kernel(prog):
    b = KernelBuilder("diff")
    out = b.param_buf("out", DType.I32)
    i = b.global_thread_id()
    acc = b.let_i32(i)
    _emit(b, prog, acc, i)
    b.st(out, i, acc)
    return b.finalize()


def _run_both(prog):
    kernel = _build_kernel(prog)
    results = []
    for engine in ("lockstep", "reference"):
        dev = Device()
        out = dev.alloc("out", LANES, DType.I32, fill=-999)
        if engine == "lockstep":
            Executor(dev).launch(kernel, 2, LANES // 2, {"out": out})
        else:
            run_reference(kernel, 2, LANES // 2, {"out": out}, dev)
        results.append(dev.download(out))
    return results


@settings(max_examples=120, deadline=None)
@given(programs())
def test_lockstep_matches_reference(prog):
    lockstep, reference = _run_both(prog)
    assert np.array_equal(lockstep, reference)


def test_reference_handles_shared_memory_single_lane_patterns():
    """Sanity: the reference engine runs a per-lane shared scratch kernel."""
    b = KernelBuilder("shref")
    out = b.param_buf("out", DType.I32)
    s = b.shared("s", 32, DType.I32)
    tid = b.tid_x
    b.sst(s, tid, b.imul(tid, 5))
    b.st(out, tid, b.sld(s, tid))
    kernel = b.finalize()
    dev = Device()
    out_b = dev.alloc("out", 32, DType.I32)
    run_reference(kernel, 1, 32, {"out": out_b}, dev)
    assert np.array_equal(dev.download(out_b), np.arange(32) * 5)


def test_reference_atomics_single_lane():
    b = KernelBuilder("atref")
    c = b.param_buf("c", DType.I32)
    b.atomic_add(c, 0, 1)
    kernel = b.finalize()
    dev = Device()
    cb = dev.alloc("c", 1, DType.I32)
    run_reference(kernel, 1, 32, {"c": cb}, dev)
    assert dev.download(cb)[0] == 32


def test_known_tricky_program():
    """Regression anchor: nested loop + return + else-branch arithmetic."""
    prog = [
        ("loop", 5, [("op", "iadd", 3), ("if", 2, [("ret", 5)], [("op", "ixor", 4)])]),
        ("op", "imul", -2),
    ]
    lockstep, reference = _run_both(prog)
    assert np.array_equal(lockstep, reference)
