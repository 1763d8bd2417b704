"""Per-block memory-footprint disjointness analysis for batch planning.

The compiled engine stacks blocks into lockstep batches (see
:mod:`repro.simt.compiled`), which reorders memory operations *across*
blocks: every block in a batch executes program point ``p`` before any of
them reaches ``p+1``.  The whole-launch hazard test
(:func:`repro.simt.compiled._batch_hazard`) detects when that reordering
could be observable, but it is buffer-granular — it pins launches like the
SDK transpose (disjoint per-block output tiles, written in a loop) to one
block per batch even though no two blocks ever touch a common byte.

This module refines the boolean pin into a three-way answer, built from a
single symbolic pass over the lowered IR:

* **Affine address recovery** — every register is tracked as an affine form
  ``const + Σ coeff·sym`` over *bounded symbols*: ``%tid.x``/``%tid.y``
  (domain ``[0, ntid)``), ``%ctaid.x``/``%ctaid.y`` (domain ``[0, nctaid)``,
  flagged as *block* symbols), one fresh symbol per recognised counted loop
  (domain ``[0, trips)``; the step may be any launch constant — an
  immediate, an int param, ``%ntid.*`` or a register the loop never
  assigns), and anonymous bounded symbols for values forced into a range
  by ``imod`` or, as quotients of a non-negative dividend by a positive
  constant, by ``idiv``.  Parameters are bound to their concrete values
  (buffer bases are plain ints at launch time), so an address form is an
  absolute byte expression.  Anything non-affine is ``None`` (unknown); the
  analysis never guesses.  All forms are range-limited to ``±2**62`` so the
  Python-int model can never diverge from the engine's int64 arithmetic.

* **Relevant sites** — every global store, and only the global loads the
  caller names: :func:`repro.simt.compiled.plan_batches` passes the loads
  whose base buffers meet a store's.  Any other load reads a buffer no
  block of the launch writes, so its address, however opaque, cannot
  observe batching.  This rests on the rule the whole-launch hazard test
  already trusts: loaded values never carry a buffer's base, and an
  address derived from a buffer's base stays in that buffer.  Atomics are
  never sites: a launch reaches the analysis only when its atomics
  commute on buffers no other site touches.

* **Symbolic disjointness** — with every relevant site affine, cross-block
  disjointness is decided structurally.  A looped store site is
  *self-disjoint* when its address is injective over its symbol tuple
  (mixed-radix test: sorting terms by stride, each stride must clear the
  span of everything below it, including the element's byte width) or when
  the block-symbol lattice clears the span of the non-block symbols.  Two
  distinct sites are disjoint when their absolute byte intervals do not
  meet at all, or when they tile identically over blocks (equal block
  coefficients) and the block lattice clears the interval of their
  per-block residual difference.  Distinct sites' non-block symbols are
  treated as independent even when shared — the hazard compares *different
  blocks*, whose threads and loop trips are unrelated.

* **Concrete footprints** — when the symbolic proof fails but every site
  is still affine, :func:`block_extents` evaluates each site's per-block
  footprint (block symbols take their per-block values; everything else
  ranges over its domain): its exact byte set when that can be enumerated
  (non-block symbol counts times element size within
  :data:`_ENUM_BUDGET`), else its byte interval.  :func:`group_blocks`
  greedily grows contiguous runs of blocks whose write footprints stay
  disjoint from each other and from the run's read footprints; NW's tiles
  on one anti-diagonal share matrix rows, so their intervals meet while
  their byte sets never do.  Both forms cover every byte a block can
  touch, because every symbol's domain covers the values it stands for
  and the byte set treats distinct symbols as independent.  A single
  straight-line store site may self-overlap inside a run — the scatter's
  highest-lane-wins tie-break already reproduces sequential
  last-block-wins for one site — but looped sites and cross-site overlaps
  end the run.

The orchestration (which tier applies, batch limits, caching) lives in
:func:`repro.simt.compiled.plan_batches`; this module is pure analysis and
holds no launch state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simt.ir import (
    Atomic,
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
    Reg,
    Return,
    Stmt,
    Store,
    While,
    assigned_regs,
    walk_stmts,
)

#: Affine forms are rejected once any reachable value could leave this range,
#: so Python-int reasoning can never disagree with wrapped int64 arithmetic.
_VALUE_LIMIT = 1 << 62

#: Largest block-delta lattice enumerated exactly; bigger grids fall back to
#: "assume a hit" (conservative: the symbolic proof fails, concrete runs).
_LATTICE_ENUM_CAP = 1 << 20

#: Largest per-block byte set (non-block symbol counts times element size)
#: the concrete tier compares exactly; bigger sites compare as intervals.
_ENUM_BUDGET = 1 << 14

#: Largest sum-set enumerated for one site pair's exact comparison; a pair
#: beyond it compares as intervals.
_PAIR_BUDGET = 1 << 16

#: Element bound on the (site pair, block, predecessor) delta arrays
#: :func:`group_blocks` builds at once.
_GROUP_CHUNK = 1 << 16


@dataclass(frozen=True)
class FootSym:
    """One bounded symbol: a value ranging over ``[0, count)``."""

    name: str  #: "%ctaid.x", "%tid.y", "loop", "mod", ...
    count: int
    is_block: bool


@dataclass(frozen=True)
class Aff:
    """Affine form ``const + Σ coeff·sym`` (terms sorted, coeffs non-zero)."""

    const: int
    terms: Tuple[Tuple[int, int], ...]  #: ((sym_index, coeff), ...)


def _aff(const: int = 0, terms: Sequence[Tuple[int, int]] = ()) -> Aff:
    return Aff(int(const), tuple(sorted((i, c) for i, c in terms if c)))


def _add(a: Optional[Aff], b: Optional[Aff], sign: int = 1) -> Optional[Aff]:
    if a is None or b is None:
        return None
    coeffs = dict(a.terms)
    for i, c in b.terms:
        coeffs[i] = coeffs.get(i, 0) + sign * c
    return _aff(a.const + sign * b.const, coeffs.items())


def _scale(a: Optional[Aff], k: int) -> Optional[Aff]:
    if a is None:
        return None
    return _aff(a.const * k, ((i, c * k) for i, c in a.terms))


def _const_of(a: Optional[Aff]) -> Optional[int]:
    if a is not None and not a.terms:
        return a.const
    return None


@dataclass(frozen=True)
class FootSite:
    """One static global-memory site with a resolved byte-address form."""

    kind: str  #: "store" | "load"
    aff: Optional[Aff]  #: ``None`` when the address is not provably affine
    esize: int
    in_loop: bool
    sid: int


@dataclass
class Footprints:
    """Result of :func:`analyze`: symbols plus every relevant site."""

    syms: List[FootSym]
    sites: List[FootSite]

    @property
    def complete(self) -> bool:
        return all(site.aff is not None for site in self.sites)


def _range(aff: Aff, syms: List[FootSym]) -> Tuple[int, int]:
    lo = hi = aff.const
    for i, c in aff.terms:
        extent = c * (syms[i].count - 1)
        if extent < 0:
            lo += extent
        else:
            hi += extent
    return lo, hi


def _checked(aff: Optional[Aff], syms: List[FootSym]) -> Optional[Aff]:
    if aff is None:
        return None
    lo, hi = _range(aff, syms)
    if lo <= -_VALUE_LIMIT or hi >= _VALUE_LIMIT:
        return None
    return aff


class _Pass:
    """One abstract walk of the kernel body, collecting affine sites."""

    def __init__(
        self,
        grid: Tuple[int, int],
        block: Tuple[int, int],
        params_by_name: Dict,
        loads: Optional[AbstractSet[int]],
    ) -> None:
        self.grid = grid
        self.block = block
        self.params = params_by_name
        self.loads = loads
        self.syms: List[FootSym] = []
        self._sreg_aff: Dict[str, Optional[Aff]] = {}
        self.env: Dict[str, Optional[Aff]] = {}
        self.sites: List[FootSite] = []
        self._depth = 0

    # -- symbols -----------------------------------------------------------

    def _new_sym(self, name: str, count: int, is_block: bool = False) -> Aff:
        if count <= 1:
            return _aff(0)
        self.syms.append(FootSym(name, count, is_block))
        return _aff(0, ((len(self.syms) - 1, 1),))

    def _sreg(self, name: str) -> Optional[Aff]:
        cached = self._sreg_aff.get(name)
        if cached is not None:
            return cached
        gx, gy = self.grid
        bx, by = self.block
        if name == "%tid.x":
            aff = self._new_sym(name, bx)
        elif name == "%tid.y":
            aff = self._new_sym(name, by)
        elif name == "%ctaid.x":
            aff = self._new_sym(name, gx, is_block=True)
        elif name == "%ctaid.y":
            aff = self._new_sym(name, gy, is_block=True)
        elif name == "%ntid.x":
            aff = _aff(bx)
        elif name == "%ntid.y":
            aff = _aff(by)
        elif name == "%nctaid.x":
            aff = _aff(gx)
        elif name == "%nctaid.y":
            aff = _aff(gy)
        else:
            return None
        self._sreg_aff[name] = aff
        return aff

    # -- operand evaluation ------------------------------------------------

    def _value(self, operand: Operand) -> Optional[Aff]:
        if isinstance(operand, Imm):
            v = operand.value
            if isinstance(v, bool) or not isinstance(v, int):
                return None
            return _aff(v)
        if isinstance(operand, ParamRef):
            v = self.params.get(operand.name)
            if isinstance(v, bool) or not isinstance(v, int):
                return None
            return _aff(v)
        name = operand.name
        if name.startswith("%"):
            return self._sreg(name)
        return self.env.get(name)

    def _eval_instr(self, stmt: Instr) -> Optional[Aff]:
        op = stmt.op
        vals = [self._value(s) for s in stmt.srcs]
        if op is Op.MOV:
            return vals[0]
        if op is Op.IADD:
            return _add(vals[0], vals[1])
        if op is Op.ISUB:
            return _add(vals[0], vals[1], sign=-1)
        if op is Op.INEG:
            return _scale(vals[0], -1)
        if op is Op.IMUL:
            for a, b in ((vals[0], vals[1]), (vals[1], vals[0])):
                k = _const_of(b)
                if k is not None:
                    return _scale(a, k)
            return None
        if op is Op.ISHL:
            k = _const_of(vals[1])
            if k is not None and 0 <= k < 62:
                return _scale(vals[0], 1 << k)
            return None
        if op is Op.IMOD:
            m = _const_of(vals[1])
            if m is None or m == 0:
                return None
            m = abs(m)
            a = vals[0]
            if a is not None:
                lo, hi = _range(a, self.syms)
                if 0 <= lo and hi < m:
                    return a  # the mod is a no-op on this range
                if lo >= 0:
                    # Non-negative dividend: result lands in [0, m).
                    return self._new_sym("mod", m)
            # Truncating mod of an arbitrary int64 lands in (-m, m).
            return _add(_aff(-(m - 1)), self._new_sym("mod", 2 * m - 1))
        if op is Op.IDIV:
            a, b = _const_of(vals[0]), _const_of(vals[1])
            if a is not None and b is not None and b != 0:
                q = abs(a) // abs(b)
                return _aff(-q if (a < 0) != (b < 0) else q)
            if vals[0] is not None and b is not None and b > 0:
                lo, hi = _range(vals[0], self.syms)
                if lo >= 0:
                    # Non-negative dividend: the quotient lands in
                    # [lo//b, hi//b], the bounded-symbol analogue of imod.
                    return _add(_aff(lo // b), self._new_sym("div", hi // b - lo // b + 1))
            return None
        if op is Op.IABS:
            a = _const_of(vals[0])
            return _aff(abs(a)) if a is not None else None
        if op in (Op.IMIN, Op.IMAX, Op.IAND, Op.IOR, Op.IXOR, Op.ISHR):
            a, b = _const_of(vals[0]), _const_of(vals[1])
            if a is None or b is None:
                return None
            if op is Op.IMIN:
                return _aff(min(a, b))
            if op is Op.IMAX:
                return _aff(max(a, b))
            if op is Op.IAND:
                return _aff(a & b)
            if op is Op.IOR:
                return _aff(a | b)
            if op is Op.IXOR:
                return _aff(a ^ b)
            if 0 <= b < 64:
                return _aff(a >> b)
            return None
        return None  # floats, predicates, casts: never address material

    # -- statement walk ----------------------------------------------------

    def run(self, kernel: Kernel) -> Footprints:
        self._walk(kernel.body)
        return Footprints(self.syms, self.sites)

    def _walk(self, stmts: Sequence[Stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _site(self, kind: str, addr: Operand, esize: int, sid: int) -> None:
        aff = _checked(self._value(addr), self.syms)
        self.sites.append(FootSite(kind, aff, esize, self._depth > 0, sid))

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Instr):
            self.env[stmt.dest.name] = _checked(self._eval_instr(stmt), self.syms)
        elif isinstance(stmt, Load):
            if stmt.space is MemSpace.GLOBAL and (
                self.loads is None or stmt.sid in self.loads
            ):
                self._site("load", stmt.addr, stmt.dtype.element_size, stmt.sid)
            self.env[stmt.dest.name] = None
        elif isinstance(stmt, Store):
            if stmt.space is not MemSpace.SHARED:
                self._site("store", stmt.addr, stmt.dtype.element_size, stmt.sid)
        elif isinstance(stmt, Atomic):
            # Only commuting atomics on buffers of their own reach the
            # analysis (see plan_batches): no order of them is observable.
            if stmt.dest is not None:
                self.env[stmt.dest.name] = None
        elif isinstance(stmt, (Barrier, Return)):
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
                merged[name] = a if a == b else None
            self.env = merged
        elif isinstance(stmt, While):
            self._while(stmt)

    def _while(self, stmt: While) -> None:
        assigned = assigned_regs(stmt.cond_body) | assigned_regs(stmt.body)
        induction = None
        counted = _match_counted(stmt, assigned)
        if counted is not None:
            ivar, step_op, stop_op, cmp_op = counted
            start = self.env.get(ivar)
            stop = self._value(stop_op)
            diff = _add(stop, start, sign=-1)
            step = _const_of(self._value(step_op))
            if diff is not None and step and (cmp_op is Op.ILT) == (step > 0):
                dlo, dhi = _range(diff, self.syms)
                # Worst-case trip count over all lanes; the loop symbol's
                # domain only needs to *cover* the iterate set to be sound.
                top = dhi if cmp_op is Op.ILT else -dlo
                trips = max(1, -(-top // abs(step)))
                induction = (ivar, start, step, trips)
        # Loop-carried registers hold iteration-dependent values: demote
        # them before the walk (stale pre-loop forms must not survive) and
        # after (post-loop uses see the final, unknown iterate).  Values
        # recomputed inside the body from sregs/params regain their forms.
        for name in assigned:
            self.env[name] = None
        if induction is not None:
            ivar, start, step, trips = induction
            k = self._new_sym("loop", trips)
            self.env[ivar] = _checked(_add(start, _scale(k, step)), self.syms)
        self._depth += 1
        self._walk(stmt.cond_body)
        self._walk(stmt.body)
        self._depth -= 1
        for name in assigned:
            self.env[name] = None


def _match_counted(stmt: While, assigned: set):
    """Recognise the builder's counted-loop shape, or ``None``.

    Matches ``while (ivar < stop)``/``(ivar > stop)`` whose body ends with
    the canonical ``t = ivar + step; ivar = t`` increment, with ``ivar``
    assigned nowhere else and ``stop`` and ``step`` stable across
    iterations: an immediate, a param, a special register or a register
    the loop never assigns.  Returns ``(ivar_name, step_operand,
    stop_operand, cmp_op)``; the caller resolves ``step`` to a launch
    constant (and its sign to the comparison) or gives the loop up.
    """
    cb = stmt.cond_body
    if len(cb) != 1 or not isinstance(cb[0], Instr):
        return None
    cmp = cb[0]
    if cmp.op not in (Op.ILT, Op.IGT) or len(cmp.srcs) != 2:
        return None
    if not isinstance(stmt.cond, Reg) or cmp.dest.name != stmt.cond.name:
        return None
    ivar_op, stop_op = cmp.srcs
    if not isinstance(ivar_op, Reg):
        return None
    body = stmt.body
    if len(body) < 2:
        return None
    inc, mv = body[-2], body[-1]
    if not (
        isinstance(mv, Instr)
        and mv.op is Op.MOV
        and mv.dest.name == ivar_op.name
        and len(mv.srcs) == 1
        and isinstance(mv.srcs[0], Reg)
    ):
        return None
    if not (
        isinstance(inc, Instr)
        and inc.op is Op.IADD
        and inc.dest.name == mv.srcs[0].name
        and len(inc.srcs) == 2
    ):
        return None
    a, b = inc.srcs
    if isinstance(a, Reg) and a.name == ivar_op.name:
        step_op = b
    elif isinstance(b, Reg) and b.name == ivar_op.name:
        step_op = a
    else:
        return None
    for inner in walk_stmts(list(stmt.cond_body) + list(body[:-1])):
        if isinstance(inner, (Instr, Load)) and inner.dest.name == ivar_op.name:
            return None
        if (
            isinstance(inner, Atomic)
            and inner.dest is not None
            and inner.dest.name == ivar_op.name
        ):
            return None
    for op in (stop_op, step_op):
        if isinstance(op, Reg) and op.name in assigned:
            return None
    return ivar_op.name, step_op, stop_op, cmp.op


def analyze(
    kernel: Kernel,
    grid: Tuple[int, int],
    block: Tuple[int, int],
    params_by_name: Dict,
    loads: Optional[AbstractSet[int]] = None,
) -> Footprints:
    """Collect affine byte-address forms for every relevant memory site.

    Every global store and atomic is a site; of the global loads, those
    whose ``sid`` is in ``loads`` (``None``: every one).
    :func:`~repro.simt.compiled.plan_batches` passes the load sites
    whose base buffers (from the base-pointer dataflow, resolved through
    the bound buffers) meet the launch's store bases: any other load reads
    a buffer no block of this launch writes, so it cannot observe a
    neighbour's store however it is addressed.
    """
    return _Pass(grid, block, params_by_name, loads).run(kernel)


# ---------------------------------------------------------------------------
# Symbolic disjointness


def _block_coeffs(aff: Aff, syms: List[FootSym]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for i, c in aff.terms:
        if syms[i].is_block:
            out[syms[i].name] = out.get(syms[i].name, 0) + c
    return out


def _mixed_radix_injective(terms: List[Tuple[int, int]]) -> bool:
    """Injectivity of ``Σ stride·v`` over independent ``v ∈ [0, count)``.

    Sufficient condition: in ascending stride order, each stride strictly
    clears the total span of everything below it (the classic mixed-radix
    digit argument).  Equal strides always fail.
    """
    span = 0
    for stride, count in sorted(terms):
        if stride <= span:
            return False
        span += stride * (count - 1)
    return True


def _lattice_hits_interval(
    cmap: Dict[str, int], grid: Tuple[int, int], lo: int, hi: int
) -> bool:
    """Whether any non-zero block delta lands ``Σ coeff·δ`` inside [lo, hi].

    Deltas range over ``δx ∈ (-gx, gx)``, ``δy ∈ (-gy, gy)`` with
    ``(δx, δy) ≠ (0, 0)``; a dimension missing from ``cmap`` contributes
    coefficient 0 (two blocks differing only there collide at distance 0).
    Grids beyond the enumeration cap conservatively report a hit.
    """
    gx, gy = grid
    if (2 * gx - 1) * (2 * gy - 1) > _LATTICE_ENUM_CAP:
        return True
    cx = cmap.get("%ctaid.x", 0)
    cy = cmap.get("%ctaid.y", 0)
    dx = np.arange(-(gx - 1), gx, dtype=np.int64) * cx
    dy = np.arange(-(gy - 1), gy, dtype=np.int64) * cy
    values = dx[:, None] + dy[None, :]
    hits = (values >= lo) & (values <= hi)
    hits[gx - 1, gy - 1] = False  # δ = (0, 0) is not a cross-block pair
    return bool(hits.any())


def _self_disjoint(site: FootSite, syms: List[FootSym], grid: Tuple[int, int]) -> bool:
    """No two *different* blocks ever write a common byte through ``site``."""
    aff = site.aff
    cmap = _block_coeffs(aff, syms)
    if grid[0] > 1 and not cmap.get("%ctaid.x"):
        return False
    if grid[1] > 1 and not cmap.get("%ctaid.y"):
        return False
    terms = [(abs(c), syms[i].count) for i, c in aff.terms]
    terms.append((1, site.esize))  # element bytes behave like one more digit
    if _mixed_radix_injective(terms):
        return True
    rest_span = site.esize - 1
    for i, c in aff.terms:
        if not syms[i].is_block:
            rest_span += abs(c) * (syms[i].count - 1)
    return not _lattice_hits_interval(cmap, grid, -rest_span, rest_span)


def _pair_disjoint(
    a: FootSite, b: FootSite, syms: List[FootSym], grid: Tuple[int, int]
) -> bool:
    """No block's accesses through ``a`` meet a *different* block's ``b``."""
    alo, ahi = _range(a.aff, syms)
    blo, bhi = _range(b.aff, syms)
    if ahi + a.esize - 1 < blo or bhi + b.esize - 1 < alo:
        return True  # the absolute byte intervals never meet at all
    ca = _block_coeffs(a.aff, syms)
    cb = _block_coeffs(b.aff, syms)
    if ca != cb:
        return False
    # Identical block tiling: the difference of the two addresses is the
    # block-lattice value plus a residual built from each site's non-block
    # symbols, which are independent across the two (different) blocks.
    ralo = rahi = a.aff.const
    for i, c in a.aff.terms:
        if not syms[i].is_block:
            extent = c * (syms[i].count - 1)
            ralo += min(extent, 0)
            rahi += max(extent, 0)
    rblo = rbhi = b.aff.const
    for i, c in b.aff.terms:
        if not syms[i].is_block:
            extent = c * (syms[i].count - 1)
            rblo += min(extent, 0)
            rbhi += max(extent, 0)
    diff_lo = ralo - (rbhi + b.esize - 1)
    diff_hi = (rahi + a.esize - 1) - rblo
    return not _lattice_hits_interval(ca, grid, -diff_hi, -diff_lo)


def symbolically_disjoint(fp: Footprints, grid: Tuple[int, int]) -> bool:
    """Prove the launch's cross-block memory operations can never collide.

    Requires every looped store site to be self-disjoint across blocks and
    every store×store / store×load site pair to be cross-block disjoint.
    Straight-line single-site self-overlap needs no proof: one scatter's
    highest-lane-wins tie-break already reproduces sequential block order.
    """
    if not fp.complete:
        return False
    stores = [s for s in fp.sites if s.kind == "store"]
    loads = [s for s in fp.sites if s.kind == "load"]
    for site in stores:
        if site.in_loop and not _self_disjoint(site, fp.syms, grid):
            return False
    for i, a in enumerate(stores):
        for b in stores[i + 1 :]:
            if not _pair_disjoint(a, b, fp.syms, grid):
                return False
        for b in loads:
            if not _pair_disjoint(a, b, fp.syms, grid):
                return False
    return True


# ---------------------------------------------------------------------------
# Concrete per-block footprints and greedy grouping


def block_extents(fp: Footprints, grid: Tuple[int, int], nblocks: int):
    """Per-block byte footprints for every site, or ``None``.

    Returns a list of ``(kind, in_loop, lo, hi, digits)``.  ``lo``/``hi``
    are int64 arrays of length ``nblocks`` (inclusive byte bounds): block
    symbols are evaluated at each block's coordinates, every other symbol
    contributes its full range.  ``digits`` describes the exact byte set
    when it can be enumerated — the product of the site's non-block symbol
    counts and its element size is at most :data:`_ENUM_BUDGET` — as
    ``(stride, count)`` progressions whose sum-set is the set of byte
    offsets from ``lo`` (the element bytes are the digit ``(1, esize)``);
    otherwise ``digits`` is ``None`` and the footprint is the whole
    interval.  ``None`` when any site's address is not affine.
    """
    if not fp.complete:
        return None
    la = np.arange(nblocks, dtype=np.int64)
    cx = la % grid[0]
    cy = la // grid[0]
    out = []
    for site in fp.sites:
        lo = hi = site.aff.const
        blk = np.zeros(nblocks, dtype=np.int64)
        digits = [(1, site.esize)]
        size = site.esize
        for i, c in site.aff.terms:
            sym = fp.syms[i]
            if sym.is_block:
                blk = blk + c * (cx if sym.name == "%ctaid.x" else cy)
            else:
                extent = c * (sym.count - 1)
                lo += min(extent, 0)
                hi += max(extent, 0)
                digits.append((abs(c), sym.count))
                size *= sym.count
        exact = tuple(digits) if size <= _ENUM_BUDGET else None
        out.append((site.kind, site.in_loop, blk + lo, blk + hi + site.esize - 1, exact))
    return out


@lru_cache(maxsize=32)
def _sum_set(digits: Tuple[Tuple[int, int], ...]) -> Optional[np.ndarray]:
    """Sorted ``{Σ k·stride : 0 <= k < count}`` over ``digits``, or ``None``
    when it would exceed :data:`_PAIR_BUDGET` elements.  Cached: launches
    of one kernel repeat their digit lists.

    Progressions are merged in ascending stride order wherever the smaller
    one bridges the larger one's step (``count·stride >= next stride``,
    which leaves a contiguous progression), so dense tiles stay small.
    """
    merged: List[List[int]] = []
    for stride, count in sorted(digits):
        if count <= 1:
            continue
        if merged and stride % merged[-1][0] == 0 and merged[-1][1] * merged[-1][0] >= stride:
            merged[-1][1] += (count - 1) * (stride // merged[-1][0])
        else:
            merged.append([stride, count])
    if int(np.prod([count for _, count in merged])) > _PAIR_BUDGET:
        return None
    values = np.zeros(1, dtype=np.int64)
    for stride, count in merged:
        spread = int(values[-1])
        values = (stride * np.arange(count, dtype=np.int64)[:, None] + values).ravel()
        if stride <= spread:  # digits overlap: restore sorted, unique order
            values = np.unique(values)
    return values


def group_blocks(extents, nblocks: int, cap: int):
    """Greedily grow contiguous runs of footprint-compatible blocks.

    A block joins the current run unless one of its write footprints meets
    a write of a block already in the run at a *different* site (or the
    same site when that site is looped — iteration reordering breaks
    scatter parity), one of its writes meets a run block's read, or one of
    its reads meets a run block's write.  Returns ``(group_of, groups,
    largest)``: a non-decreasing int array mapping linear block id to group
    id, the group count, and the widest group.

    With ``O_s`` the byte offsets of site ``s`` from its ``lo`` and
    ``span_s`` their extent, block ``b``'s ``s`` meets block ``b'``'s ``t``
    exactly when ``x = lo_s[b] - lo_t[b'] + span_s`` lies in
    ``O_t - O_s + span_s``.  When both sites carry ``digits`` (see
    :func:`block_extents`) that set is the sum-set of both digit lists;
    otherwise it is taken to be the whole interval ``[0, span_s +
    span_t]``.  One test serves both: every site pair's deltas to the
    ``cap - 1`` preceding blocks are held to the interval bounds at once,
    then those of exact pairs are looked up in their sorted sum-set.
    """
    hull = [(int(e[2].min()), int(e[2].max()), int(e[3][0] - e[2][0])) for e in extents]
    tests = []
    for si, s in enumerate(extents):
        for ti, t in enumerate(extents):
            if s[0] == "load" and t[0] == "load":
                continue
            if si == ti and not s[1]:
                continue  # single-shot same-site: scatter order parity
            (smin, smax, span_s), (tmin, tmax, span_t) = hull[si], hull[ti]
            width = span_s + span_t
            if smin + span_s - tmax > width or smax + span_s - tmin < 0:
                continue  # no two blocks' footprints meet at all
            exact = None
            if s[4] is not None and t[4] is not None:
                exact = tuple(sorted(s[4] + t[4]))
            tests.append((si, ti, span_s, width, exact))
    # near[b]: distance back to the closest block b collides with.
    look = min(cap, nblocks) - 1
    near = np.full(nblocks, nblocks, dtype=np.int64)
    if tests and look > 0:
        lo_s = np.stack([extents[test[0]][2] for test in tests])
        lo_t = np.stack([extents[test[1]][2] for test in tests])
        span = np.array([test[2] for test in tests], dtype=np.int64)[:, None, None]
        width = np.array([test[3] for test in tests], dtype=np.int64)[:, None, None]
        exact_rows: Dict[tuple, List[int]] = {}
        for r, test in enumerate(tests):
            if test[4] is not None:
                exact_rows.setdefault(test[4], []).append(r)
        back = np.arange(1, look + 1, dtype=np.int64)
        rows = max(1, _GROUP_CHUNK // (len(tests) * look))
        for first in range(1, nblocks, rows):
            blocks = np.arange(first, min(first + rows, nblocks), dtype=np.int64)
            prev = blocks[:, None] - back
            x = lo_s[:, blocks, None] + span - lo_t[:, np.maximum(prev, 0)]
            hit = (prev >= 0) & (x >= 0) & (x <= width)
            for digits, idx in exact_rows.items():
                sub = hit[idx]
                if not sub.any():
                    continue
                values = _sum_set(digits)
                if values is not None:
                    # values[-1] is the largest sum, the pair's width: every
                    # position found indexes an element.
                    xs = x[idx][sub]
                    sub[sub] = values[np.searchsorted(values, xs)] == xs
                    hit[idx] = sub
            collide = hit.any(axis=0)
            near[blocks] = np.where(collide.any(axis=1), collide.argmax(axis=1) + 1, nblocks)
    group_of = np.zeros(nblocks, dtype=np.int64)
    group = 0
    start = 0
    largest = 1
    for b, dist in enumerate(near.tolist()):
        if b and (b - start >= cap or dist <= b - start):
            group += 1
            start = b
        largest = max(largest, b - start + 1)
        group_of[b] = group
    return group_of, group + 1, largest
