"""Seeded structured kernel generator.

A *fuzz case* is a small JSON-serializable dict::

    {"seed": 17, "grid": 4, "block": [48, 1], "stmts": [...]}

``stmts`` is a recursive statement list over a fixed machine model — four
mutable i32 bank registers ``i0..i3``, four f32 bank registers ``f0..f3``,
and a fixed set of buffers (read-only global/const/texture inputs, writable
global outputs, a shared scratch array, integer and float atomic targets).
:func:`build_kernel` lowers a case to IR through the ordinary
:class:`~repro.simt.builder.KernelBuilder`, deterministically — all
randomness lives in :func:`generate_case`, so a case replays bit-identically
forever and the shrinker can edit the statement list directly.

Generation is *guarded*: divisors are forced non-zero, shift amounts are
masked to ``[0, 15]``, addresses are reduced into bounds, and ``f2i`` inputs
are NaN-proofed and range-clamped.  The guards make the only reachable
runtime error a divergent barrier — every engine must then agree not just on
memory but on *whether* the launch faults, which keeps the differential
oracle free of false positives while still covering cross-lane and
deliberately overlapping addressing.

The grammar is *seed-gated*: seeds at or above :data:`ALIAS_SEED_BASE` draw
from an extended kind set that additionally reads the writable ``out`` /
``fout`` buffers (``oload``) and stores into fixed low-index bands of them
(``bandstore``), exercising the batch planner's footprint analysis with
genuine load/store and store/store aliasing.  Seeds at or above
:data:`TILE_SEED_BASE` further draw ``tilestore``: a counted loop storing a
block-strided tile into a buffer of its own, ``tout``, whose tiles overlap
their neighbours' for half the draws — the shape that exercises the
planner's looped-site self-disjointness proof.  Seeds below each base keep
the grammar below it bit-for-bit, so every previously committed corpus
entry still regenerates from its seed unchanged.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.simt.builder import KernelBuilder
from repro.simt.ir import Kernel, MemSpace, Reg
from repro.simt.memory import Device, DeviceBuffer
from repro.simt.types import DType

Case = Dict[str, Any]

#: Sizes of the fixed buffer set that every generated kernel can touch.
#: ``out``/``fout``/``inp``/``finp`` hold one element per 1-D global thread
#: id; the rest are small fixed pools.
CONST_ELEMS = 32
TEX_ELEMS = 64
SHARED_ELEMS = 64
ATOMIC_ELEMS = 16
FATOMIC_ELEMS = 8
OVERLAP_WINDOWS = (4, 8)
#: ``tilestore`` tile widths and its most loop trips; ``tout`` holds that
#: many rows of up to ``max(TILE_WIDTHS)`` elements per block.
TILE_WIDTHS = (8, 16, 32)
TILE_MAX_REPS = 3

_INT_OPS = ("iadd", "isub", "imul", "imin", "imax", "iand", "ior", "ixor")
_INT_UNARY = ("ineg", "iabs")
_FP_OPS = ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax")
_FP_UNARY = ("fneg", "fabs", "ffloor")
_SFU_OPS = ("fsqrt", "fexp", "flog", "fsin", "fcos", "frcp", "fpow")
_FCMP_OPS = ("flt", "fle", "fgt", "fge", "feq", "fne")
_ATOMIC_OPS = ("add", "min", "max", "exch", "cas")


# ---------------------------------------------------------------------------
# Generation


def generate_case(seed: int) -> Case:
    """Generate one fuzz case deterministically from ``seed``."""
    rng = random.Random(seed)
    if seed >= TILE_SEED_BASE:
        kinds = TILE_STMT_KINDS
    elif seed >= ALIAS_SEED_BASE:
        kinds = ALIAS_STMT_KINDS
    else:
        kinds = STMT_KINDS
    block_x = rng.choice((32, 48, 64))
    block_y = 2 if rng.random() < 0.12 else 1
    grid = rng.randint(2, 6)
    return {
        "seed": seed,
        "grid": grid,
        "block": [block_x, block_y],
        "stmts": _gen_stmts(rng, depth=0, budget=rng.randint(3, 12), kinds=kinds),
    }


def _gen_stmts(
    rng: random.Random,
    depth: int,
    budget: int,
    kinds: "Tuple[Tuple[str, float], ...]" = None,
) -> List[Dict[str, Any]]:
    if kinds is None:
        kinds = STMT_KINDS
    stmts = []
    for _ in range(budget):
        stmts.append(_gen_stmt(rng, depth, kinds))
    return stmts


#: Statement kinds and sampling weights — the generator's whole grammar.
#: ``if``/``while`` only occur above the nesting cutoff in ``_gen_stmt``.
STMT_KINDS: Tuple[Tuple[str, float], ...] = (
    ("iop", 10.0),
    ("shift", 2.0),
    ("divmod", 2.0),
    ("fop", 6.0),
    ("fma", 1.5),
    ("sfu", 3.0),
    ("sel", 2.0),
    ("cast", 2.0),
    ("gload", 4.0),
    ("cload", 1.5),
    ("tload", 1.5),
    ("gstore", 4.0),
    ("gstore_overlap", 1.5),
    ("sstore", 2.0),
    ("sload", 2.0),
    ("atomic", 2.5),
    ("barrier", 1.5),
    ("ret", 1.0),
    ("if", 3.0),
    ("while", 2.5),
)

#: Seeds at or above this value draw from the extended, aliasing-capable
#: grammar.  Gating on the seed keeps every pre-existing seed → case mapping
#: bit-identical (adding kinds changes ``rng.choices`` outcomes).
ALIAS_SEED_BASE = 1 << 23

#: The extended grammar: everything above plus reads of the writable
#: ``out``/``fout`` buffers and fixed-band stores into them.
ALIAS_STMT_KINDS: Tuple[Tuple[str, float], ...] = STMT_KINDS + (
    ("oload", 2.5),
    ("bandstore", 2.0),
)

#: Seeds at or above this value draw the tile grammar; it sits above every
#: seed the aliasing band's streams use (``repro.verify`` seeds stay below
#: 2**57).
TILE_SEED_BASE = 1 << 60

#: The tile grammar: the aliasing grammar plus block-strided tile stores.
TILE_STMT_KINDS: Tuple[Tuple[str, float], ...] = ALIAS_STMT_KINDS + (("tilestore", 3.0),)


def _gen_stmt(
    rng: random.Random, depth: int, kinds: Tuple[Tuple[str, float], ...] = STMT_KINDS
) -> Dict[str, Any]:
    avail = [(k, w) for k, w in kinds if depth < 2 or k not in ("if", "while")]
    names = [k for k, _ in avail]
    weights = [w for _, w in avail]
    kind = rng.choices(names, weights=weights, k=1)[0]
    gen = getattr(_CaseGen, kind)
    if kind in ("if", "while"):
        return gen(rng, depth, kinds)
    return gen(rng, depth)


class _CaseGen:
    """One static method per statement kind; each returns a JSON-able dict."""

    @staticmethod
    def iop(rng, depth):
        if rng.random() < 0.2:
            return {"k": "iop", "op": rng.choice(_INT_UNARY), "d": rng.randrange(4), "a": rng.randrange(4)}
        b: Any = rng.randrange(4) if rng.random() < 0.7 else {"imm": rng.randint(-7, 7)}
        return {"k": "iop", "op": rng.choice(_INT_OPS), "d": rng.randrange(4), "a": rng.randrange(4), "b": b}

    @staticmethod
    def shift(rng, depth):
        return {"k": "shift", "op": rng.choice(("ishl", "ishr")), "d": rng.randrange(4), "a": rng.randrange(4), "b": rng.randrange(4)}

    @staticmethod
    def divmod(rng, depth):
        return {"k": "divmod", "op": rng.choice(("idiv", "imod")), "d": rng.randrange(4), "a": rng.randrange(4), "b": rng.randrange(4)}

    @staticmethod
    def fop(rng, depth):
        if rng.random() < 0.25:
            return {"k": "fop", "op": rng.choice(_FP_UNARY), "d": rng.randrange(4), "a": rng.randrange(4)}
        return {"k": "fop", "op": rng.choice(_FP_OPS), "d": rng.randrange(4), "a": rng.randrange(4), "b": rng.randrange(4)}

    @staticmethod
    def fma(rng, depth):
        return {"k": "fma", "d": rng.randrange(4), "a": rng.randrange(4), "b": rng.randrange(4), "c": rng.randrange(4)}

    @staticmethod
    def sfu(rng, depth):
        op = rng.choice(_SFU_OPS)
        stmt = {"k": "sfu", "op": op, "d": rng.randrange(4), "a": rng.randrange(4)}
        if op == "fpow":
            stmt["b"] = rng.randrange(4)
        return stmt

    @staticmethod
    def sel(rng, depth):
        return {
            "k": "sel",
            "bank": rng.choice(("i", "f")),
            "d": rng.randrange(4),
            "a": rng.randrange(4),
            "b": rng.randrange(4),
            "cmp": _gen_cmp(rng),
        }

    @staticmethod
    def cast(rng, depth):
        return {"k": rng.choice(("i2f", "f2i")), "d": rng.randrange(4), "a": rng.randrange(4)}

    @staticmethod
    def gload(rng, depth):
        return {
            "k": "gload",
            "buf": rng.choice(("inp", "finp")),
            "d": rng.randrange(4),
            "mode": rng.choice(("gid", "stride", "rand", "broadcast")),
            "p": rng.choice((1, 2, 3, 7, 13, 37)),
            "r": rng.randrange(4),
        }

    @staticmethod
    def cload(rng, depth):
        return {"k": "cload", "d": rng.randrange(4), "mode": rng.choice(("lin", "rand", "broadcast")), "p": rng.randrange(CONST_ELEMS), "r": rng.randrange(4)}

    @staticmethod
    def tload(rng, depth):
        return {"k": "tload", "d": rng.randrange(4), "mode": rng.choice(("lin", "rand", "broadcast")), "p": rng.randrange(TEX_ELEMS), "r": rng.randrange(4)}

    @staticmethod
    def gstore(rng, depth):
        buf = rng.choice(("out", "fout"))
        return {"k": "gstore", "buf": buf, "src": rng.randrange(4)}

    @staticmethod
    def gstore_overlap(rng, depth):
        buf = rng.choice(("out", "fout"))
        return {"k": "gstore_overlap", "buf": buf, "src": rng.randrange(4), "w": rng.choice(OVERLAP_WINDOWS)}

    @staticmethod
    def oload(rng, depth):
        # Read back a writable output buffer: a genuine load/store hazard,
        # so the batch planner must prove (or group around) disjointness.
        return {
            "k": "oload",
            "buf": rng.choice(("out", "fout")),
            "d": rng.randrange(4),
            "mode": rng.choice(("gid", "rand", "broadcast")),
            "p": rng.randrange(16),
            "r": rng.randrange(4),
        }

    @staticmethod
    def bandstore(rng, depth):
        # Store into a fixed low-index band of an output buffer: collides
        # with the epilogue store on low blocks but nowhere else, so the
        # planner's concrete grouping tier has real work to do.
        return {
            "k": "bandstore",
            "buf": rng.choice(("out", "fout")),
            "src": rng.randrange(4),
            "w": rng.choice(OVERLAP_WINDOWS),
            "c": rng.choice((0, 8, 16, 24)),
        }

    @staticmethod
    def tilestore(rng, depth):
        # Block b stores tout[j*pitch + b*stride + tid.x % w] for j < reps:
        # tiles of width w, ``stride`` = w (disjoint) or w/2 (each tile
        # overlaps its neighbours').
        return {
            "k": "tilestore",
            "src": rng.randrange(4),
            "w": rng.choice(TILE_WIDTHS),
            "half": rng.random() < 0.5,
            "reps": rng.randint(1, TILE_MAX_REPS),
        }

    @staticmethod
    def sstore(rng, depth):
        return {"k": "sstore", "mode": rng.choice(("tid", "xlane", "rand")), "src": rng.randrange(4), "r": rng.randrange(4)}

    @staticmethod
    def sload(rng, depth):
        return {"k": "sload", "d": rng.randrange(4), "mode": rng.choice(("tid", "xlane", "rand")), "r": rng.randrange(4)}

    @staticmethod
    def atomic(rng, depth):
        buf = "fabuf" if rng.random() < 0.25 else "abuf"
        stmt = {
            "k": "atomic",
            "op": rng.choice(_ATOMIC_OPS),
            "buf": buf,
            "idx_mode": rng.choice(("zero", "tid_mod", "rand")),
            "r": rng.randrange(4),
            "v": rng.randrange(4),
            "use_old": rng.random() < 0.4,
            "d": rng.randrange(4),
        }
        if stmt["op"] == "cas":
            stmt["cmp_imm"] = rng.randint(0, 2)
        return stmt

    @staticmethod
    def barrier(rng, depth):
        return {"k": "barrier"}

    @staticmethod
    def ret(rng, depth):
        return {"k": "ret", "cmp": _gen_cmp(rng)}

    @staticmethod
    def if_(rng, depth, kinds=STMT_KINDS):
        stmt = {
            "k": "if",
            "cmp": _gen_cmp(rng),
            "then": _gen_stmts(rng, depth + 1, rng.randint(1, 3), kinds),
            "else": [],
        }
        if rng.random() < 0.5:
            stmt["else"] = _gen_stmts(rng, depth + 1, rng.randint(1, 2), kinds)
        return stmt

    @staticmethod
    def while_(rng, depth, kinds=STMT_KINDS):
        return {
            "k": "while",
            "src": rng.randrange(4),
            "m": rng.randint(1, 4),
            "body": _gen_stmts(rng, depth + 1, rng.randint(1, 3), kinds),
        }


_CaseGen.if_.__name__ = "if"
setattr(_CaseGen, "if", _CaseGen.if_)
setattr(_CaseGen, "while", _CaseGen.while_)


def _gen_cmp(rng: random.Random, depth: int = 0) -> Dict[str, Any]:
    roll = rng.random()
    if depth == 0 and roll < 0.12:
        return {"t": rng.choice(("and", "or")), "l": _gen_cmp(rng, 1), "r": _gen_cmp(rng, 1)}
    if depth == 0 and roll < 0.2:
        return {"t": "not", "c": _gen_cmp(rng, 1)}
    if rng.random() < 0.7:
        m = rng.choice((3, 5, 13))
        return {"t": "i", "a": rng.randrange(4), "m": m, "thr": rng.randint(-1, m)}
    return {"t": "f", "op": rng.choice(_FCMP_OPS), "a": rng.randrange(4), "b": rng.randrange(4)}


# ---------------------------------------------------------------------------
# Lowering to IR


class _Emitter:
    """Deterministically lowers a case's statement list through KernelBuilder."""

    def __init__(self, case: Case) -> None:
        self.case = case
        self.n = case["grid"] * case["block"][0]
        b = KernelBuilder(f"fuzz_{case['seed']}")
        self.b = b
        self.out = b.param_buf("out", DType.I32)
        self.fout = b.param_buf("fout", DType.F32)
        self.inp = b.param_buf("inp", DType.I32)
        self.finp = b.param_buf("finp", DType.F32)
        self.cbuf = b.param_buf("cbuf", DType.F32, space=MemSpace.CONST)
        self.tbuf = b.param_buf("tbuf", DType.F32, space=MemSpace.TEXTURE)
        self.abuf = b.param_buf("abuf", DType.I32)
        self.fabuf = b.param_buf("fabuf", DType.F32)
        if "tilestore" in case_kind_counts(case):
            self.tout = b.param_buf("tout", DType.I32)
        self.shared = b.shared("s", SHARED_ELEMS, DType.I32)

        gid = b.global_thread_id()
        self.i = [
            b.let_i32(gid),
            b.let_i32(b.iadd(b.tid_x, b.imul(b.ctaid_x, 3))),
            b.let_i32(b.iadd(b.imod(gid, 7), 1)),
            b.let_i32(b.ld(self.inp, gid)),
        ]
        self.f = [
            b.let_f32(b.i2f(self.i[0])),
            b.let_f32(b.ld(self.finp, gid)),
            b.let_f32(b.fmul(b.ld(self.finp, gid), 0.5)),
            b.let_f32(b.i2f(self.i[3])),
        ]

    # -- helpers -----------------------------------------------------------

    def gid(self) -> Reg:
        """The canonical 1-D global thread id, recomputed at each use so the
        address expression tree is identical at every store site."""
        return self.b.global_thread_id()

    def pred(self, cmp: Dict[str, Any]) -> Reg:
        b = self.b
        t = cmp["t"]
        if t == "i":
            return b.ilt(b.imod(b.iand(self.i[cmp["a"]], 255), cmp["m"]), cmp["thr"])
        if t == "f":
            return getattr(b, cmp["op"])(self.f[cmp["a"]], self.f[cmp["b"]])
        if t == "not":
            return b.pnot(self.pred(cmp["c"]))
        op = b.pand if t == "and" else b.por
        return op(self.pred(cmp["l"]), self.pred(cmp["r"]))

    def _index_into(self, mode: str, size: int, p: int, r: int) -> Any:
        b = self.b
        if mode in ("gid", "lin"):
            return b.imod(self.gid(), size)
        if mode == "stride":
            return b.imod(b.imul(self.gid(), p), size)
        if mode == "rand":
            return b.imod(b.iand(self.i[r], 0x7FFFFFFF), size)
        return p % size  # broadcast: a uniform immediate index

    # -- statement lowering ------------------------------------------------

    def emit(self) -> Kernel:
        b = self.b
        self._lower(self.case["stmts"])
        # Epilogue: make the whole register file observable so pure compute
        # divergences surface in device memory, not just in profiles.
        acc = b.ixor(b.ixor(self.i[0], self.i[1]), b.ixor(self.i[2], self.i[3]))
        b.st(self.out, self.gid(), acc)
        facc = b.fadd(b.fadd(self.f[0], self.f[1]), b.fadd(self.f[2], self.f[3]))
        b.st(self.fout, self.gid(), facc)
        return b.finalize()

    def _lower(self, stmts: List[Dict[str, Any]]) -> None:
        for stmt in stmts:
            getattr(self, "_s_" + stmt["k"])(stmt)

    def _s_iop(self, s):
        b = self.b
        if s["op"] in _INT_UNARY:
            b.assign(self.i[s["d"]], getattr(b, s["op"])(self.i[s["a"]]))
            return
        rhs = s["b"]
        operand = rhs["imm"] if isinstance(rhs, dict) else self.i[rhs]
        b.assign(self.i[s["d"]], getattr(b, s["op"])(self.i[s["a"]], operand))

    def _s_shift(self, s):
        b = self.b
        amount = b.iand(self.i[s["b"]], 15)
        b.assign(self.i[s["d"]], getattr(b, s["op"])(self.i[s["a"]], amount))

    def _s_divmod(self, s):
        b = self.b
        divisor = b.ior(b.iand(self.i[s["b"]], 255), 1)
        b.assign(self.i[s["d"]], getattr(b, s["op"])(self.i[s["a"]], divisor))

    def _s_fop(self, s):
        b = self.b
        if s["op"] in _FP_UNARY:
            b.assign(self.f[s["d"]], getattr(b, s["op"])(self.f[s["a"]]))
            return
        b.assign(self.f[s["d"]], getattr(b, s["op"])(self.f[s["a"]], self.f[s["b"]]))

    def _s_fma(self, s):
        b = self.b
        b.assign(self.f[s["d"]], b.fma(self.f[s["a"]], self.f[s["b"]], self.f[s["c"]]))

    def _s_sfu(self, s):
        b = self.b
        if s["op"] == "fpow":
            b.assign(self.f[s["d"]], b.fpow(self.f[s["a"]], self.f[s["b"]]))
            return
        b.assign(self.f[s["d"]], getattr(b, s["op"])(self.f[s["a"]]))

    def _s_sel(self, s):
        b = self.b
        bank = self.i if s["bank"] == "i" else self.f
        b.assign(bank[s["d"]], b.sel(self.pred(s["cmp"]), bank[s["a"]], bank[s["b"]]))

    def _s_i2f(self, s):
        b = self.b
        b.assign(self.f[s["d"]], b.i2f(self.i[s["a"]]))

    def _s_f2i(self, s):
        # The scalar reference converts through Python int(), which raises on
        # inf/nan and does not wrap; clamp into a range where every engine's
        # truncation agrees bit-for-bit.
        b = self.b
        x = self.f[s["a"]]
        finite = b.feq(x, x)
        clamped = b.fmax(b.fmin(x, 1.0e6), -1.0e6)
        b.assign(self.i[s["d"]], b.f2i(b.sel(finite, clamped, 0.0)))

    def _s_gload(self, s):
        b = self.b
        buf = self.inp if s["buf"] == "inp" else self.finp
        idx = self._index_into(s["mode"], self.n, s["p"], s["r"])
        value = b.ld(buf, idx)
        bank = self.i if s["buf"] == "inp" else self.f
        b.assign(bank[s["d"]], value)

    def _s_cload(self, s):
        b = self.b
        idx = self._index_into(s["mode"], CONST_ELEMS, s["p"], s["r"])
        b.assign(self.f[s["d"]], b.ld(self.cbuf, idx))

    def _s_tload(self, s):
        b = self.b
        idx = self._index_into(s["mode"], TEX_ELEMS, s["p"], s["r"])
        b.assign(self.f[s["d"]], b.ld(self.tbuf, idx))

    def _s_gstore(self, s):
        b = self.b
        if s["buf"] == "out":
            b.st(self.out, self.gid(), self.i[s["src"]])
        else:
            b.st(self.fout, self.gid(), self.f[s["src"]])

    def _s_gstore_overlap(self, s):
        # Deliberately overlapping cross-lane stores: lanes w apart collide,
        # exercising scatter ordering.  Communicating by construction.
        b = self.b
        idx = b.imod(self.gid(), s["w"])
        if s["buf"] == "out":
            b.st(self.out, idx, self.i[s["src"]])
        else:
            b.st(self.fout, idx, self.f[s["src"]])

    def _s_oload(self, s):
        # Load from a writable output buffer — the same buffers the body
        # and epilogue store to, so the launch is hazard-flagged and the
        # batch planner must reason about actual footprints.
        b = self.b
        if s["buf"] == "out":
            buf, bank = self.out, self.i
        else:
            buf, bank = self.fout, self.f
        idx = self._index_into(s["mode"], self.n, s["p"], s["r"])
        b.assign(bank[s["d"]], b.ld(buf, idx))

    def _s_bandstore(self, s):
        # Store into the fixed band [c, c+w) of an output buffer: every
        # block writes the same band (scatter order keeps that consistent),
        # but only low blocks' epilogue tiles overlap it.
        b = self.b
        idx = b.iadd(b.imod(self.gid(), s["w"]), s["c"])
        if s["buf"] == "out":
            b.st(self.out, idx, self.i[s["src"]])
        else:
            b.st(self.fout, idx, self.f[s["src"]])

    def _s_tilestore(self, s):
        b = self.b
        w = s["w"]
        stride = w // 2 if s["half"] else w
        pitch = (self.case["grid"] - 1) * stride + w
        tile = b.iadd(b.imul(b.ctaid_x, stride), b.imod(b.tid_x, w))
        with b.for_range(0, s["reps"]) as j:
            b.st(self.tout, b.iadd(b.imul(j, pitch), tile), self.i[s["src"]])

    def _shared_index(self, mode: str, r: int) -> Any:
        b = self.b
        if mode == "tid":
            return b.tid_x
        if mode == "xlane":
            return b.imod(b.iadd(b.tid_x, 1), SHARED_ELEMS)
        return b.iand(self.i[r], SHARED_ELEMS - 1)

    def _s_sstore(self, s):
        self.b.sst(self.shared, self._shared_index(s["mode"], s["r"]), self.i[s["src"]])

    def _s_sload(self, s):
        b = self.b
        b.assign(self.i[s["d"]], b.sld(self.shared, self._shared_index(s["mode"], s["r"])))

    def _s_atomic(self, s):
        b = self.b
        if s["buf"] == "abuf":
            buf, elems, bank = self.abuf, ATOMIC_ELEMS, self.i
        else:
            buf, elems, bank = self.fabuf, FATOMIC_ELEMS, self.f
        mode = s["idx_mode"]
        if mode == "zero":
            idx: Any = 0
        elif mode == "tid_mod":
            idx = b.imod(b.tid_x, elems)
        else:
            idx = b.iand(self.i[s["r"]], elems - 1)
        value = bank[s["v"]]
        method = getattr(b, "atomic_" + s["op"])
        if s["op"] == "cas":
            old = method(buf, idx, s["cmp_imm"], value, want_old=s["use_old"])
        else:
            old = method(buf, idx, value, want_old=s["use_old"])
        if s["use_old"]:
            b.assign(bank[s["d"]], old)

    def _s_barrier(self, s):
        self.b.barrier()

    def _s_ret(self, s):
        self.b.ret_if(self.pred(s["cmp"]))

    def _s_if(self, s):
        b = self.b
        if s["else"]:
            ife = b.if_else(self.pred(s["cmp"]))
            with ife.then():
                self._lower(s["then"])
            with ife.otherwise():
                self._lower(s["else"])
        else:
            with b.if_(self.pred(s["cmp"])):
                self._lower(s["then"])

    def _s_while(self, s):
        # Data-dependent but guaranteed-terminating: the bound is captured in
        # a dedicated register before the loop and the counter is only ever
        # advanced by the loop emitter itself.
        b = self.b
        bound = b.imod(b.iand(self.i[s["src"]], 255), s["m"] + 1)
        j = b.let_i32(0)
        loop = b.while_loop()
        with loop.cond():
            loop.set_cond(b.ilt(j, bound))
        with loop.body():
            self._lower(s["body"])
            b.assign(j, b.iadd(j, 1))


def build_kernel(case: Case) -> Kernel:
    """Lower a case to a fresh (never cached) IR kernel."""
    return _Emitter(case).emit()


def make_device(case: Case) -> Tuple[Device, Dict[str, DeviceBuffer]]:
    """Allocate and deterministically initialise the case's buffer set."""
    n = case["grid"] * case["block"][0]
    rng = np.random.default_rng(case["seed"] & 0xFFFFFFFF)
    dev = Device()
    bufs = {
        "out": dev.from_array("out", rng.integers(-50, 50, n).astype(np.int64), DType.I32),
        "fout": dev.from_array("fout", rng.standard_normal(n), DType.F32),
        "inp": dev.from_array("inp", rng.integers(-100, 100, n).astype(np.int64), DType.I32),
        "finp": dev.from_array("finp", rng.standard_normal(n), DType.F32),
        "cbuf": dev.from_array("cbuf", rng.standard_normal(CONST_ELEMS), DType.F32, readonly=True),
        "tbuf": dev.from_array("tbuf", rng.standard_normal(TEX_ELEMS), DType.F32, readonly=True),
        "abuf": dev.from_array("abuf", rng.integers(-10, 10, ATOMIC_ELEMS).astype(np.int64), DType.I32),
        "fabuf": dev.from_array("fabuf", rng.standard_normal(FATOMIC_ELEMS), DType.F32),
    }
    if "tilestore" in case_kind_counts(case):
        tile_elems = TILE_MAX_REPS * max(TILE_WIDTHS) * case["grid"]
        bufs["tout"] = dev.alloc("tout", tile_elems, DType.I32)
    return dev, bufs


# ---------------------------------------------------------------------------
# Introspection helpers


def case_stmt_count(case: Case) -> int:
    """Number of case statements, counting nested bodies."""
    return sum(case_kind_counts(case).values())


def case_kind_counts(case: Case) -> Dict[str, int]:
    """Statements of ``case`` per kind, nested bodies included."""
    kinds: Dict[str, int] = {}

    def walk(stmts):
        for s in stmts:
            kinds[s["k"]] = kinds.get(s["k"], 0) + 1
            if s["k"] == "if":
                walk(s["then"])
                walk(s["else"])
            elif s["k"] == "while":
                walk(s["body"])

    walk(case["stmts"])
    return kinds


def describe_case(case: Case) -> str:
    """One-line human summary of a case."""
    kinds = case_kind_counts(case)
    mix = " ".join(f"{k}x{v}" for k, v in sorted(kinds.items()))
    bx, by = case["block"]
    return f"seed={case['seed']} grid={case['grid']} block={bx}x{by} stmts={case_stmt_count(case)} [{mix}]"
