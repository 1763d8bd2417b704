"""Lockstep SIMT execution engine.

Each thread block executes with all of its lanes in lockstep over numpy
arrays; divergence is expressed through boolean lane masks.  For the
structured IR this is semantically equivalent to a per-warp PDOM
reconvergence stack: every ``If``/``While`` region reconverges at its end,
which is the immediate post-dominator of the divergence point.

Blocks execute sequentially (CUDA guarantees nothing about inter-block
ordering; any workload relying on it is out of spec).  Barriers are
functional no-ops under lockstep but are validated: all non-retired lanes
must be active at a barrier, mirroring CUDA's "no divergent __syncthreads"
rule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simt.errors import ExecutionError, LaunchError
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
    OpCategory,
    Operand,
    Reg,
    Return,
    Stmt,
    Store,
    While,
    op_category,
)
from repro.simt.compiled import (
    _LOAD_CATEGORY,
    _OP_FUNCS,
    _trunc_div,
    _trunc_mod,
    compile_kernel,
    run_compiled_launch,
)
from repro.simt.events import (
    BRANCH_KIND_CODE,
    CATEGORY_CODE,
    MEM_KIND_CODE,
    SPACE_CODE,
    EventBatch,
    EventRecorder,
)
from repro.simt.memory import ADDRESS_LIMIT, Device, DeviceBuffer, SharedMemory
from repro.simt.sink import TraceSink
from repro.simt.types import WARP_SIZE, DType
from repro.telemetry import get_telemetry

DimLike = Union[int, Tuple[int, int]]

#: Signature: (linear block index, total blocks) -> should this block be profiled?
ProfileFilter = Callable[[int, int], bool]


def profile_all_blocks(block_idx: int, nblocks: int) -> bool:
    """Profile every block (the default)."""
    return True


def stride_sampler(max_blocks: int) -> ProfileFilter:
    """Profile at most ``max_blocks`` blocks, spread evenly over the grid.

    Characterization papers routinely sample; spreading the sample across the
    grid captures boundary blocks (which often behave differently) as well as
    interior ones.
    """
    if max_blocks <= 0:
        raise LaunchError("stride_sampler needs max_blocks >= 1")

    def _filter(block_idx: int, nblocks: int) -> bool:
        if nblocks <= max_blocks:
            return True
        stride = nblocks / max_blocks
        return int(block_idx / stride) != int((block_idx - 1) / stride) if block_idx else True

    return _filter


def _as_dim(dim: DimLike, what: str) -> Tuple[int, int]:
    if isinstance(dim, int):
        dim = (dim, 1)
    x, y = dim
    if x <= 0 or y <= 0:
        raise LaunchError(f"{what} dimensions must be positive, got {dim}")
    return int(x), int(y)


#: Supported execution engines (see :mod:`repro.simt.compiled` for the
#: compiled/batched one; "interpreted" is the reference statement walker).
ENGINES = ("compiled", "interpreted")


def _launch_record(engine: str, nblocks: int) -> Dict[str, object]:
    """A fresh launch record, the one place a launch's stats are kept.

    Both engines fill the same fields.  The batching fields (``batches``,
    ``batched_blocks``, ``largest_batch``, ``batch_limit``) and the plan
    fields (``hazard_tier``, ``pin_reason``, ``batch_groups``) describe the
    compiled engine's multi-block batches; the interpreter runs one block
    at a time and leaves them at their defaults.  The observation fields
    are counted by :meth:`Executor._deliver` for either engine.
    """
    return {
        "engine": engine,
        "blocks": nblocks,
        "profiled_blocks": 0,
        "batches": 0,
        "batched_blocks": 0,
        "largest_batch": 0,
        "observed_batches": 0,
        "event_counts": {"instr": 0, "mem": 0, "branch": 0},
        "event_bytes": 0,
        "batch_limit": 1,
        "hazard_tier": None,
        "pin_reason": None,
        "batch_groups": None,
    }


#: Record fields the per-executor totals sum; the totals also keep the
#: per-kind ``event_counts`` and the running maximum ``largest_batch``.
_SUMMED = (
    "blocks", "profiled_blocks", "batches", "batched_blocks", "observed_batches", "event_bytes",
)
_TOTALLED = _SUMMED + ("largest_batch", "event_counts")
#: Scalar record fields mirrored onto each ``launch`` span.
_SPAN_FIELDS = (
    "profiled_blocks", "hazard_tier", "pin_reason", "batch_groups",
    "batches", "largest_batch", "observed_batches", "event_bytes",
)


class Executor:
    """Launches kernels on a :class:`~repro.simt.memory.Device`.

    Parameters
    ----------
    device:
        The device holding global memory.
    sinks:
        Trace sinks receiving dynamic-execution events.
    profile_filter:
        Selects which blocks emit events.  Functional execution always covers
        every block; only *observation* is sampled.
    engine:
        ``"compiled"`` (default) lowers each kernel once into specialised
        closures and batches unprofiled blocks; ``"interpreted"`` walks the
        IR per block.  Both produce bit-identical memory and profiles.
    batch_blocks:
        Override the number of blocks stacked per batch (compiled engine
        only).  ``None`` auto-sizes from the block's lane count; the batch
        planner caps it (a launch whose atomics do not commute runs one
        block at a time).
    block_order:
        Optional permutation of linear block indices for the interpreted
        engine: blocks are *visited* in this order while keeping their
        identities (``%ctaid`` is still derived from each block's own
        linear index, and the profile filter still sees the block's
        identity).  CUDA guarantees nothing about inter-block scheduling,
        so hazard-free kernels must be insensitive to this — the
        ``repro.verify`` launch-order properties drive it.  Only the
        interpreted engine supports it.
    """

    def __init__(
        self,
        device: Device,
        sinks: Sequence[TraceSink] = (),
        profile_filter: ProfileFilter = profile_all_blocks,
        engine: str = "compiled",
        batch_blocks: Optional[int] = None,
        block_order: Optional[Sequence[int]] = None,
    ) -> None:
        if engine not in ENGINES:
            raise LaunchError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if block_order is not None and engine != "interpreted":
            raise LaunchError(
                "block_order is only supported by the interpreted engine"
            )
        self.device = device
        self.sinks = list(sinks)
        self.profile_filter = profile_filter
        self.engine = engine
        self.batch_blocks = batch_blocks
        self.block_order = None if block_order is None else [int(b) for b in block_order]
        #: The current (or last finished) launch's :func:`_launch_record`.
        self.last_launch_stats: Dict[str, object] = {}
        #: Running totals over every launch this executor has driven —
        #: the per-workload aggregate surfaced by ``characterize --json``.
        self.launch_stats_totals: Dict[str, object] = {
            "engine": engine,
            "launches": 0,
            **{k: v for k, v in _launch_record(engine, 0).items() if k in _TOTALLED},
            "hazard_tiers": {},
        }

    def hook_subscriptions(self) -> frozenset:
        """Union of the attached sinks' event subscriptions.

        Both engines specialize a launch to this set: unsubscribed events
        are never recorded (the compiled engine doesn't even generate their
        hooks), so a demand-driven sink makes the whole launch cheaper.
        """
        subs: set = set()
        for sink in self.sinks:
            subs |= sink.subscriptions()
        return frozenset(subs)

    def launch(
        self,
        kernel: Kernel,
        grid: DimLike,
        block: DimLike,
        args: Optional[Dict[str, Union[int, float, DeviceBuffer]]] = None,
    ) -> None:
        """Execute ``kernel`` over the given grid.

        ``args`` maps parameter names to Python scalars or device buffers.
        """
        grid = _as_dim(grid, "grid")
        block = _as_dim(block, "block")
        nblocks = grid[0] * grid[1]
        nthreads = block[0] * block[1]
        if nthreads > 1024:
            raise LaunchError(f"block of {nthreads} threads exceeds the 1024-thread limit")
        if kernel.shared_bytes > ADDRESS_LIMIT:
            raise LaunchError(
                f"kernel {kernel.name!r} declares {kernel.shared_bytes} shared bytes, past "
                f"the shared address space limit 0x{ADDRESS_LIMIT:x} (2**31 bytes)"
            )
        args = dict(args or {})
        params = self._bind_params(kernel, args)

        stats = self.last_launch_stats = _launch_record(self.engine, nblocks)
        for sink in self.sinks:
            sink.on_kernel_begin(kernel, grid, block, nblocks)
        # Spans wrap whole launches, never per-block or per-instruction work;
        # with telemetry off each is a shared no-op context manager.
        tele = get_telemetry()
        with tele.span(
            "launch", kernel=kernel.name, engine=self.engine, blocks=nblocks
        ) as lsp, np.errstate(all="ignore"):
            if self.engine == "compiled":
                with tele.span(
                    "compile",
                    kernel=kernel.name,
                    cached=getattr(kernel, "_compiled_cache", None) is not None,
                ):
                    compile_kernel(kernel)
            with tele.span("execute", kernel=kernel.name, engine=self.engine):
                if self.engine == "compiled":
                    run_compiled_launch(self, kernel, grid, block, params)
                else:
                    self._launch_interpreted(kernel, grid, block, params, nblocks)
            lsp.set(**{key: stats[key] for key in _SPAN_FIELDS})
        for sink in self.sinks:
            sink.on_kernel_end(stats["profiled_blocks"], nblocks)
        self._fold_launch_record(stats)

    def _deliver(self, batch: EventBatch) -> None:
        """Count one recorded batch into the launch record, then fan it out.

        Both engines hand every observed batch here, so the record's
        observation fields are counted in one place for either engine.
        """
        stats = self.last_launch_stats
        stats["observed_batches"] += 1
        stats["profiled_blocks"] += len(batch)
        counts = stats["event_counts"]
        for kind, n in batch.event_counts().items():
            counts[kind] += n
        stats["event_bytes"] += batch.buffer_bytes()
        for sink in self.sinks:
            sink.on_batch(batch)

    def _fold_launch_record(self, stats: Dict[str, object]) -> None:
        """Add a finished launch record to the totals and ``engine.*`` counters.

        The totals stay here rather than being derived from the trace:
        telemetry is off by default, and ``characterize --json`` and the
        profile shards need them anyway.  Observation counters are only
        touched by launches that observed a batch.
        """
        totals = self.launch_stats_totals
        tele = get_telemetry()
        prefix = f"engine.{self.engine}."
        totals["launches"] += 1
        tele.count("engine.launches")
        for key in _SUMMED:
            totals[key] += stats[key]
        for key in ("blocks", "batches", "batched_blocks"):
            tele.count(prefix + key, stats[key])
        totals["largest_batch"] = max(totals["largest_batch"], stats["largest_batch"])
        counts = totals["event_counts"]
        for kind, n in stats["event_counts"].items():
            counts[kind] += n
        tier = stats["hazard_tier"]
        if tier:
            tiers = totals["hazard_tiers"]
            tiers[tier] = tiers.get(tier, 0) + 1
            tele.count(f"{prefix}hazard.{tier}")
        if stats["observed_batches"]:
            tele.count(prefix + "observed_batches", stats["observed_batches"])
            tele.count(prefix + "event_bytes", stats["event_bytes"])
            for kind, n in stats["event_counts"].items():
                tele.count(f"{prefix}events.{kind}", n)

    def _launch_interpreted(
        self,
        kernel: Kernel,
        grid: Tuple[int, int],
        block: Tuple[int, int],
        params: Dict[str, Union[int, float]],
        nblocks: int,
    ) -> None:
        hooks = self.hook_subscriptions() if self.sinks else frozenset()
        order: Sequence[int] = range(nblocks)
        if self.block_order is not None:
            if sorted(self.block_order) != list(range(nblocks)):
                raise LaunchError(
                    f"block_order must be a permutation of range({nblocks})"
                )
            order = self.block_order
        for linear in order:
            ctaid = (linear % grid[0], linear // grid[0])
            observe = bool(self.sinks) and self.profile_filter(linear, nblocks)
            _BlockRun(self, kernel, grid, block, ctaid, params, observe, hooks).execute()

    def _bind_params(
        self, kernel: Kernel, args: Dict[str, Union[int, float, DeviceBuffer]]
    ) -> Dict[str, Union[int, float]]:
        params: Dict[str, Union[int, float]] = {}
        for p in kernel.params:
            if p.name not in args:
                raise LaunchError(f"kernel {kernel.name!r}: missing argument {p.name!r}")
            value = args.pop(p.name)
            if p.is_buffer:
                if not isinstance(value, DeviceBuffer):
                    raise LaunchError(
                        f"kernel {kernel.name!r}: argument {p.name!r} must be a DeviceBuffer"
                    )
                params[p.name] = value.base
            elif isinstance(value, DeviceBuffer):
                raise LaunchError(
                    f"kernel {kernel.name!r}: argument {p.name!r} is scalar, got a buffer"
                )
            elif p.dtype is DType.I32:
                params[p.name] = int(value)
            else:
                params[p.name] = float(value)
        if args:
            raise LaunchError(f"kernel {kernel.name!r}: unknown arguments {sorted(args)}")
        return params


class _BlockRun:
    """Execution state for one thread block."""

    def __init__(
        self,
        executor: Executor,
        kernel: Kernel,
        grid: Tuple[int, int],
        block: Tuple[int, int],
        ctaid: Tuple[int, int],
        params: Dict[str, Union[int, float]],
        observe: bool,
        hooks: frozenset = frozenset({"instr", "mem", "branch"}),
    ) -> None:
        self.executor = executor
        self.device = executor.device
        self.kernel = kernel
        self.params = params
        self.nthreads = block[0] * block[1]
        self.nwarps = -(-self.nthreads // WARP_SIZE)
        self.npad = self.nwarps * WARP_SIZE
        self._block_idx = ctaid[1] * grid[0] + ctaid[0]
        # A profiled block records itself as a one-block batch; per-hook
        # recorder slots make unsubscribed event kinds cost one None check.
        rec = None
        if observe:
            rec = EventRecorder(
                (self._block_idx,), (0,), 1, self.npad, self.nwarps, self.nthreads
            )
        self.recorder = rec
        self._instr_rec = rec if "instr" in hooks else None
        self._mem_rec = rec if "mem" in hooks else None
        self._branch_rec = rec if "branch" in hooks else None

        lane = np.arange(self.npad, dtype=np.int64)
        self.block_mask = lane < self.nthreads
        self.returned = np.zeros(self.npad, dtype=bool)
        #: Bumped whenever lanes retire, so straight-line runs reuse one mask.
        self._returns = 0
        self.env: Dict[str, np.ndarray] = {
            "%tid.x": lane % block[0],
            "%tid.y": np.minimum(lane // block[0], block[1] - 1),
            "%ctaid.x": np.full(self.npad, ctaid[0], dtype=np.int64),
            "%ctaid.y": np.full(self.npad, ctaid[1], dtype=np.int64),
            "%ntid.x": np.full(self.npad, block[0], dtype=np.int64),
            "%ntid.y": np.full(self.npad, block[1], dtype=np.int64),
            "%nctaid.x": np.full(self.npad, grid[0], dtype=np.int64),
            "%nctaid.y": np.full(self.npad, grid[1], dtype=np.int64),
        }
        # Shared memory as a batch of this one block: every lane's row is 0.
        self.shared = SharedMemory(kernel)
        self._rows = np.zeros(self.npad, dtype=np.int64)

    # ------------------------------------------------------------------

    def execute(self) -> None:
        self._exec_stmts(self.kernel.body, self.block_mask)
        if self.recorder is not None:
            self.executor._deliver(self.recorder.finish())

    def _exec_stmts(self, stmts: List[Stmt], mask: np.ndarray) -> None:
        # The active mask only changes when lanes retire, so a straight-line
        # run shares one mask object (which the recorder then reduces once).
        # Until a lane retires, that object is the caller's mask: a loop's
        # taken mask is then also its body's.
        seen = 0
        act = mask
        for stmt in stmts:
            if seen != self._returns:
                seen = self._returns
                act = mask & ~self.returned
                if not act.any():
                    return
            if isinstance(stmt, Instr):
                self._exec_instr(stmt, act)
            elif isinstance(stmt, Load):
                self._exec_load(stmt, act)
            elif isinstance(stmt, Store):
                self._exec_store(stmt, act)
            elif isinstance(stmt, If):
                self._exec_if(stmt, act)
            elif isinstance(stmt, While):
                self._exec_while(stmt, act)
            elif isinstance(stmt, Barrier):
                self._exec_barrier(stmt, act)
            elif isinstance(stmt, Atomic):
                self._exec_atomic(stmt, act)
            elif isinstance(stmt, Return):
                self._note_instr(stmt, OpCategory.BRANCH, act)
                self.returned |= act
                self._returns += 1
            else:  # pragma: no cover - exhaustive over Stmt subclasses
                raise ExecutionError(f"unknown statement {stmt!r}")

    # ------------------------------------------------------------------
    # Operand evaluation and writeback
    # ------------------------------------------------------------------

    def _eval(self, operand: Operand) -> Union[np.ndarray, int, float, bool]:
        if isinstance(operand, Reg):
            try:
                return self.env[operand.name]
            except KeyError:
                raise ExecutionError(
                    f"kernel {self.kernel.name!r}: register {operand.name!r} read "
                    "before any write reached it"
                ) from None
        if isinstance(operand, Imm):
            return operand.value
        return self.params[operand.name]

    def _writeback(self, dest: Reg, result, act: np.ndarray) -> None:
        # A write allocates: the recorder keeps noted address registers by
        # reference.
        cur = self.env.get(dest.name)
        cur = np.zeros(self.npad, dtype=dest.dtype.numpy_dtype) if cur is None else cur.copy()
        if isinstance(result, np.ndarray) and result.shape == cur.shape:
            cur[act] = result[act].astype(cur.dtype, copy=False)
        else:
            cur[act] = result
        self.env[dest.name] = cur

    def _addr_array(self, operand: Operand) -> np.ndarray:
        value = self._eval(operand)
        if isinstance(value, np.ndarray):
            return value
        return np.full(self.npad, int(value), dtype=np.int64)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def _exec_instr(self, stmt: Instr, act: np.ndarray) -> None:
        srcs = [self._eval(s) for s in stmt.srcs]
        if stmt.op in (Op.IDIV, Op.IMOD):
            divisor = np.asarray(srcs[1])
            bad = (divisor == 0) if divisor.ndim == 0 else (divisor == 0) & act
            if np.any(bad):
                raise ExecutionError(
                    f"kernel {self.kernel.name!r}: integer division by zero "
                    f"(sid={stmt.sid})"
                )
            safe = np.where(np.asarray(srcs[1]) == 0, 1, srcs[1])
            a = np.asarray(srcs[0])
            result = _trunc_div(a, safe) if stmt.op is Op.IDIV else _trunc_mod(a, safe)
        else:
            result = _OP_FUNCS[stmt.op](*srcs)
        self._writeback(stmt.dest, result, act)
        self._note_instr(stmt, op_category(stmt.op), act)

    def _exec_load(self, stmt: Load, act: np.ndarray) -> None:
        addrs = self._addr_array(stmt.addr)
        esize = stmt.dtype.element_size
        values = np.zeros(self.npad, dtype=stmt.dtype.numpy_dtype)
        if stmt.space is MemSpace.SHARED:
            values[act] = self.shared.gather(addrs[act], self._rows[act], esize)
        else:
            values[act] = self.device.gather(addrs[act], esize)
        self._writeback(stmt.dest, values, act)
        self._note_instr(stmt, _LOAD_CATEGORY[stmt.space], act)
        self._note_mem(stmt, stmt.space, "load", esize, addrs, act)

    def _exec_store(self, stmt: Store, act: np.ndarray) -> None:
        addrs = self._addr_array(stmt.addr)
        values = self._eval(stmt.value)
        if not isinstance(values, np.ndarray):
            values = np.full(self.npad, values, dtype=stmt.dtype.numpy_dtype)
        esize = stmt.dtype.element_size
        if stmt.space is MemSpace.SHARED:
            self.shared.scatter(addrs[act], self._rows[act], values[act], esize)
            category = OpCategory.STORE_SHARED
        else:
            self.device.scatter(addrs[act], values[act], esize)
            category = OpCategory.STORE_GLOBAL
        self._note_instr(stmt, category, act)
        self._note_mem(stmt, stmt.space, "store", esize, addrs, act)

    def _exec_atomic(self, stmt: Atomic, act: np.ndarray) -> None:
        addrs = self._addr_array(stmt.addr)
        values = self._eval(stmt.value)
        if not isinstance(values, np.ndarray):
            values = np.full(self.npad, values, dtype=stmt.dtype.numpy_dtype)
        compare = None
        if stmt.compare is not None:
            compare = self._eval(stmt.compare)
            if not isinstance(compare, np.ndarray):
                compare = np.full(self.npad, compare, dtype=stmt.dtype.numpy_dtype)
        esize = stmt.dtype.element_size
        need_old = stmt.dest is not None
        olds_sel = self.device.atomic_update(
            addrs[act],
            values[act],
            stmt.op,
            esize,
            compare=compare[act] if compare is not None else None,
            need_old=need_old,
        )
        if need_old:
            olds = np.zeros(self.npad, dtype=stmt.dtype.numpy_dtype)
            olds[act] = olds_sel
            self._writeback(stmt.dest, olds, act)
        self._note_instr(stmt, OpCategory.ATOMIC, act)
        self._note_mem(stmt, MemSpace.GLOBAL, "atomic", esize, addrs, act)

    def _exec_if(self, stmt: If, act: np.ndarray) -> None:
        cond = self._eval(stmt.cond)
        taken = act & cond
        self._note_instr(stmt, OpCategory.BRANCH, act)
        self._note_branch(stmt, "if", act, taken)
        if taken.any():
            self._exec_stmts(stmt.then_body, taken)
        fallthrough = act & ~cond & ~self.returned
        if stmt.else_body and fallthrough.any():
            self._exec_stmts(stmt.else_body, fallthrough)

    def _exec_while(self, stmt: While, act: np.ndarray) -> None:
        live = act
        while live.any():
            self._exec_stmts(stmt.cond_body, live)
            # Every update of ``live`` allocates: the recorder keeps noted
            # masks (``stay`` is noted as the taken mask) by reference.
            live = live & ~self.returned
            if not live.any():
                break
            assert stmt.cond is not None
            cond = self._eval(stmt.cond)
            stay = live & cond
            self._note_instr(stmt, OpCategory.BRANCH, live)
            self._note_branch(stmt, "loop", live, stay)
            live = stay
            if live.any():
                self._exec_stmts(stmt.body, live)
                live = live & ~self.returned

    def _exec_barrier(self, stmt: Barrier, act: np.ndarray) -> None:
        if not np.array_equal(act, self.block_mask & ~self.returned):
            raise ExecutionError(
                f"kernel {self.kernel.name!r}: divergent barrier (sid={stmt.sid}); "
                "some non-retired lanes did not reach __syncthreads"
            )
        self._note_instr(stmt, OpCategory.BARRIER, act)

    # ------------------------------------------------------------------
    # Event emission.  The recorder keeps masks and address registers by
    # reference until the block ends, so neither is mutated once noted.
    # ------------------------------------------------------------------

    def _note_instr(self, stmt: Stmt, category: OpCategory, act: np.ndarray) -> None:
        if self._instr_rec is not None:
            self._instr_rec.instr_run((stmt.sid, CATEGORY_CODE[category]), act)

    def _note_mem(
        self,
        stmt: Stmt,
        space: MemSpace,
        kind: str,
        esize: int,
        addrs: np.ndarray,
        act: np.ndarray,
    ) -> None:
        if self._mem_rec is not None:
            self._mem_rec.mem(
                stmt.sid, SPACE_CODE[space], MEM_KIND_CODE[kind], esize, addrs, act
            )

    def _note_branch(self, stmt: Stmt, kind: str, act: np.ndarray, taken: np.ndarray) -> None:
        if self._branch_rec is not None:
            self._branch_rec.branch(stmt.sid, BRANCH_KIND_CODE[kind], act, taken)
