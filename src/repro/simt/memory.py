"""Device memory: buffers, the global address space, and access resolution.

A :class:`Device` owns a flat byte-addressed global address space.  Buffers
are bump-allocated with 256-byte alignment (matching CUDA's allocation
granularity, which matters for coalescing analysis: buffer bases never
straddle transaction segments).  Constant buffers live in the same address
space but are read-only and their loads are charged to the constant space.

Both address spaces are 31-bit: every buffer ends at or below
:data:`ADDRESS_LIMIT` (``2**31``), and so does every kernel's declared
shared segment (checked at launch).  An allocation past the limit raises
:class:`~repro.simt.errors.LaunchError`.  Every valid byte address is
therefore a non-negative ``int32``, which is how the event recorder stores
them (:mod:`repro.simt.events`).

:class:`SharedMemory` holds the per-block shared segments of one batch of
blocks; both engines read and write ``__shared__`` arrays through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.simt.errors import ExecutionError, LaunchError, MemoryFault
from repro.simt.ir import AtomicOp, Kernel
from repro.simt.types import DType

#: Base of the global address space; non-zero so that address 0 is never valid
#: (catching uninitialised-pointer bugs in workloads).
_HEAP_BASE = 0x1000

#: End of the global and shared address spaces: no valid byte address
#: reaches it.
ADDRESS_LIMIT = 1 << 31

#: Allocation alignment in bytes.
_ALIGN = 256

#: Scalar semantics of the lane-serialised atomic loop.
_ATOMIC_SCALAR = {
    AtomicOp.ADD: lambda old, v: old + v,
    AtomicOp.MIN: min,
    AtomicOp.MAX: max,
    AtomicOp.EXCH: lambda old, v: v,
}

#: Atomic ops with a grouped vectorised application (``ufunc.at`` applies
#: updates in index order, i.e. ascending lane order, so even duplicate
#: addresses accumulate bit-identically to the scalar loop).
_ATOMIC_UFUNCS = {
    AtomicOp.ADD: np.add,
    AtomicOp.MIN: np.minimum,
    AtomicOp.MAX: np.maximum,
}


@dataclass
class DeviceBuffer:
    """A typed, contiguous allocation in the device's global address space."""

    name: str
    base: int
    count: int
    dtype: DType
    readonly: bool = False
    data: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def elem_size(self) -> int:
        return self.dtype.element_size if self.dtype is not DType.PRED else 4

    @property
    def nbytes(self) -> int:
        return self.count * self.elem_size

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DeviceBuffer {self.name!r} {self.dtype.value}[{self.count}] "
            f"@0x{self.base:x}{' ro' if self.readonly else ''}>"
        )


class Device:
    """A simulated GPU device: the global address space and its buffers."""

    def __init__(self) -> None:
        self._cursor = _HEAP_BASE
        self._buffers: List[DeviceBuffer] = []
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._by_name: Dict[str, DeviceBuffer] = {}

    # ------------------------------------------------------------------
    # Allocation and host I/O
    # ------------------------------------------------------------------

    def alloc(
        self,
        name: str,
        count: int,
        dtype: DType = DType.F32,
        readonly: bool = False,
        fill: Union[int, float, None] = 0,
    ) -> DeviceBuffer:
        """Allocate ``count`` elements; optionally pre-filled with ``fill``.

        The buffer must end at or below :data:`ADDRESS_LIMIT`.
        """
        if count <= 0:
            raise LaunchError(f"buffer {name!r} must have positive size, got {count}")
        if name in self._by_name:
            raise LaunchError(f"duplicate buffer name {name!r}")
        buf = DeviceBuffer(name, self._cursor, count, dtype, readonly=readonly)
        if buf.end > ADDRESS_LIMIT:
            raise LaunchError(
                f"buffer {name!r} would end at 0x{buf.end:x}, past the global "
                f"address space limit 0x{ADDRESS_LIMIT:x} (2**31 bytes)"
            )
        storage = dtype.numpy_dtype if dtype is not DType.PRED else np.dtype(np.int64)
        buf.data = np.zeros(count, dtype=storage)
        if fill not in (0, None):
            buf.data[:] = fill
        self._cursor += -(-buf.nbytes // _ALIGN) * _ALIGN
        self._buffers.append(buf)
        self._bases.append(buf.base)
        self._ends.append(buf.end)
        self._by_name[name] = buf
        return buf

    def from_array(
        self, name: str, array: np.ndarray, dtype: Optional[DType] = None, readonly: bool = False
    ) -> DeviceBuffer:
        """Allocate a buffer sized and initialised from a 1-D host array."""
        array = np.ascontiguousarray(array).reshape(-1)
        if dtype is None:
            dtype = DType.I32 if np.issubdtype(array.dtype, np.integer) else DType.F32
        buf = self.alloc(name, array.size, dtype, readonly=readonly)
        self.upload(buf, array)
        return buf

    def upload(self, buf: DeviceBuffer, array: np.ndarray) -> None:
        """Copy host data into a buffer (sizes must match)."""
        array = np.asarray(array).reshape(-1)
        if array.size != buf.count:
            raise LaunchError(
                f"upload size mismatch for {buf.name!r}: buffer has {buf.count} "
                f"elements, host array has {array.size}"
            )
        np.copyto(buf.data, array, casting="unsafe")  # astype's cast, no temporary

    def download(self, buf: DeviceBuffer) -> np.ndarray:
        """Copy a buffer back to the host."""
        return buf.data.copy()

    def buffer(self, name: str) -> DeviceBuffer:
        return self._by_name[name]

    @property
    def buffers(self) -> Sequence[DeviceBuffer]:
        return tuple(self._buffers)

    # ------------------------------------------------------------------
    # Lane-level access resolution
    # ------------------------------------------------------------------

    def _resolve(self, addrs: np.ndarray, elem_size: int) -> list:
        """Split an access into ``(buffer, lanes, element indices)`` groups,
        ``lanes`` being a lane mask, in buffer address order.

        An access inside one buffer is settled by one bounds test on its
        lowest and highest address and comes back as a single group whose
        ``lanes`` is ``slice(None)``.  Buffer bases are 256-byte aligned,
        so address alignment is offset alignment, and a matching element
        size is a power of two (a mask and a shift).  Anything else takes
        :meth:`_resolve_lanes`.
        """
        if addrs.size:
            i = bisect_right(self._bases, int(addrs.min())) - 1
            if i >= 0 and int(addrs.max()) < self._ends[i]:
                buf = self._buffers[i]
                if buf.elem_size == elem_size and not (
                    int(np.bitwise_or.reduce(addrs)) & (elem_size - 1)
                ):
                    elems = (addrs - buf.base) >> (elem_size.bit_length() - 1)
                    return [(buf, slice(None), elems)]
        return self._resolve_lanes(addrs, elem_size)

    def _resolve_lanes(self, addrs: np.ndarray, elem_size: int) -> list:
        """Per-lane resolution: cross-buffer accesses and every fault.

        Faults are checked lane by lane in a fixed order (empty device,
        below the heap base, then per buffer in address order: element
        size, alignment, bounds), so the first bad lane names the fault.
        """
        if not self._buffers:
            raise MemoryFault("access on a device with no buffers")
        bi = np.searchsorted(self._bases, addrs, side="right") - 1
        if np.any(bi < 0):
            bad = int(addrs[bi < 0][0])
            raise MemoryFault(f"access below heap base: 0x{bad:x}")
        offsets = addrs - np.asarray(self._bases)[bi]
        elems = offsets // elem_size
        groups = []
        for u in np.unique(bi):
            buf = self._buffers[u]
            sel = bi == u
            if buf.elem_size != elem_size:
                raise MemoryFault(
                    f"access to {buf.name!r} with element size {elem_size}, "
                    f"buffer element size is {buf.elem_size}"
                )
            if np.any(offsets[sel] % elem_size != 0):
                bad = int(addrs[sel][offsets[sel] % elem_size != 0][0])
                raise MemoryFault(f"misaligned access to {buf.name!r} at 0x{bad:x}")
            if np.any(elems[sel] >= buf.count):
                bad = int(elems[sel].max())
                raise MemoryFault(
                    f"out-of-bounds access to {buf.name!r}: element {bad} "
                    f"of {buf.count}"
                )
            groups.append((buf, sel, elems[sel]))
        return groups

    def gather(self, addrs: np.ndarray, elem_size: int) -> np.ndarray:
        """Load one element per lane from the given byte addresses."""
        groups = self._resolve(addrs, elem_size)
        if len(groups) == 1:
            buf, _, elems = groups[0]
            return buf.data[elems]  # fancy indexing already copies
        out = np.zeros(addrs.shape, dtype=groups[0][0].data.dtype if groups else None)
        for buf, lanes, elems in groups:
            out[lanes] = buf.data[elems]
        return out

    def scatter(self, addrs: np.ndarray, values: np.ndarray, elem_size: int) -> None:
        """Store one element per lane.

        When several lanes target the same address, the highest lane index
        wins (numpy fancy-assignment order) — a fixed, documented resolution
        of what real hardware leaves unspecified.
        """
        for buf, lanes, elems in self._resolve(addrs, elem_size):
            if buf.readonly:
                raise MemoryFault(f"store to read-only buffer {buf.name!r}")
            buf.data[elems] = values[lanes].astype(buf.data.dtype, copy=False)

    def atomic_lane_view(self, addrs: np.ndarray, elem_size: int) -> list:
        """Resolve addresses for an atomic, rejecting read-only buffers."""
        groups = self._resolve(addrs, elem_size)
        for buf, _, _ in groups:
            if buf.readonly:
                raise MemoryFault(f"atomic on read-only buffer {buf.name!r}")
        return groups

    def atomic_update(
        self,
        addrs: np.ndarray,
        values: np.ndarray,
        op: AtomicOp,
        elem_size: int,
        compare: Optional[np.ndarray] = None,
        need_old: bool = True,
    ) -> Optional[np.ndarray]:
        """Atomic read-modify-write, one element per lane (active lanes only).

        Lanes apply in ascending order, the documented serialisation of
        :class:`~repro.simt.ir.Atomic`; lanes on different buffers never
        touch the same word, so each buffer's lanes run in turn.  ADD/MIN/MAX
        vectorise per buffer: unique addresses via one gather/scatter,
        duplicates via ``np.ufunc.at`` (index-ordered, so floating-point
        accumulation is bit-identical to the scalar loop).  EXCH/CAS,
        mixed-dtype updates, and duplicate addresses that need old values
        keep the scalar loop.  MIN/MAX only vectorise for integer data:
        ``np.minimum`` propagates NaN while the serial ``min`` keeps the
        accumulator, and the scalar order is the contract.

        Returns per-lane old values, or ``None`` when ``need_old`` is
        false and they were not materialised.
        """
        olds = np.zeros(addrs.shape, dtype=values.dtype) if need_old else None
        ufunc = _ATOMIC_UFUNCS.get(op)
        vectorise = ufunc is not None and (op is AtomicOp.ADD or values.dtype.kind != "f")
        for buf, lanes, elems in self.atomic_lane_view(addrs, elem_size):
            data = buf.data
            if vectorise and values.dtype == data.dtype:
                if np.unique(elems).size == elems.size:
                    old = data[elems]
                    data[elems] = ufunc(old, values[lanes])
                    if olds is not None:
                        olds[lanes] = old
                    continue
                if olds is None:
                    ufunc.at(data, elems, values[lanes])
                    continue
            for pos, elem in zip(np.arange(addrs.size)[lanes], elems):
                old = data[elem]
                if op is AtomicOp.CAS:
                    new = values[pos] if old == compare[pos] else old
                else:
                    new = _ATOMIC_SCALAR[op](old, values[pos])
                data[elem] = new
                if olds is not None:
                    olds[pos] = old
        return olds


class SharedMemory:
    """The shared memory of a batch of ``nblk`` blocks.

    Each declaration is one flat array in its storage dtype, holding every
    block's copy: block row ``r`` of a declaration of ``count`` elements
    starts at ``r * count``.  :meth:`gather` and :meth:`scatter` take the
    active lanes' byte addresses in the block's shared segment and those
    lanes' block rows, as :class:`Device` takes global addresses.  The
    interpreter holds a batch of one block, every row 0.
    """

    __slots__ = ("kname", "decls", "starts", "arrays")

    def __init__(self, kernel: Kernel, nblk: int = 1) -> None:
        self.kname = kernel.name
        self.decls = sorted(kernel.shared, key=lambda d: d.offset)
        self.starts = [d.offset for d in self.decls]
        self.arrays = [np.zeros(nblk * d.count, dtype=d.dtype.numpy_dtype) for d in self.decls]

    def _locate(self, addrs: np.ndarray, rows: np.ndarray, elem_size: int) -> list:
        """Split an access into ``(array, lanes, flat indices)`` groups, one
        per declaration it touches.

        An access inside one declaration is settled by one test on its
        lowest and highest address and comes back as a single group whose
        ``lanes`` is ``slice(None)``.  The per-declaration split runs only
        for an access that crosses declarations or faults; its first
        fault in declaration order names the error.
        """
        if not self.decls:
            raise ExecutionError(
                f"kernel {self.kname!r} accesses shared memory but declares none"
            )
        shift = elem_size.bit_length() - 1
        starts = self.starts
        if addrs.size:
            hi = int(addrs.max())
            u = bisect_right(starts, int(addrs.min())) - 1
            if u >= 0 and bisect_right(starts, hi) - 1 == u:
                decl = self.decls[u]
                if (hi - decl.offset) >> shift < decl.count:
                    idx = rows * decl.count + ((addrs - decl.offset) >> shift)
                    return [(self.arrays[u], slice(None), idx)]
        di = np.searchsorted(starts, addrs, side="right") - 1
        if np.any(di < 0):
            raise ExecutionError(f"kernel {self.kname!r}: negative shared address")
        groups = []
        for u in np.unique(di).tolist():
            decl = self.decls[u]
            sel = di == u
            elems = (addrs[sel] - decl.offset) >> shift
            if np.any(elems >= decl.count):
                raise ExecutionError(
                    f"kernel {self.kname!r}: shared array {decl.name!r} "
                    f"index out of bounds (size {decl.count})"
                )
            groups.append((self.arrays[u], sel, rows[sel] * decl.count + elems))
        return groups

    def gather(self, addrs: np.ndarray, rows: np.ndarray, elem_size: int) -> np.ndarray:
        """Load one element per lane, in its declaration's storage dtype
        (the common dtype when an access crosses declarations)."""
        groups = self._locate(addrs, rows, elem_size)
        if len(groups) == 1:
            arr, _, idx = groups[0]
            return arr[idx]
        dtype = np.result_type(np.bool_, *(arr.dtype for arr, _, _ in groups))
        out = np.zeros(addrs.shape, dtype=dtype)
        for arr, lanes, idx in groups:
            out[lanes] = arr[idx]
        return out

    def scatter(
        self, addrs: np.ndarray, rows: np.ndarray, values: np.ndarray, elem_size: int
    ) -> None:
        """Store one element per lane; the highest lane wins a repeated
        address, as in :meth:`Device.scatter`."""
        for arr, lanes, idx in self._locate(addrs, rows, elem_size):
            arr[idx] = values[lanes].astype(arr.dtype, copy=False)
