"""Reference: the per-declaration shared-memory loop both engines once ran.

:class:`repro.simt.memory.SharedMemory` replaced the interpreter's
``_BlockRun._shared_locate/_shared_gather/_shared_scatter`` and the compiled
engine's copies of them.  This is that loop, kept as the tests' oracle:
every access is split declaration by declaration with ``searchsorted``,
and each block's copy of a declaration is one row of a 2-D array.  One
thing differs from the old code, by intent: loads come back in the
declarations' storage dtype instead of being staged through float64, which
rounded integers above 2**53.  It is test code only; nothing under
``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.simt.errors import ExecutionError


class SharedReference:
    """Shared memory of ``nblk`` blocks, one ``(nblk, count)`` array per
    declaration, addressed like :class:`~repro.simt.memory.SharedMemory`."""

    def __init__(self, kernel, nblk: int = 1) -> None:
        self.kname = kernel.name
        self.decls = sorted(kernel.shared, key=lambda d: d.offset)
        self.offsets = np.array([d.offset for d in self.decls], dtype=np.int64)
        self.shared = {
            d.name: np.zeros((nblk, d.count), dtype=d.dtype.numpy_dtype) for d in self.decls
        }

    def locate(self, a: np.ndarray, esize: int):
        if not self.decls:
            raise ExecutionError(
                f"kernel {self.kname!r} accesses shared memory but declares none"
            )
        di = np.searchsorted(self.offsets, a, side="right") - 1
        if np.any(di < 0):
            raise ExecutionError(f"kernel {self.kname!r}: negative shared address")
        out = []
        for u in np.unique(di):
            decl = self.decls[u]
            sel = di == u
            elems = (a[sel] - decl.offset) // esize
            if np.any(elems >= decl.count) or np.any(elems < 0):
                raise ExecutionError(
                    f"kernel {self.kname!r}: shared array {decl.name!r} "
                    f"index out of bounds (size {decl.count})"
                )
            out.append((decl, sel, elems))
        return out

    def gather(self, addrs: np.ndarray, rows: np.ndarray, esize: int) -> np.ndarray:
        values = np.zeros(addrs.shape, dtype=np.bool_)
        for decl, sel, elems in self.locate(addrs, esize):
            vals = self.shared[decl.name][rows[sel], elems]
            if values.dtype != vals.dtype:
                values = values.astype(np.result_type(values.dtype, vals.dtype))
            values[sel] = vals
        return values

    def scatter(self, addrs: np.ndarray, rows: np.ndarray, values: np.ndarray, esize: int) -> None:
        for decl, sel, elems in self.locate(addrs, esize):
            arr = self.shared[decl.name]
            arr[rows[sel], elems] = values[sel].astype(arr.dtype, copy=False)

    def flat(self, name: str) -> np.ndarray:
        """Declaration ``name`` as ``SharedMemory`` lays it out: row after row."""
        return self.shared[name].reshape(-1)
