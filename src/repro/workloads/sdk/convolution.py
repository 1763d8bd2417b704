"""Separable 2-D convolution (CUDA SDK ``convolutionSeparable``).

Row pass then column pass; filter taps live in constant memory (broadcast
loads), image tiles with halo regions are staged through shared memory.
The halo loads give boundary branches; the column pass reads shared memory
with a stride, a mild bank-conflict source.
"""

from __future__ import annotations

import numpy as np

from repro.simt import KernelBuilder, MemSpace
from repro.workloads.base import RunContext, Workload, assert_close
from repro.workloads.registry import register

RADIUS = 4
TILE_W = 16
TILE_H = 8


def _clamped_load(b, img, width, height, x, y):
    """Load img[y, x] with clamp-to-edge addressing (emits boundary branches)."""
    cx = b.imax(b.imin(x, width - 1), 0)
    cy = b.imax(b.imin(y, height - 1), 0)
    return b.ld(img, b.iadd(b.imul(cy, width), cx))


def build_row_kernel(width: int, height: int):
    b = KernelBuilder("convolution_rows")
    src = b.param_buf("src")
    dst = b.param_buf("dst")
    taps = b.param_buf("taps", space=MemSpace.CONST)
    smem_w = TILE_W + 2 * RADIUS
    tile = b.shared("tile", TILE_H * smem_w)

    tx = b.tid_x
    ty = b.tid_y
    x = b.iadd(b.imul(b.ctaid_x, TILE_W), tx)
    y = b.iadd(b.imul(b.ctaid_y, TILE_H), ty)

    # Main tile plus left/right halos (halo loads clamp at image edges).
    base = b.imul(ty, smem_w)
    b.sst(tile, b.iadd(base, b.iadd(tx, RADIUS)), _clamped_load(b, src, width, height, x, y))
    with b.if_(b.ilt(tx, RADIUS)):
        left = _clamped_load(b, src, width, height, b.isub(x, RADIUS), y)
        b.sst(tile, b.iadd(base, tx), left)
        right = _clamped_load(b, src, width, height, b.iadd(x, TILE_W), y)
        b.sst(tile, b.iadd(base, b.iadd(tx, TILE_W + RADIUS)), right)
    b.barrier()

    acc = b.let_f32(0.0)
    with b.for_range(0, 2 * RADIUS + 1) as k:
        tap = b.ld(taps, k)
        v = b.sld(tile, b.iadd(base, b.iadd(tx, k)))
        b.assign(acc, b.fma(tap, v, acc))
    b.st(dst, b.iadd(b.imul(y, width), x), acc)
    return b.finalize()


def build_col_kernel(width: int, height: int):
    b = KernelBuilder("convolution_cols")
    src = b.param_buf("src")
    dst = b.param_buf("dst")
    taps = b.param_buf("taps", space=MemSpace.CONST)
    smem_h = TILE_H + 2 * RADIUS
    tile = b.shared("tile", smem_h * TILE_W)

    tx = b.tid_x
    ty = b.tid_y
    x = b.iadd(b.imul(b.ctaid_x, TILE_W), tx)
    y = b.iadd(b.imul(b.ctaid_y, TILE_H), ty)

    b.sst(
        tile,
        b.iadd(b.imul(b.iadd(ty, RADIUS), TILE_W), tx),
        _clamped_load(b, src, width, height, x, y),
    )
    with b.if_(b.ilt(ty, RADIUS)):
        top = _clamped_load(b, src, width, height, x, b.isub(y, RADIUS))
        b.sst(tile, b.iadd(b.imul(ty, TILE_W), tx), top)
        bottom = _clamped_load(b, src, width, height, x, b.iadd(y, TILE_H))
        b.sst(tile, b.iadd(b.imul(b.iadd(ty, TILE_H + RADIUS), TILE_W), tx), bottom)
    b.barrier()

    acc = b.let_f32(0.0)
    with b.for_range(0, 2 * RADIUS + 1) as k:
        tap = b.ld(taps, k)
        v = b.sld(tile, b.iadd(b.imul(b.iadd(ty, k), TILE_W), tx))
        b.assign(acc, b.fma(tap, v, acc))
    b.st(dst, b.iadd(b.imul(y, width), x), acc)
    return b.finalize()


def convolve_ref(image: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable clamp-to-edge convolution reference."""
    height, width = image.shape
    r = RADIUS
    rows = np.zeros_like(image)
    for k in range(-r, r + 1):
        xs = np.clip(np.arange(width) + k, 0, width - 1)
        rows += taps[k + r] * image[:, xs]
    out = np.zeros_like(image)
    for k in range(-r, r + 1):
        ys = np.clip(np.arange(height) + k, 0, height - 1)
        out += taps[k + r] * rows[ys, :]
    return out


@register
class ConvolutionSeparable(Workload):
    abbrev = "CONV"
    name = "Convolution Separable"
    suite = "CUDA SDK"
    description = "Separable 2D convolution: const-memory taps, shared tiles with halos"
    default_scale = {"width": 128, "height": 64}

    def run(self, ctx: RunContext) -> None:
        width = self.scale["width"]
        height = self.scale["height"]
        assert width % TILE_W == 0 and height % TILE_H == 0
        self._img = ctx.rng.standard_normal((height, width))
        self._taps = np.exp(-0.5 * (np.arange(-RADIUS, RADIUS + 1) / 2.0) ** 2)
        self._taps /= self._taps.sum()
        dev = ctx.device
        src = dev.from_array("src", self._img, readonly=True)
        taps = dev.from_array("taps", self._taps, readonly=True)
        mid = dev.alloc("mid", width * height)
        self._out = dev.alloc("out", width * height)
        grid = (width // TILE_W, height // TILE_H)
        ctx.launch(
            build_row_kernel(width, height),
            grid,
            (TILE_W, TILE_H),
            {"src": src, "dst": mid, "taps": taps},
        )
        ctx.launch(
            build_col_kernel(width, height),
            grid,
            (TILE_W, TILE_H),
            {"src": mid, "dst": self._out, "taps": taps},
        )

    def check(self, ctx: RunContext) -> None:
        result = ctx.device.download(self._out).reshape(self._img.shape)
        assert_close(result, convolve_ref(self._img, self._taps), "convolution", tol=1e-9)
