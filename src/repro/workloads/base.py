"""Workload base class and run context.

A workload owns: deterministic input generation, device setup, one or more
kernel launches, and a numpy reference check.  Workload instances are
single-use: construct, :meth:`run`, :meth:`check`.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Union

import numpy as np

from repro.simt.executor import DimLike, Executor
from repro.simt.ir import Kernel
from repro.simt.memory import Device, DeviceBuffer


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class RunContext:
    """Device, executor and RNG for one workload run."""

    def __init__(self, device: Device, executor: Executor, seed: int = 1234) -> None:
        self.device = device
        self.executor = executor
        self.rng = np.random.default_rng(seed)
        self.launches = 0

    def launch(
        self,
        kernel: Kernel,
        grid: DimLike,
        block: DimLike,
        args: Dict[str, Union[int, float, DeviceBuffer]],
    ) -> None:
        self.executor.launch(kernel, grid, block, args)
        self.launches += 1


class Workload(abc.ABC):
    """One GPGPU benchmark implemented on the SIMT simulator.

    Subclasses set the class attributes, implement :meth:`run` (allocate
    inputs, launch kernels) and :meth:`check` (compare device results against
    a numpy reference; raise ``AssertionError`` on mismatch).  ``scale``
    overrides entries of :attr:`default_scale` to shrink/grow inputs.
    """

    #: Short identifier used in plots/tables (e.g. "RD").
    abbrev: str = ""
    #: Full workload name (e.g. "Parallel Reduction").
    name: str = ""
    #: Benchmark suite ("CUDA SDK", "Parboil", "Rodinia").
    suite: str = ""
    #: One-line description of the algorithm.
    description: str = ""
    #: Default input-size parameters.
    default_scale: Dict[str, Any] = {}

    def __init__(self, **scale: Any) -> None:
        unknown = set(scale) - set(self.default_scale)
        if unknown:
            raise ValueError(f"{self.abbrev}: unknown scale parameters {sorted(unknown)}")
        self.scale: Dict[str, Any] = {**self.default_scale, **scale}

    @abc.abstractmethod
    def run(self, ctx: RunContext) -> None:
        """Allocate inputs on ``ctx.device`` and launch the kernels."""

    @abc.abstractmethod
    def check(self, ctx: RunContext) -> None:
        """Validate device results against a host reference."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.abbrev} ({self.suite})>"


def assert_close(actual: np.ndarray, expected: np.ndarray, what: str, tol: float = 1e-6) -> None:
    """Element-wise comparison helper with a readable failure message."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        raise AssertionError(f"{what}: shape {actual.shape} != expected {expected.shape}")
    if np.issubdtype(actual.dtype, np.integer) and np.issubdtype(expected.dtype, np.integer):
        bad = actual != expected
    else:
        bad = ~np.isclose(actual, expected, rtol=tol, atol=tol)
    if bad.any():
        i = int(np.flatnonzero(bad.reshape(-1))[0])
        raise AssertionError(
            f"{what}: {int(bad.sum())}/{bad.size} elements differ; first at flat index "
            f"{i}: got {actual.reshape(-1)[i]!r}, expected {expected.reshape(-1)[i]!r}"
        )
