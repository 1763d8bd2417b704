"""GPGPU benchmark workloads implemented on the SIMT simulator."""

from repro.workloads.base import RunContext, Workload, assert_close, ceil_div
from repro.workloads.registry import abbrevs, all_workloads, by_suite, get, register
from repro.workloads.runner import run_workload

__all__ = [
    "RunContext",
    "Workload",
    "abbrevs",
    "all_workloads",
    "assert_close",
    "by_suite",
    "ceil_div",
    "get",
    "register",
    "run_workload",
]
