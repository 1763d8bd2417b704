"""Analytical GPU performance models and the design-space exploration engine."""

from repro.uarch.config import BASELINE, GpuConfig
from repro.uarch.cycle import CycleEstimate, simulate_kernel
from repro.uarch.model import (
    KernelTiming,
    occupancy_warps,
    bottleneck_summary,
    time_kernel,
)
from repro.uarch.models import (
    KernelEstimate,
    TimingModel,
    get_model,
    model_names,
    model_source_files,
    register_model,
    resolve_models,
)
from repro.uarch.space import (
    Axis,
    AxisPoint,
    DesignSpace,
    DesignSpaceError,
    default_space,
    load_space,
)
from repro.uarch.sweep import (
    SweepCache,
    SweepResult,
    axis_sensitivity,
    config_key,
    design_cost,
    pareto_frontier,
    profile_digest,
    run_sweep,
)

__all__ = [
    "BASELINE",
    "CycleEstimate",
    "simulate_kernel",
    "GpuConfig",
    "KernelTiming",
    "bottleneck_summary",
    "occupancy_warps",
    "time_kernel",
    "KernelEstimate",
    "TimingModel",
    "get_model",
    "model_names",
    "model_source_files",
    "register_model",
    "resolve_models",
    "Axis",
    "AxisPoint",
    "DesignSpace",
    "DesignSpaceError",
    "default_space",
    "load_space",
    "SweepCache",
    "SweepResult",
    "axis_sensitivity",
    "config_key",
    "design_cost",
    "pareto_frontier",
    "profile_digest",
    "run_sweep",
]
