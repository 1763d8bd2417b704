"""Pluggable timing-model registry.

The evaluation layer mirrors the trace layer's pass architecture
(:mod:`repro.trace.passes.base`): timing models register themselves under a
stable name, declare the source modules their estimates depend on (the unit
of cache invalidation for the sweep engine's timing shards), and expose one
uniform interface —

* ``estimate(kernel_profile, config)`` → a :class:`KernelEstimate` (cycles
  plus a model-specific breakdown), and
* ``time_workload(workload_profile, config)`` → total cycles (sum over
  kernel launches by default).

Both take an optional ``memo`` dict that a caller shares across calls for
one model (the sweep worker shares one per workload), so a model can compute
each distinct intermediate once.

Two models ship registered as peers:

* ``roofline`` — the first-order bottleneck model
  (:mod:`repro.uarch.model`): max(compute, bandwidth, latency) per kernel;
* ``cycle`` — the event-driven, cycle-approximate warp scheduler
  (:mod:`repro.uarch.cycle`): latency hiding and bandwidth saturation
  emerge from an actual schedule instead of being asserted.

The sweep engine (:mod:`repro.uarch.sweep`) treats every registered model
identically, so an alternative model (a learned one, a wrapper around an
external simulator's results) plugs in with a subclass and one decorator.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Type

from repro.trace.profile import KernelProfile, WorkloadProfile
from repro.uarch import cycle as _cycle_mod
from repro.uarch import model as _roofline_mod
from repro.uarch.config import GpuConfig


@dataclass(frozen=True)
class KernelEstimate:
    """One model's cycle estimate for one kernel launch on one design."""

    kernel_name: str
    cycles: float
    #: Model-specific breakdown (bottleneck cycles, stall fraction, ...).
    detail: Dict[str, object] = field(default_factory=dict)


class TimingModel:
    """Base class: one registered performance model.

    Subclasses set the class attributes and implement :meth:`estimate`.
    ``sources`` lists the modules whose code determines the model's output —
    the sweep cache digests their files, so editing any of them invalidates
    exactly that model's timing shards (the per-pass digest pattern of the
    profile cache, applied to models).
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: Modules implementing this model's math (cache-invalidation unit).
    sources: ClassVar[Tuple] = ()

    def estimate(
        self, profile: KernelProfile, config: GpuConfig, memo: Optional[Dict] = None
    ) -> KernelEstimate:
        """One kernel's estimate.

        ``memo`` is a dict a caller shares across the calls it makes for one
        model; a model may cache pure intermediate results in it, keyed by
        their full inputs.  Estimates must not depend on what it holds.
        """
        raise NotImplementedError

    def time_workload(
        self, profile: WorkloadProfile, config: GpuConfig, memo: Optional[Dict] = None
    ) -> float:
        """Total estimated cycles of a workload (sum over kernel launches)."""
        return sum(self.estimate(k, config, memo).cycles for k in profile.kernels)


#: Registration order defines the canonical model order everywhere.
_REGISTRY: Dict[str, TimingModel] = {}


def register_model(cls: Type[TimingModel]) -> Type[TimingModel]:
    """Class decorator: validate and register one timing model."""
    model = cls()
    if not model.name:
        raise ValueError(f"timing model {cls.__name__} must set a name")
    if model.name in _REGISTRY:
        raise ValueError(f"duplicate timing model name {model.name!r}")
    if not model.sources:
        raise ValueError(
            f"timing model {model.name!r} must declare its source modules "
            "(the unit of sweep-cache invalidation)"
        )
    _REGISTRY[model.name] = model
    return cls


def model_names() -> List[str]:
    """Registered model names, in registration order."""
    return list(_REGISTRY)


def get_model(name: str) -> TimingModel:
    """The registered model called ``name`` (``ValueError`` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown timing model {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def resolve_models(names: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """Canonical model-name tuple: ``None`` means every registered model.

    Explicit selections keep registration order and drop duplicates, so two
    spellings of the same selection produce identical sweep layouts.
    """
    if names is None:
        return tuple(_REGISTRY)
    requested = set(names)
    for name in requested:
        get_model(name)  # raises on unknown names
    return tuple(name for name in _REGISTRY if name in requested)


def model_source_files(name: str) -> List[str]:
    """Absolute source paths whose content defines ``name``'s estimates."""
    return [inspect.getfile(module) for module in get_model(name).sources]


@register_model
class RooflineModel(TimingModel):
    """Adapter over :func:`repro.uarch.model.time_kernel`."""

    name = "roofline"
    description = (
        "first-order bottleneck model: max(compute, bandwidth, latency) "
        "+ launch overhead per kernel"
    )
    sources = (_roofline_mod,)

    def estimate(
        self, profile: KernelProfile, config: GpuConfig, memo: Optional[Dict] = None
    ) -> KernelEstimate:
        t = _roofline_mod.time_kernel(profile, config)
        return KernelEstimate(
            kernel_name=t.kernel_name,
            cycles=t.total_cycles,
            detail={
                "compute_cycles": t.compute_cycles,
                "bandwidth_cycles": t.bandwidth_cycles,
                "latency_cycles": t.latency_cycles,
                "bottleneck": t.bottleneck,
                "dram_transactions": t.dram_transactions,
                "cache_hit_rate": t.cache_hit_rate,
            },
        )


@register_model
class CycleModel(TimingModel):
    """Adapter over :func:`repro.uarch.cycle.simulate_kernel`.

    ``sources`` includes the roofline module because the scheduler reuses
    its cache-hit and occupancy estimators — editing either file must
    invalidate cycle-model timing shards.  ``memo`` holds the wave schedules
    already computed, keyed by their full argument tuple.
    """

    name = "cycle"
    description = (
        "event-driven cycle-approximate warp scheduler: latency hiding and "
        "bandwidth saturation emerge from the schedule"
    )
    sources = (_cycle_mod, _roofline_mod)

    def estimate(
        self, profile: KernelProfile, config: GpuConfig, memo: Optional[Dict] = None
    ) -> KernelEstimate:
        est = _cycle_mod.simulate_kernel(profile, config, memo)
        return KernelEstimate(
            kernel_name=est.kernel_name,
            cycles=est.cycles,
            detail={
                "issued_instructions": est.issued_instructions,
                "memory_ops": est.memory_ops,
                "misses": est.misses,
                "stall_fraction": est.stall_fraction,
            },
        )
