"""Workload registry: every benchmark registers itself at import time."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.workloads.base import Workload

_REGISTRY: Dict[str, Type[Workload]] = {}


def register(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the registry (keyed by abbrev)."""
    if not cls.abbrev:
        raise ValueError(f"workload {cls.__name__} has no abbrev")
    if cls.abbrev in _REGISTRY:
        raise ValueError(f"duplicate workload abbrev {cls.abbrev!r}")
    _REGISTRY[cls.abbrev] = cls
    return cls


def _ensure_loaded() -> None:
    # Import suite packages for their registration side effects.
    from repro.workloads import parboil, rodinia, sdk  # noqa: F401


def get(abbrev: str) -> Type[Workload]:
    _ensure_loaded()
    try:
        return _REGISTRY[abbrev]
    except KeyError:
        raise KeyError(
            f"unknown workload {abbrev!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> List[Type[Workload]]:
    """Every registered workload class, in suite-then-registration order."""
    _ensure_loaded()
    order = {"CUDA SDK": 0, "Parboil": 1, "Rodinia": 2}
    return sorted(_REGISTRY.values(), key=lambda c: (order.get(c.suite, 9), c.abbrev))


def by_suite(suite: str) -> List[Type[Workload]]:
    _ensure_loaded()
    return [c for c in all_workloads() if c.suite == suite]


def abbrevs() -> List[str]:
    return [c.abbrev for c in all_workloads()]
