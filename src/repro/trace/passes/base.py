"""Analysis-pass base class and registry.

Each pass is a self-contained module under :mod:`repro.trace.passes` owning
one section of the :class:`~repro.trace.profile.KernelProfile` (see
``PASS_FIELDS`` in the profile module).  A pass declares which executor
events it *subscribes* to — the collector unions these and the engines
record exactly that set, so disabled passes cost nothing on the hot path.

Registration is by module import: each pass module decorates its class with
:func:`register_pass`, and the package ``__init__`` imports all built-in
pass modules.  The canonical order (and hence section order) is
``profile.PASS_NAMES``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.simt.ir import Kernel
from repro.simt.sink import EVENT_KINDS
from repro.trace.profile import PASS_FIELDS, PASS_NAMES, KernelProfile, canonical_passes

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.events import EventBatch


class AnalysisPass:
    """One independent characterization pass over the executor event stream.

    Subclasses set the class attributes and implement :meth:`consume`; the
    lifecycle hooks ``begin_kernel``/``end_kernel`` bracket every launch.
    """

    #: Registry key; must appear in ``profile.PASS_NAMES``.
    name: ClassVar[str]
    #: Event kinds this pass needs the engines to record (subset of EVENT_KINDS).
    subscribes: ClassVar[FrozenSet[str]] = frozenset()
    #: Profile fields owned by this pass (mirrors ``profile.PASS_FIELDS``).
    fields: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, config) -> None:
        self.config = config

    def begin_kernel(self, kernel: Kernel, profile: KernelProfile) -> None:
        """Reset per-launch state; ``profile`` is this launch's profile."""

    def consume(self, batch: "EventBatch") -> None:
        """Fold one batch of profiled blocks' events into the pass state.

        ``batch`` follows the schema in :mod:`repro.simt.events`: one group
        of columns per event kind (``batch.instr``, ``batch.mem``,
        ``batch.branch``), each in emission order with a leading event axis
        and a block axis behind it.  A pass reads only the kinds it
        subscribes to and reduces them with whole-column numpy kernels, not
        a Python loop per event.  A block takes part in an event only where
        its row has an active lane, and a memory pass must select its
        ``space``.  Integer counters are order-free; anything
        order-sensitive (float sums, sequential trackers) accumulates
        block-major, each block's events in order, so the section bytes do
        not depend on how the engine grouped blocks into batches.
        Temporaries stacked from the columns stay within
        :data:`~repro.simt.events.STACK_ELEMS` elements per chunk.
        """
        raise NotImplementedError

    def end_kernel(self, profile: KernelProfile) -> None:
        """Fold accumulated state into the owned profile section."""


def fold_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` added strictly left to right.

    This is the float a Python loop accumulating the values one by one
    yields (``np.cumsum`` is a sequential fold, unlike the pairwise
    ``np.sum``).
    """
    if not len(values):
        return start
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


_REGISTRY: Dict[str, Type[AnalysisPass]] = {}


def register_pass(cls: Type[AnalysisPass]) -> Type[AnalysisPass]:
    """Class decorator adding a pass to the registry (validated)."""
    name = getattr(cls, "name", None)
    if name not in PASS_NAMES:
        raise ValueError(f"pass name {name!r} not in profile.PASS_NAMES")
    if not cls.subscribes <= EVENT_KINDS:
        raise ValueError(f"pass {name!r} subscribes to unknown events: {cls.subscribes - EVENT_KINDS}")
    if tuple(cls.fields) != PASS_FIELDS[name]:
        raise ValueError(f"pass {name!r} fields {cls.fields!r} != profile.PASS_FIELDS[{name!r}]")
    _REGISTRY[name] = cls
    return cls


def pass_names() -> Tuple[str, ...]:
    """All registered pass names, in canonical order."""
    return tuple(n for n in PASS_NAMES if n in _REGISTRY)


def get_pass(name: str) -> Type[AnalysisPass]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown analysis pass {name!r}") from None


def resolve_passes(names: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """Normalize a pass selection: ``None`` means every registered pass."""
    if names is None:
        return pass_names()
    resolved = canonical_passes(names)
    missing = [n for n in resolved if n not in _REGISTRY]
    if missing:
        raise ValueError(f"analysis pass(es) not registered: {missing}")
    return resolved


def make_passes(names: Optional[Sequence[str]], config) -> List[AnalysisPass]:
    """Instantiate the selected passes in canonical order."""
    return [_REGISTRY[n](config) for n in resolve_passes(names)]


def pass_source_file(name: str) -> str:
    """Source file implementing a pass (the unit of cache invalidation)."""
    import inspect

    return inspect.getfile(get_pass(name))
