"""Dynamic trace collection: sinks that turn SIMT execution into profiles.

Collection is organized as pluggable analysis passes (see
:mod:`repro.trace.passes`); the :class:`KernelTraceCollector` dispatches
executor events to the enabled passes, each of which owns one section of
the resulting :class:`KernelProfile`.
"""

from repro.trace.collector import (
    CollectorConfig,
    ILP_WINDOWS,
    KernelTraceCollector,
    LINE_BYTES,
    NUM_BANKS,
    SEG_LARGE,
    SEG_SMALL,
)
from repro.trace.passes import AnalysisPass, pass_names, register_pass, resolve_passes
from repro.trace.profile import (
    BranchStats,
    GlobalMemStats,
    KernelProfile,
    LocalityStats,
    PASS_FIELDS,
    PASS_NAMES,
    SharedMemStats,
    TextureStats,
    WorkloadProfile,
    merge_profiles,
)
from repro.trace.reuse import ReuseDistanceTracker
from repro.trace.serialize import dump_profiles, load_profiles

__all__ = [
    "AnalysisPass",
    "BranchStats",
    "CollectorConfig",
    "GlobalMemStats",
    "ILP_WINDOWS",
    "KernelProfile",
    "KernelTraceCollector",
    "LINE_BYTES",
    "LocalityStats",
    "NUM_BANKS",
    "PASS_FIELDS",
    "PASS_NAMES",
    "ReuseDistanceTracker",
    "SEG_LARGE",
    "SEG_SMALL",
    "SharedMemStats",
    "TextureStats",
    "WorkloadProfile",
    "dump_profiles",
    "load_profiles",
    "merge_profiles",
    "pass_names",
    "register_pass",
    "resolve_passes",
]
