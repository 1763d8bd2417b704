"""Run workloads under trace collection and produce workload profiles."""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence, Type, Union

from repro.simt.executor import Executor, profile_all_blocks, stride_sampler
from repro.simt.memory import Device
from repro.trace.collector import CollectorConfig, KernelTraceCollector
from repro.trace.profile import WorkloadProfile
from repro.workloads import registry
from repro.workloads.base import RunContext, Workload

#: Default cap on profiled blocks per kernel launch; functional execution
#: always covers every block, this only bounds observation cost.
DEFAULT_SAMPLE_BLOCKS = 48


def run_workload(
    workload: Union[Workload, Type[Workload], str],
    verify: bool = True,
    sample_blocks: Optional[int] = DEFAULT_SAMPLE_BLOCKS,
    collector_config: Optional[CollectorConfig] = None,
    seed: int = 1234,
    engine: str = "compiled",
    batch_blocks: Optional[int] = None,
    passes: Optional[Sequence[str]] = None,
) -> WorkloadProfile:
    """Execute one workload under trace collection.

    ``verify=True`` (the default) also runs the workload's numpy reference
    check, so every characterization run doubles as a correctness test of
    the simulator and the kernel implementations.  ``engine`` selects the
    execution engine (``"compiled"`` batches unprofiled blocks under
    sampling; ``"interpreted"`` is the reference per-block interpreter) and
    produces bit-identical device memory and profiles either way.
    ``passes`` selects the analysis passes to collect (``None`` = all);
    the engines record only the events those passes subscribe to.

    The returned profile carries the executor's aggregate launch counters
    as an ``engine_stats`` attribute (an execution detail, not part of the
    serialized profile format — profiles rebuilt from cache don't have it).
    """
    if isinstance(workload, str):
        workload = registry.get(workload)
    if isinstance(workload, type):
        workload = workload()

    device = Device()
    collector = KernelTraceCollector(collector_config, passes=passes)
    pf = profile_all_blocks if sample_blocks is None else stride_sampler(sample_blocks)
    executor = Executor(
        device,
        sinks=[collector],
        profile_filter=pf,
        engine=engine,
        batch_blocks=batch_blocks,
    )
    ctx = RunContext(device, executor, seed=seed)
    workload.run(ctx)
    if verify:
        workload.check(ctx)
    profile = WorkloadProfile(
        workload=workload.abbrev,
        suite=workload.suite,
        kernels=collector.profiles,
    )
    profile.engine_stats = executor.launch_stats_totals
    return profile


def run_suite(
    abbrevs: Optional[Sequence[str]] = None,
    verify: bool = True,
    sample_blocks: Optional[int] = DEFAULT_SAMPLE_BLOCKS,
    collector_config: Optional[CollectorConfig] = None,
    progress: Optional[callable] = None,
    observer=None,
    engine: str = "compiled",
) -> List[WorkloadProfile]:
    """Characterize a set of workloads (all registered ones by default).

    This is the low-level serial loop with no caching; most callers want
    :func:`repro.core.runtime.run_characterization` (parallel, cached,
    fault-isolated) or the :func:`repro.api.characterize` facade.
    ``observer`` receives the same typed events as the runtime; the
    ``progress`` callback is deprecated in its favour.
    """
    if progress is not None:
        import warnings

        warnings.warn(
            "run_suite(progress=...) is deprecated; pass observer=RunObserver",
            DeprecationWarning,
            stacklevel=2,
        )
        if observer is None:
            from repro.core.runtime import CallbackObserver

            observer = CallbackObserver(progress)
    classes: Iterable[Type[Workload]]
    if abbrevs is None:
        classes = registry.all_workloads()
    else:
        classes = [registry.get(a) for a in abbrevs]
    profiles = []
    for cls in classes:
        if observer is not None:
            from repro.core.runtime import WorkloadFinished, WorkloadStarted

            observer.on_event(WorkloadStarted(workload=cls.abbrev, attempt=1))
        t0 = time.perf_counter()
        profile = run_workload(
            cls,
            verify=verify,
            sample_blocks=sample_blocks,
            collector_config=collector_config,
            engine=engine,
        )
        if observer is not None:
            observer.on_event(
                WorkloadFinished(
                    workload=cls.abbrev,
                    wall_seconds=time.perf_counter() - t0,
                    thread_instrs=int(profile.total_thread_instrs),
                    warp_instrs=int(profile.total_warp_instrs),
                    kernels=len(profile.kernels),
                    attempt=1,
                )
            )
        profiles.append(profile)
    return profiles
