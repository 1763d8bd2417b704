"""Run workloads under trace collection and produce workload profiles."""

from __future__ import annotations

from typing import Optional, Sequence, Type, Union

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

