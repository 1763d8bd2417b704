"""Stable, typed public API for the characterization toolkit.

Four PRs grew entrypoints across :mod:`repro.core.runtime`,
:mod:`repro.core.pipeline` and the CLI; this module is the one import path
that is guaranteed to stay stable::

    import repro.api as api

    result = api.characterize(api.CharacterizationConfig(abbrevs=["VA", "KM"]))
    analysis = api.analyze(result)
    evaluation = api.evaluate(analysis, subset_k=8)

    with api.trace_session("run.json"):         # telemetry sink attachment
        api.characterize(api.CharacterizationConfig())

Everything here is re-exported from :mod:`repro` itself, so
``from repro import characterize`` works too.

Migration from the removed legacy entrypoints:

=============================================  =================================================
old (removed)                                  new
=============================================  =================================================
``core.pipeline.characterize_suites(cfg)``     ``api.characterize(cfg).profiles``
``core.pipeline.characterize_and_analyze()``   ``api.analyze(api.characterize())``
``core.pipeline.analyze(profiles)``            ``api.analyze(result_or_profiles)``
``observer=ConsoleObserver()``                 ``progress=lambda m: print(m, file=sys.stderr)``
=============================================  =================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.core.pipeline import AnalysisResult
from repro.core.runtime import (
    CharacterizationConfig,
    CharacterizationError,
    CharacterizationResult,
    run_characterization,
)
from repro.telemetry import Telemetry, get_telemetry, write_trace
from repro.trace.profile import WorkloadProfile

__all__ = [
    "CharacterizationConfig",
    "CharacterizationError",
    "CharacterizationResult",
    "AnalysisResult",
    "EvaluationResult",
    "characterize",
    "analyze",
    "evaluate",
    "trace_session",
]

#: ``analyze``/``evaluate`` accept either the result object or bare profiles.
ProfileSource = Union[CharacterizationResult, Sequence[WorkloadProfile]]


def characterize(
    config: Optional[CharacterizationConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    strict: bool = True,
) -> CharacterizationResult:
    """Characterize a workload set (all registered ones by default).

    Returns the full :class:`CharacterizationResult` — profiles, structured
    failures and cache statistics.  ``progress`` receives one line per suite
    and workload milestone (started, cached, ok, FAILED, done).  With
    ``strict=True`` (default) any workload failure raises
    :class:`CharacterizationError`; ``strict=False`` returns the partial
    result for callers that want to inspect failures themselves.
    """
    if config is not None and not isinstance(config, CharacterizationConfig):
        raise TypeError(
            f"characterize() takes a CharacterizationConfig, got {type(config).__name__}"
        )
    result = run_characterization(config, progress)
    if strict and result.failures:
        raise CharacterizationError(result.failures)
    return result


def _as_profiles(source: ProfileSource) -> List[WorkloadProfile]:
    if isinstance(source, CharacterizationResult):
        return list(source.profiles)
    return list(source)


def analyze(
    source: ProfileSource,
    variance_target: float = 0.9,
    linkage_method: str = "average",
    k_range: Optional[Sequence[int]] = None,
    seed: int = 7,
    subspaces: Optional[Dict[str, Sequence[str]]] = None,
    metric_names: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Run the paper's methodology on a characterization result.

    ``source`` is a :class:`CharacterizationResult` (from
    :func:`characterize`) or a bare profile sequence.  Produces the feature
    matrix, PCA, dendrogram, K-means clusters, representatives and subspace
    analyses — see :class:`AnalysisResult`.  Raises ``ValueError`` for
    fewer than two workloads.
    """
    from repro.core import pipeline

    profiles = _as_profiles(source)
    if len(profiles) < 2:
        raise ValueError(f"analysis needs at least two workloads, got {len(profiles)}")
    with get_telemetry().span("analyze", workloads=len(profiles)):
        return pipeline.analyze(
            profiles,
            variance_target=variance_target,
            linkage_method=linkage_method,
            k_range=k_range,
            seed=seed,
            subspaces=subspaces,
            metric_names=metric_names,
        )


@dataclass
class EvaluationResult:
    """Design-space evaluation of a representative subset vs the full suite."""

    #: Workload abbrevs of the chosen cluster representatives.
    representatives: List[str]
    #: Cluster-share weight of each representative.
    weights: List[float]
    #: Per-design accuracy record (errors, Kendall tau, winner agreement).
    subset: "SubsetEvaluation"  # noqa: F821 - resolved at runtime
    #: Timing model the speedup matrix came from.
    model: str = "roofline"

    @property
    def mean_error(self) -> float:
        return self.subset.mean_error

    @property
    def kendall_tau(self) -> float:
        return self.subset.kendall_tau

    @property
    def same_winner(self) -> bool:
        return self.subset.same_winner


def evaluate(
    source: ProfileSource,
    subset_k: int = 8,
    analysis: Optional[AnalysisResult] = None,
    seed: int = 0,
    model: str = "roofline",
    configs: Optional[Sequence["GpuConfig"]] = None,  # noqa: F821
    jobs: Optional[int] = None,
    use_cache: bool = True,
) -> EvaluationResult:
    """Evaluate how well a ``subset_k``-representative subset covers the
    microarchitecture design space.

    Clusters the PCA scores into ``subset_k`` groups, picks one
    representative per cluster and compares subset-estimated speedups
    against the full suite.  The speedup matrix comes from the DSE sweep
    engine (:func:`repro.uarch.run_sweep`), so results are served from
    content-addressed timing shards when available; ``model`` selects any
    registered timing model (``roofline``/``cycle``) and ``configs``
    overrides the default design space.  Pass ``analysis`` to reuse an
    existing :func:`analyze` result instead of recomputing it.  Raises
    ``ValueError`` unless ``1 <= subset_k <=`` the number of workloads.
    """
    from repro.core.analysis.diversity import representatives as pick_reps
    from repro.core.evaluation import evaluate_subset
    from repro.uarch import default_space, run_sweep

    profiles = _as_profiles(source)
    if not 1 <= subset_k <= len(profiles):
        raise ValueError(f"subset_k must be in [1, {len(profiles)}], got {subset_k}")
    if analysis is None:
        analysis = analyze(profiles)
    config_list = list(configs) if configs is not None else default_space().configs()
    with get_telemetry().span("evaluate", model=model, subset_k=subset_k) as span:
        # A characterization result digests each profile once across
        # evaluations; a bare profile list is digested by the sweep.
        held = use_cache and isinstance(source, CharacterizationResult)
        sweep = run_sweep(
            profiles,
            configs=config_list,
            models=(model,),
            jobs=jobs,
            use_cache=use_cache,
            digests=source.profile_digests() if held else None,
        )
        perf = sweep.speedups(model)
        km, fitted = analysis.subset_clustering(subset_k, seed)
        span.set(clustering="fitted" if fitted else "reused")
        reps = pick_reps(km, analysis.pca.scores, analysis.workloads)
        subset = evaluate_subset(
            perf,
            [r.index for r in reps],
            [r.weight for r in reps],
            [c.name for c in config_list],
        )
    return EvaluationResult(
        representatives=[r.workload for r in reps],
        weights=[r.weight for r in reps],
        subset=subset,
        model=model,
    )


@contextmanager
def trace_session(
    trace_out: Optional[str] = None, reset: bool = True
) -> Iterator[Telemetry]:
    """Enable telemetry for a block of work, exporting a trace on exit.

    The documented way to attach a telemetry sink to the pipeline::

        with api.trace_session("run.json") as tele:
            api.characterize(config)
        # run.json is now a chrome://tracing-loadable trace

    ``trace_out`` names the Chrome trace-event JSON file to write, whatever
    its extension; ``None`` enables collection without exporting (read the
    returned :class:`Telemetry` directly).  The trace is written even when
    the traced block raises.  Telemetry is disabled again on exit.
    """
    tele = get_telemetry()
    tele.enable(reset=reset)
    try:
        yield tele
    finally:
        tele.disable()
        if trace_out:
            write_trace(tele, trace_out)
