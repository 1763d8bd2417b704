"""GPGPU workload characterization toolkit.

Reproduction of Goswami, Shankar, Joshi & Li, "Exploring GPGPU Workloads:
Characterization Methodology, Analysis and Microarchitecture Evaluation
Implications" (IISWC 2010).

Layers (bottom-up):

* :mod:`repro.simt` — a from-scratch SIMT functional simulator (the trace
  substrate);
* :mod:`repro.trace` — dynamic trace collection and per-kernel profiles;
* :mod:`repro.workloads` — 29 CUDA SDK / Parboil / Rodinia workloads;
* :mod:`repro.core` — microarchitecture-agnostic characteristics, PCA +
  clustering analysis, and design-space evaluation metrics;
* :mod:`repro.uarch` — an analytical GPU timing model for the evaluation-
  implications experiments;
* :mod:`repro.telemetry` — spans, metrics and trace export for the whole
  pipeline;
* :mod:`repro.report` — text tables and figures;
* :mod:`repro.api` — the stable, typed facade over all of the above.

Quick start::

    import repro

    result = repro.characterize()           # CharacterizationResult
    analysis = repro.analyze(result)        # AnalysisResult
    print(analysis.representatives)

    with repro.trace_session("run.json"):   # chrome://tracing-loadable
        repro.characterize()
"""

__version__ = "1.0.0"

from repro.api import (
    AnalysisResult,
    CharacterizationConfig,
    CharacterizationError,
    CharacterizationResult,
    EvaluationResult,
    analyze,
    characterize,
    evaluate,
    trace_session,
)
from repro.workloads import run_workload

__all__ = [
    "AnalysisResult",
    "CharacterizationConfig",
    "CharacterizationError",
    "CharacterizationResult",
    "EvaluationResult",
    "__version__",
    "analyze",
    "characterize",
    "evaluate",
    "run_workload",
    "trace_session",
]
