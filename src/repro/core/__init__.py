"""The paper's core contribution: characteristics, analysis and evaluation."""

from repro.core import evaluation, kernelspace, metrics
from repro.core.placement import Placement, place_workload
from repro.core.featurespace import (
    FeatureMatrix,
    StandardizedMatrix,
    correlated_pairs,
    correlation_matrix,
    standardize,
)
from repro.core.pipeline import AnalysisResult, analyze
from repro.core.runtime import (
    CharacterizationConfig,
    CharacterizationError,
    CharacterizationResult,
    ProfileCache,
    WorkloadFailure,
    run_characterization,
)

__all__ = [
    "AnalysisResult",
    "CharacterizationConfig",
    "CharacterizationError",
    "CharacterizationResult",
    "FeatureMatrix",
    "Placement",
    "ProfileCache",
    "StandardizedMatrix",
    "WorkloadFailure",
    "analyze",
    "correlated_pairs",
    "correlation_matrix",
    "evaluation",
    "kernelspace",
    "metrics",
    "place_workload",
    "run_characterization",
    "standardize",
]
