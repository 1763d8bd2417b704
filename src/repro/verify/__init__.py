"""Metamorphic invariant verification for the characterize→analyze→evaluate pipeline.

``repro.verify`` is the statistical counterpart of the engine-parity
fuzzer: a registry of executable properties asserting that profiles are
schedule-independent, trace collection is demand-composable, the analysis
stack honours its algebraic promises, and the uarch models respect
resource dominance and subset-ranking fidelity.  Drive it with
``python -m repro verify`` or programmatically via :func:`run_verify` /
:func:`run_selftest`.
"""

from repro.verify.registry import (
    CaseProperty,
    PlantResult,
    Property,
    PropertyResult,
    VerifyContext,
    all_properties,
    get_property,
    register,
)
from repro.verify.runner import (
    REPORT_SCHEMA,
    VerifyReport,
    format_report,
    run_selftest,
    run_verify,
    select_properties,
)

__all__ = [
    "CaseProperty",
    "PlantResult",
    "Property",
    "PropertyResult",
    "VerifyContext",
    "all_properties",
    "get_property",
    "register",
    "REPORT_SCHEMA",
    "VerifyReport",
    "format_report",
    "run_selftest",
    "run_verify",
    "select_properties",
]
