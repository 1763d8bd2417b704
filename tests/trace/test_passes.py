"""The pluggable analysis-pass architecture.

Covers the pass registry, demand-driven subset collection (subset-run
sections must be bit-identical to the full run's, on both engines), the
collector-config validation, and section-level profile merging.
"""

import pytest

from repro.trace import PASS_FIELDS, PASS_NAMES, merge_profiles
from repro.trace.collector import CollectorConfig, KernelTraceCollector
from repro.trace.passes import (
    get_pass,
    pass_names,
    pass_source_file,
    resolve_passes,
)
from repro.trace.profile import WorkloadProfile, canonical_passes
from repro.trace.serialize import (
    workload_header_bytes,
    workload_section_bytes,
)
from repro.workloads.runner import run_workload

#: Workloads exercising every pass between them (KM fetches textures).
SUBSET_WORKLOADS = ["VA", "HG", "KM"]


# ---------------------------------------------------------------------------
# Registry


def test_every_declared_pass_is_registered():
    assert pass_names() == PASS_NAMES


def test_pass_field_ownership_is_consistent():
    for name in PASS_NAMES:
        cls = get_pass(name)
        assert tuple(cls.fields) == PASS_FIELDS[name]
        assert cls.subscribes  # every pass consumes at least one event kind


def test_resolve_passes_canonicalizes_and_rejects_unknown():
    assert resolve_passes(None) == PASS_NAMES
    assert resolve_passes(["branch", "mix", "mix"]) == ("mix", "branch")
    with pytest.raises(ValueError, match="unknown analysis pass"):
        resolve_passes(["mix", "nonsense"])


def test_pass_source_files_are_distinct_modules():
    files = {pass_source_file(name) for name in PASS_NAMES}
    assert len(files) == len(PASS_NAMES)


def test_collector_subscriptions_shrink_with_passes():
    assert KernelTraceCollector().subscriptions() == {"instr", "mem", "branch"}
    assert KernelTraceCollector(passes=["mix"]).subscriptions() == {"instr"}
    assert KernelTraceCollector(passes=["branch"]).subscriptions() == {"branch"}
    assert KernelTraceCollector(passes=["reuse"]).subscriptions() == {"mem"}


# ---------------------------------------------------------------------------
# Collector-config validation


def test_collector_config_rejects_non_power_of_two_geometry():
    for field in ("line_bytes", "seg_small", "seg_large"):
        with pytest.raises(ValueError, match="power of two"):
            CollectorConfig(**{field: 48})
        with pytest.raises(ValueError, match="power of two"):
            CollectorConfig(**{field: 0})
        with pytest.raises(ValueError, match="power of two"):
            CollectorConfig(**{field: -64})
    # Valid powers of two still derive the line shift.
    config = CollectorConfig(line_bytes=64, seg_small=16, seg_large=256)
    assert config.line_bits == 6


# ---------------------------------------------------------------------------
# Subset parity: a subset run's sections are bit-identical to the full run's


def _profile(abbrev: str, engine: str, passes=None) -> WorkloadProfile:
    return run_workload(
        abbrev, verify=False, sample_blocks=8, engine=engine, passes=passes
    )


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_subset_sections_match_full_run(engine):
    subsets = [
        ("mix",), ("branch",), ("reuse",), ("mix", "branch"), ("coalescing", "reuse"),
        ("ilp", "shared", "texture"),
    ]
    for abbrev in SUBSET_WORKLOADS:
        full = _profile(abbrev, engine)
        assert full.passes == PASS_NAMES
        full_headers = workload_header_bytes(full)
        for subset in subsets:
            partial = _profile(abbrev, engine, passes=subset)
            assert partial.passes == canonical_passes(subset)
            # Headers carry the pass list, so compare them via the partial's
            # own pass set spliced into the full profile's header fields.
            for kp_full, kp_part in zip(full.kernels, partial.kernels):
                assert kp_full.kernel_name == kp_part.kernel_name
                assert kp_full.profiled_blocks == kp_part.profiled_blocks
            for name in partial.passes:
                assert workload_section_bytes(partial, name) == workload_section_bytes(
                    full, name
                ), f"{abbrev}/{engine}: pass {name!r} section differs from full run"
            # Demand-driven collection: the engine records only the kinds
            # the subset subscribes to, and all of each of those.
            subscribed = KernelTraceCollector(passes=subset).subscriptions()
            for kind, n in partial.engine_stats["event_counts"].items():
                expected = full.engine_stats["event_counts"][kind] if kind in subscribed else 0
                assert n == expected, f"{abbrev}/{engine}/{subset}: {kind} events {n} != {expected}"
        assert full_headers == workload_header_bytes(full)


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_cross_engine_subset_sections_identical(engine):
    # mix+branch subset across engines must also agree bit-for-bit.
    a = _profile("HG", "interpreted", passes=("mix", "branch"))
    b = _profile("HG", "compiled", passes=("mix", "branch"))
    for name in a.passes:
        assert workload_section_bytes(a, name) == workload_section_bytes(b, name)


# ---------------------------------------------------------------------------
# Section merging


def test_merge_profiles_combines_disjoint_sections():
    base = _profile("VA", "compiled", passes=("mix", "branch"))
    update = _profile("VA", "compiled", passes=("coalescing", "reuse"))
    merged = merge_profiles(base, update, update.passes)
    assert merged is not None
    assert merged.passes == ("mix", "branch", "coalescing", "reuse")
    full = _profile("VA", "compiled", passes=merged.passes)
    for name in merged.passes:
        assert workload_section_bytes(merged, name) == workload_section_bytes(full, name)


def test_merge_profiles_rejects_header_mismatch():
    base = _profile("VA", "compiled", passes=("mix",))
    other = _profile("HG", "compiled", passes=("branch",))
    assert merge_profiles(base, other, other.passes) is None
