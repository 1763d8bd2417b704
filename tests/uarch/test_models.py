"""Timing-model registry: naming, adapters, source declarations."""

import numpy as np
import pytest

from repro.trace.profile import GlobalMemStats, KernelProfile, LocalityStats
from repro.uarch import (
    BASELINE,
    TimingModel,
    get_model,
    model_names,
    model_source_files,
    resolve_models,
    simulate_kernel,
    time_kernel,
)
from repro.uarch.models import register_model


def _kernel() -> KernelProfile:
    hist = np.zeros(64, dtype=np.int64)
    hist[3] = 40_000
    return KernelProfile(
        kernel_name="k",
        grid=(64, 1),
        block=(256, 1),
        total_blocks=64,
        profiled_blocks=64,
        threads_total=64 * 256,
        thread_instrs={"fp": 2_000_000, "ld.global": 200_000},
        warp_instrs={"fp": 80_000, "ld.global": 6_250},
        gmem=GlobalMemStats(accesses=6_250, transactions_32b=25_000, transactions_128b=50_000),
        locality=LocalityStats(
            reuse_histogram=hist,
            cold_misses=60_000,
            line_accesses=100_000,
            unique_lines=60_000,
        ),
    )


def test_registry_order_and_lookup():
    assert model_names() == ["roofline", "cycle"]
    assert get_model("roofline").name == "roofline"
    with pytest.raises(ValueError, match="unknown timing model"):
        get_model("oracle")


def test_resolve_models_canonicalizes():
    assert resolve_models(None) == ("roofline", "cycle")
    assert resolve_models(["cycle"]) == ("cycle",)
    # Order and duplicates normalise to registration order.
    assert resolve_models(["cycle", "roofline", "cycle"]) == ("roofline", "cycle")
    with pytest.raises(ValueError, match="unknown timing model"):
        resolve_models(["roofline", "oracle"])


def test_roofline_adapter_matches_time_kernel():
    k = _kernel()
    assert get_model("roofline").estimate(k, BASELINE) == time_kernel(k, BASELINE).total_cycles


def test_cycle_adapter_matches_simulate_kernel():
    k = _kernel()
    assert get_model("cycle").estimate(k, BASELINE) == simulate_kernel(k, BASELINE).cycles


def test_source_files_declare_invalidation_units():
    roofline = model_source_files("roofline")
    cycle = model_source_files("cycle")
    assert [p.endswith("model.py") for p in roofline] == [True]
    # The cycle model imports helpers from model.py, so editing either file
    # must invalidate its shards.
    assert any(p.endswith("cycle.py") for p in cycle)
    assert any(p.endswith("model.py") for p in cycle)


def test_register_model_validates():
    class Anonymous(TimingModel):
        pass

    with pytest.raises(ValueError, match="must set a name"):
        register_model(Anonymous)

    class NoSources(TimingModel):
        name = "no-sources"

    with pytest.raises(ValueError, match="source modules"):
        register_model(NoSources)

    class Duplicate(TimingModel):
        name = "roofline"
        sources = (np,)

    with pytest.raises(ValueError, match="duplicate"):
        register_model(Duplicate)
