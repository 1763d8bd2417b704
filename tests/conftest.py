"""Shared fixtures.

``suite_profiles`` characterizes all 29 workloads once per machine (results
are cached on disk by the pipeline), so analysis-level tests can run against
real data without re-simulating per test.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import CharacterizationConfig, characterize
from repro.simt import Device, Executor, KernelBuilder
from repro.telemetry import get_telemetry
from repro.trace import KernelTraceCollector


#: Frozen per-pass section digests, recorded from the interpreted engine.
SECTION_DIGESTS_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "section_digests.json"
)
DIGEST_REGEN_HINT = (
    "if the section change is intentional, regenerate the fixture with "
    "`PYTHONPATH=src python scripts/regen_section_digests.py` and review its diff"
)


def load_section_digests():
    with open(SECTION_DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def suite_result():
    return characterize(CharacterizationConfig())


@pytest.fixture(scope="session")
def suite_profiles(suite_result):
    return suite_result.profiles


@pytest.fixture()
def global_tele():
    """The process-global telemetry registry, enabled and emptied for one
    test, then restored to disabled+empty afterwards."""
    t = get_telemetry()
    t.enable(reset=True)
    yield t
    t.disable()
    t.reset()


@pytest.fixture()
def device():
    return Device()


def run_kernel(kernel, grid, block, args, device=None, **executor_kwargs):
    """Execute a kernel under a fresh collector; returns (device, profile)."""
    device = device or Device()
    collector = KernelTraceCollector()
    executor = Executor(device, sinks=[collector], **executor_kwargs)
    executor.launch(kernel, grid, block, args)
    return device, collector.profiles[0]


def build_copy_kernel():
    """Guarded element-wise copy used by several tests."""
    b = KernelBuilder("copy")
    src = b.param_buf("src")
    dst = b.param_buf("dst")
    n = b.param_i32("n")
    i = b.global_thread_id()
    with b.if_(b.ilt(i, n)):
        b.st(dst, i, b.ld(src, i))
    return b.finalize()
