"""JSON profile serialization: exact round-trip of every metric input."""

import io
import json

import numpy as np
import pytest

from repro.core import metrics
from repro.trace.serialize import (
    dump_profiles,
    kernel_from_dict,
    kernel_to_dict,
    load_profiles,
)


def test_roundtrip_via_file(tmp_path, suite_profiles):
    path = str(tmp_path / "profiles.json")
    dump_profiles(suite_profiles, path)
    loaded = load_profiles(path)
    assert [p.workload for p in loaded] == [p.workload for p in suite_profiles]


def test_roundtrip_preserves_metrics_exactly(suite_profiles):
    buf = io.StringIO()
    dump_profiles(suite_profiles, buf)
    buf.seek(0)
    loaded = load_profiles(buf)
    for original, restored in zip(suite_profiles, loaded):
        assert metrics.extract_vector(original) == metrics.extract_vector(restored)


def test_kernel_dict_roundtrip_fields(suite_profiles):
    kernel = suite_profiles[0].kernels[0]
    restored = kernel_from_dict(kernel_to_dict(kernel))
    assert restored.kernel_name == kernel.kernel_name
    assert restored.grid == kernel.grid
    assert restored.ilp == kernel.ilp
    assert restored.branch == kernel.branch
    assert np.array_equal(restored.locality.reuse_histogram, kernel.locality.reuse_histogram)
    assert restored.texture.accesses == kernel.texture.accesses


def test_json_is_plain_data(suite_profiles):
    buf = io.StringIO()
    dump_profiles(suite_profiles[:2], buf)
    payload = json.loads(buf.getvalue())
    assert payload["format_version"] == 2
    assert len(payload["profiles"]) == 2
    # Sectioned layout: every kernel dict carries its pass list and one
    # section per pass.
    kernel = payload["profiles"][0]["kernels"][0]
    assert set(kernel["sections"]) == set(kernel["passes"])


def test_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "profiles": []}))
    with pytest.raises(ValueError, match="version"):
        load_profiles(str(path))


def test_stored_shard_bytes_are_json_dumps_of_its_document(tmp_path, suite_profiles):
    from repro.core.runtime import ProfileCache
    from repro.trace.serialize import load_workload_profile
    from repro.workloads import registry

    profile = suite_profiles[0]
    cache = ProfileCache(str(tmp_path))
    path = cache.store(registry.get(profile.workload), None, profile, 0.5)
    _, metadata = load_workload_profile(path)
    with open(path) as f:
        doc = json.load(f)
    assert doc["metadata"] == metadata
    with open(path, "rb") as f:
        assert f.read() == json.dumps(doc).encode()
