"""JSON (de)serialization of profiles.

JSON is the *portable* artifact format — profiles exported here can be
diffed, archived alongside papers, or consumed by non-Python tooling.
Round-trip is exact for every field the metrics read.

Format version 2 is **sectioned**: each kernel dict is a launch header plus
one section per enabled analysis pass (see ``profile.PASS_FIELDS``).  A
section round-trips independently of the others, which is what gives the
profile cache its per-pass granularity and the fuzz oracle its per-pass
comparison; :func:`kernel_section_bytes` / :func:`workload_section_bytes`
provide the per-pass canonical bytes.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.trace.profile import (
    BranchStats,
    GlobalMemStats,
    KernelProfile,
    LocalityStats,
    SharedMemStats,
    TextureStats,
    WorkloadProfile,
    canonical_passes,
)

FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Per-section encode/decode


def _locality_to_dict(loc) -> Dict:
    return {
        "reuse_histogram": loc.reuse_histogram.tolist(),
        "cold_misses": loc.cold_misses,
        "line_accesses": loc.line_accesses,
        "unique_lines": loc.unique_lines,
    }


_SECTION_TO_DICT = {
    "mix": lambda p: {
        "thread_instrs": dict(p.thread_instrs),
        "warp_instrs": dict(p.warp_instrs),
        "simd_lane_sum": p.simd_lane_sum,
        "simd_slot_sum": p.simd_slot_sum,
        "warp_imbalance_cv": p.warp_imbalance_cv,
    },
    "ilp": lambda p: {"ilp": {str(k): v for k, v in p.ilp.items()}},
    "branch": lambda p: vars(p.branch).copy(),
    "coalescing": lambda p: {**vars(p.gmem), "local_strides": dict(p.gmem.local_strides)},
    "shared": lambda p: vars(p.shmem).copy(),
    "reuse": lambda p: _locality_to_dict(p.locality),
    "texture": lambda p: {
        "accesses": p.texture.accesses,
        "lane_accesses": p.texture.lane_accesses,
        **_locality_to_dict(p.texture),
    },
}


def _apply_mix(p: KernelProfile, d: Dict) -> None:
    p.thread_instrs = dict(d["thread_instrs"])
    p.warp_instrs = dict(d["warp_instrs"])
    p.simd_lane_sum = d["simd_lane_sum"]
    p.simd_slot_sum = d["simd_slot_sum"]
    p.warp_imbalance_cv = d["warp_imbalance_cv"]


def _apply_texture(p: KernelProfile, d: Dict) -> None:
    p.texture = TextureStats(
        accesses=d["accesses"],
        lane_accesses=d["lane_accesses"],
        reuse_histogram=np.asarray(d["reuse_histogram"], dtype=np.int64),
        cold_misses=d["cold_misses"],
        line_accesses=d["line_accesses"],
        unique_lines=d["unique_lines"],
    )


_SECTION_FROM_DICT = {
    "mix": _apply_mix,
    "ilp": lambda p, d: setattr(p, "ilp", {int(k): v for k, v in d["ilp"].items()}),
    "branch": lambda p, d: setattr(p, "branch", BranchStats(**d)),
    "coalescing": lambda p, d: setattr(p, "gmem", GlobalMemStats(**d)),
    "shared": lambda p, d: setattr(p, "shmem", SharedMemStats(**d)),
    "reuse": lambda p, d: setattr(
        p,
        "locality",
        LocalityStats(
            reuse_histogram=np.asarray(d["reuse_histogram"], dtype=np.int64),
            cold_misses=d["cold_misses"],
            line_accesses=d["line_accesses"],
            unique_lines=d["unique_lines"],
        ),
    ),
    "texture": _apply_texture,
}


def kernel_header_dict(profile: KernelProfile) -> Dict:
    """The always-collected launch header (no pass sections)."""
    return {
        "kernel_name": profile.kernel_name,
        "grid": list(profile.grid),
        "block": list(profile.block),
        "total_blocks": profile.total_blocks,
        "profiled_blocks": profile.profiled_blocks,
        "threads_total": profile.threads_total,
        "shared_bytes": profile.shared_bytes,
        "register_pressure": profile.register_pressure,
        "passes": list(profile.passes),
    }


def kernel_section_dict(profile: KernelProfile, pass_name: str) -> Dict:
    """One pass's profile section as plain JSON data."""
    return _SECTION_TO_DICT[pass_name](profile)


def kernel_to_dict(profile: KernelProfile) -> Dict:
    d = kernel_header_dict(profile)
    d["sections"] = {name: kernel_section_dict(profile, name) for name in profile.passes}
    return d


def kernel_from_dict(data: Dict) -> KernelProfile:
    passes = canonical_passes(data["passes"])
    profile = KernelProfile(
        kernel_name=data["kernel_name"],
        grid=tuple(data["grid"]),
        block=tuple(data["block"]),
        total_blocks=data["total_blocks"],
        profiled_blocks=data["profiled_blocks"],
        threads_total=data["threads_total"],
        shared_bytes=data["shared_bytes"],
        register_pressure=data.get("register_pressure", 16),
        passes=passes,
    )
    sections = data["sections"]
    for name in passes:
        _SECTION_FROM_DICT[name](profile, sections[name])
    return profile


def workload_to_dict(profile: WorkloadProfile) -> Dict:
    return {
        "workload": profile.workload,
        "suite": profile.suite,
        "kernels": [kernel_to_dict(k) for k in profile.kernels],
    }


def workload_from_dict(data: Dict) -> WorkloadProfile:
    return WorkloadProfile(
        workload=data["workload"],
        suite=data["suite"],
        kernels=[kernel_from_dict(k) for k in data["kernels"]],
    )


# ---------------------------------------------------------------------------
# Canonical bytes


def _canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def kernel_profile_bytes(profile: KernelProfile) -> bytes:
    """Canonical byte serialization of one kernel profile.

    Sorted keys, no whitespace: two profiles are semantically equal exactly
    when their canonical bytes are equal, which is what the engine-parity
    oracle and the determinism tests compare (and what the profile-cache
    shard digests of PR 1 implicitly rely on).
    """
    return _canonical(kernel_to_dict(profile))


def workload_profile_bytes(profile: WorkloadProfile) -> bytes:
    """Canonical byte serialization of a workload profile (see above)."""
    return _canonical(workload_to_dict(profile))


def kernel_section_bytes(profile: KernelProfile, pass_name: str) -> bytes:
    """Canonical bytes of one pass's section of one kernel profile."""
    return _canonical(kernel_section_dict(profile, pass_name))


def workload_section_bytes(profile: WorkloadProfile, pass_name: str) -> bytes:
    """Canonical bytes of one pass's sections across a workload's launches."""
    return _canonical([kernel_section_dict(k, pass_name) for k in profile.kernels])


def workload_header_bytes(profile: WorkloadProfile) -> bytes:
    """Canonical bytes of all launch headers of a workload profile."""
    return _canonical([kernel_header_dict(k) for k in profile.kernels])


def section_digests(profile: WorkloadProfile) -> Dict[str, str]:
    """sha256 of the launch headers (``"header"``) and of each pass's sections."""
    out = {"header": hashlib.sha256(workload_header_bytes(profile)).hexdigest()}
    for name in profile.passes:
        out[name] = hashlib.sha256(workload_section_bytes(profile, name)).hexdigest()
    return out


# ---------------------------------------------------------------------------
# Files


def dump_workload_profile(
    profile: WorkloadProfile,
    fp: Union[str, IO[str]],
    metadata: Optional[Dict] = None,
) -> None:
    """Write a single workload profile (plus optional metadata) as JSON.

    This is the on-disk format of one profile-cache shard: self-describing,
    diffable, and readable without unpickling arbitrary code.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "metadata": metadata or {},
        "profile": workload_to_dict(profile),
    }
    if isinstance(fp, str):
        with open(fp, "w") as f:
            json.dump(payload, f)
    else:
        json.dump(payload, fp)


def load_workload_profile(fp: Union[str, IO[str]]) -> Tuple[WorkloadProfile, Dict]:
    """Read ``(profile, metadata)`` written by :func:`dump_workload_profile`."""
    if isinstance(fp, str):
        with open(fp) as f:
            payload = json.load(f)
    else:
        payload = json.load(fp)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported profile format version {version!r}")
    return workload_from_dict(payload["profile"]), payload.get("metadata", {})


def dump_profiles(profiles: Sequence[WorkloadProfile], fp: Union[str, IO[str]]) -> None:
    """Write profiles as JSON to a path or file object."""
    payload = {
        "format_version": FORMAT_VERSION,
        "profiles": [workload_to_dict(p) for p in profiles],
    }
    if isinstance(fp, str):
        with open(fp, "w") as f:
            json.dump(payload, f)
    else:
        json.dump(payload, fp)


def load_profiles(fp: Union[str, IO[str]]) -> List[WorkloadProfile]:
    """Read profiles written by :func:`dump_profiles`."""
    if isinstance(fp, str):
        with open(fp) as f:
            payload = json.load(f)
    else:
        payload = json.load(fp)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported profile format version {version!r}")
    return [workload_from_dict(d) for d in payload["profiles"]]
