"""Cached, parallel design-space sweep engine.

``run_sweep`` fans every (workload × design point × timing model) cell out
over the same process pool the characterization engine uses, backed by
content-addressed *timing shards* so reruns are free:

* one shard per (workload, model), named by the workload, its profile
  digest (sha256 of the canonical serialized profile) and the model name;
* the shard records the model's source digest
  (:func:`repro.uarch.models.model_source_files` content hash) — editing
  a model's source invalidates exactly that model's shards, just as the
  profile cache's per-pass digests invalidate per-pass sections;
* inside a shard, entries are keyed by a value-addressed config digest
  (every ``GpuConfig`` field except the display name), so adding design
  points to a space tops up only the missing cells (the partial-hit merge
  the profile cache introduced); a malformed entry is a miss, recomputed
  and overwritten.

Each profile digest and config key is computed once per sweep, and each
worker call shares one ``memo`` dict across its configs, so a model
computes each distinct intermediate once per (workload, model).

Every cell is a pure function of (profile, config, model source), computed
in double precision and round-tripped through canonical JSON — which is
exact for Python floats — so serial, parallel and cached sweeps are
bit-identical by construction.

Built on top of the raw cycle matrices: per-design speedups, a crude
cost/speedup Pareto frontier, and per-axis sensitivity summaries for the
``repro dse`` CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.runtime import (
    _pool_context,
    default_cache_dir,
    numeric_environment,
    resolve_jobs,
)
from repro.telemetry import get_telemetry
from repro.trace.profile import WorkloadProfile
from repro.trace.serialize import workload_profile_bytes
from repro.uarch.config import BASELINE, GpuConfig
from repro.uarch.models import get_model, model_source_files, resolve_models

SHARD_SCHEMA = "repro.timing-shard/v1"
_SHARD_SUFFIX = ".timing.json"


def profile_digest(profile: WorkloadProfile) -> str:
    """Content digest of a workload profile (canonical serialized bytes)."""
    return hashlib.sha256(workload_profile_bytes(profile)).hexdigest()[:16]


def _config_fields(config: GpuConfig) -> Dict[str, object]:
    """Every ``GpuConfig`` field except the display name."""
    return {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(GpuConfig)
        if f.name != "name"
    }


def config_key(config: GpuConfig) -> str:
    """Value-addressed digest of a design point (display name excluded)."""
    blob = json.dumps(_config_fields(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _served_cycles(entry: object) -> Optional[float]:
    """Cycles of a well-formed shard entry; ``None`` makes the cell a miss.

    Only a finite, non-negative real number (not a bool) is served: a torn
    or hand-edited entry is recomputed, never returned as a number.
    """
    cycles = entry.get("cycles") if isinstance(entry, dict) else None
    if type(cycles) in (int, float) and 0 <= cycles <= sys.float_info.max:
        return float(cycles)
    return None


class SweepCache:
    """Content-addressed timing shards under the shared cache directory."""

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir or default_cache_dir()
        self._model_digests: Dict[str, str] = {}

    def model_digest(self, name: str) -> str:
        """Digest of one timing model's source modules and the numeric environment."""
        cached = self._model_digests.get(name)
        if cached is None:
            h = hashlib.sha256(numeric_environment())
            for path in model_source_files(name):
                with open(path, "rb") as f:
                    h.update(f.read())
            cached = self._model_digests[name] = h.hexdigest()[:12]
        return cached

    def shard_path(self, workload: str, prof_digest: str, model: str) -> str:
        return os.path.join(
            self.cache_dir, f"dse-{workload}-{prof_digest}-{model}{_SHARD_SUFFIX}"
        )

    def _read_shard(
        self, workload: str, prof_digest: str, model: str
    ) -> Optional[Dict]:
        path = self.shard_path(workload, prof_digest, model)
        try:
            with open(path, "r") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            doc.get("schema") != SHARD_SCHEMA
            or doc.get("profile_digest") != prof_digest
            or doc.get("model_digest") != self.model_digest(model)
        ):
            return None
        entries = doc.get("entries")
        return doc if isinstance(entries, dict) else None

    def lookup(
        self, workload: str, prof_digest: str, model: str, keys: Sequence[str]
    ) -> Dict[str, float]:
        """Served cycles by config key; keys left out are misses."""
        doc = self._read_shard(workload, prof_digest, model)
        entries = doc["entries"] if doc else {}
        served: Dict[str, float] = {}
        for key in keys:
            cycles = _served_cycles(entries.get(key))
            if cycles is not None:
                served[key] = cycles
        return served

    def store(
        self,
        workload: str,
        prof_digest: str,
        model: str,
        results: Dict[str, Dict],
    ) -> None:
        """Merge ``results`` (config key → entry) into the shard, atomically.

        Entries already present under matching profile/model digests are
        kept — the partial-hit top-up path only appends new design points
        (and overwrites the malformed entries it recomputed).
        """
        existing = self._read_shard(workload, prof_digest, model)
        entries = dict(existing["entries"]) if existing else {}
        entries.update(results)
        doc = {
            "schema": SHARD_SCHEMA,
            "workload": workload,
            "model": model,
            "profile_digest": prof_digest,
            "model_digest": self.model_digest(model),
            "created": time.time(),
            "entries": entries,
        }
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self.shard_path(workload, prof_digest, model)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as f:
                f.write(json.dumps(doc))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def clear(self) -> List[str]:
        """Delete every timing shard; returns the removed paths."""
        if not os.path.isdir(self.cache_dir):
            return []
        removed = [
            os.path.join(self.cache_dir, name)
            for name in sorted(os.listdir(self.cache_dir))
            if name.endswith(_SHARD_SUFFIX)
        ]
        for path in removed:
            os.unlink(path)
        return removed


def _sweep_worker(
    profile: WorkloadProfile, model_name: str, configs: Tuple[GpuConfig, ...]
) -> List[float]:
    """Cycle estimates for one (workload, model) over ``configs``.

    Top-level so the process pool can pickle it; pure, so serial and
    parallel execution produce identical bits.  One ``memo`` dict is shared
    by the configs of this call only, so each distinct intermediate (the
    cycle model's wave schedules) is computed once per call.
    """
    model = get_model(model_name)
    memo: Dict = {}
    return [model.time_workload(profile, config, memo) for config in configs]


@dataclass
class SweepResult:
    """One sweep's raw cycles plus cache/timing accounting."""

    workloads: List[str]
    design_names: List[str]
    models: Tuple[str, ...]
    #: model → (n_workloads, n_designs) estimated cycles.
    cycles: Dict[str, np.ndarray]
    #: model → (n_workloads,) baseline cycles for speedup normalisation.
    baseline_cycles: Dict[str, np.ndarray]
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0

    def speedups(self, model: str) -> np.ndarray:
        """Speedups over the baseline: shape (n_workloads, n_designs)."""
        return self.baseline_cycles[model][:, None] / self.cycles[model]


def run_sweep(
    profiles: Sequence[WorkloadProfile],
    configs: Optional[Sequence[GpuConfig]] = None,
    models: Optional[Sequence[str]] = ("roofline",),
    baseline: GpuConfig = BASELINE,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    digests: Optional[Sequence[str]] = None,
) -> SweepResult:
    """Estimate cycles for every (workload × design × model) cell.

    ``models=None`` sweeps every registered model.  Cells are served from
    timing shards when their (profile digest, config value, model source
    digest) key matches; only the missing remainder is computed, fanned
    out over ``jobs`` processes (``None`` → ``REPRO_JOBS`` → serial).
    ``digests`` are the profiles' :func:`profile_digest` values when the
    caller already holds them; otherwise they are computed here.
    """
    from repro.uarch.space import default_space

    start = time.perf_counter()
    config_list = list(configs) if configs is not None else default_space().configs()
    model_names_ = resolve_models(models)
    tele = get_telemetry()

    # The baseline rides along as an extra sweep column when absent so its
    # cycles share the same cache/compute path as every other design.
    # Config keys and profile digests are computed once per sweep.
    keys = [config_key(c) for c in config_list]
    base_key = config_key(baseline)
    sweep_configs = list(config_list)
    sweep_keys = list(keys)
    if base_key not in keys:
        sweep_configs.append(baseline)
        sweep_keys.append(base_key)

    cache = SweepCache(cache_dir) if use_cache else None
    if cache is None:
        digests = []
    elif digests is None:
        digests = [profile_digest(p) for p in profiles]
    elif len(digests) != len(profiles):
        raise ValueError(f"{len(digests)} digests for {len(profiles)} profiles")
    n_cells = len(profiles) * len(sweep_configs) * len(model_names_)

    with tele.span(
        "dse.sweep",
        workloads=len(profiles),
        designs=len(config_list),
        models=",".join(model_names_),
    ):
        # (profile index, model) → {config key: cycles}
        served: Dict[Tuple[int, str], Dict[str, float]] = {}
        # (profile index, model, missing configs, their keys)
        tasks: List[Tuple[int, str, Tuple[GpuConfig, ...], List[str]]] = []
        hits = 0
        for i, profile in enumerate(profiles):
            for model in model_names_:
                if cache is not None:
                    got = cache.lookup(profile.workload, digests[i], model, sweep_keys)
                else:
                    got = {}
                served[(i, model)] = got
                hits += len(got)
                missing = [j for j, key in enumerate(sweep_keys) if key not in got]
                if missing:
                    tasks.append((
                        i,
                        model,
                        tuple(sweep_configs[j] for j in missing),
                        [sweep_keys[j] for j in missing],
                    ))

        misses = sum(len(t[2]) for t in tasks)
        if progress is not None and tasks:
            progress(
                f"sweep: {hits}/{n_cells} cells cached, computing {misses} "
                f"across {len(tasks)} shards"
            )

        workers = min(resolve_jobs(jobs), len(tasks)) if tasks else 1
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context()
            ) as pool:
                computed = list(
                    pool.map(
                        _sweep_worker,
                        [profiles[t[0]] for t in tasks],
                        [t[1] for t in tasks],
                        [t[2] for t in tasks],
                    )
                )
        else:
            computed = [
                _sweep_worker(profiles[i], m, cfgs) for i, m, cfgs, _ in tasks
            ]

        for (i, model, cfgs, cfg_keys), cycles_list in zip(tasks, computed):
            fresh = {
                key: {
                    "name": c.name,
                    "config": _config_fields(c),
                    "cycles": cycles,
                }
                for key, c, cycles in zip(cfg_keys, cfgs, cycles_list)
            }
            if cache is not None:
                cache.store(profiles[i].workload, digests[i], model, fresh)
            served[(i, model)].update(
                {key: float(entry["cycles"]) for key, entry in fresh.items()}
            )

        cycles: Dict[str, np.ndarray] = {}
        baseline_cycles: Dict[str, np.ndarray] = {}
        for model in model_names_:
            mat = np.empty((len(profiles), len(config_list)))
            base = np.empty(len(profiles))
            for i in range(len(profiles)):
                row = served[(i, model)]
                for j, key in enumerate(keys):
                    mat[i, j] = row[key]
                base[i] = row[base_key]
            cycles[model] = mat
            baseline_cycles[model] = base

        tele.count("dse.cache.hits", hits)
        tele.count("dse.cache.misses", misses)
        tele.count("dse.cells", n_cells)

    return SweepResult(
        workloads=[p.workload for p in profiles],
        design_names=[c.name for c in config_list],
        models=model_names_,
        cycles=cycles,
        baseline_cycles=baseline_cycles,
        cache_hits=hits,
        cache_misses=misses,
        wall_seconds=time.perf_counter() - start,
    )


# -- derived views -----------------------------------------------------------

#: Resource fields entering the additive cost proxy, with their direction.
_COST_FIELDS = (
    "num_sms",
    "issue_width",
    "dram_bandwidth",
    "l2_lines",
    "max_warps_per_sm",
    "regfile_per_sm",
    "shared_per_sm",
)


def design_cost(config: GpuConfig, baseline: GpuConfig = BASELINE) -> float:
    """Crude area/power proxy: mean resource ratio relative to the baseline.

    Each sized resource contributes ``config/baseline``; memory latency
    contributes inverted (``baseline/config``) since *lower* latency is the
    expensive direction.  The baseline scores exactly 1.0.  This is a
    screening heuristic for Pareto plots, not an area model.
    """
    ratios = [
        getattr(config, f) / getattr(baseline, f) for f in _COST_FIELDS
    ]
    ratios.append(baseline.mem_latency / config.mem_latency)
    return float(np.mean(ratios))


def pareto_frontier(
    costs: Sequence[float], speedups: Sequence[float]
) -> List[int]:
    """Indices of non-dominated (minimise cost, maximise speedup) designs."""
    frontier: List[int] = []
    for i, (ci, si) in enumerate(zip(costs, speedups)):
        dominated = any(
            (cj <= ci and sj >= si) and (cj < ci or sj > si)
            for j, (cj, sj) in enumerate(zip(costs, speedups))
            if j != i
        )
        if not dominated:
            frontier.append(i)
    return frontier


def axis_sensitivity(
    configs: Sequence[GpuConfig],
    baseline: GpuConfig,
    geomean_speedups: Sequence[float],
) -> List[Dict]:
    """Per-axis speedup spread, from the one-hot designs in ``configs``.

    A design belongs to an axis when it differs from the baseline in
    exactly one field; multi-field (paired) designs are ignored.  Returns
    one record per swept field: the points along it and the spread between
    the best and worst geomean speedups (baseline's 1.0 included).
    """
    fields = [f.name for f in dataclasses.fields(GpuConfig) if f.name != "name"]
    by_field: Dict[str, List[Dict]] = {}
    for config, speedup in zip(configs, geomean_speedups):
        diffs = [
            f for f in fields if getattr(config, f) != getattr(baseline, f)
        ]
        if len(diffs) != 1:
            continue
        by_field.setdefault(diffs[0], []).append(
            {
                "name": config.name,
                "value": getattr(config, diffs[0]),
                "speedup": float(speedup),
            }
        )
    out = []
    for field_name, points in by_field.items():
        speeds = [p["speedup"] for p in points] + [1.0]
        out.append(
            {
                "field": field_name,
                "points": points,
                "spread": float(max(speeds) - min(speeds)),
            }
        )
    out.sort(key=lambda rec: rec["spread"], reverse=True)
    return out
