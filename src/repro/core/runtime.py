"""Parallel characterization runtime: config, sharded cache, pool.

This module is the execution engine behind ``repro.api.characterize()``:

* :class:`CharacterizationConfig` — one object for every knob that used to
  be a scattered keyword argument (workload set, sampling, caching, worker
  count, retries, timeouts, passes).
* progress — one human-readable line per suite and workload milestone,
  sent to an optional ``progress`` callable (the CLI's ``-v`` prints them
  to stderr).  The same facts land on telemetry spans when telemetry is
  enabled: ``suite`` (workload count, jobs, sampling, completed, failed,
  cache hits), one ``cache_hit`` per served workload (saved seconds, warp
  instructions) and one parent-side ``attempt`` per simulation (cache
  ``miss`` or ``top-up`` with the rerun passes, the retry number, the
  error or the warp instructions and kernel count), so a single
  ``--trace-out`` file records each workload's cache provenance.
* :class:`ProfileCache` — a per-workload sharded, content-addressed profile
  cache.  Each shard is keyed by a digest of the source files whose
  behaviour it depends on (``repro/simt``, ``repro/trace``, the workload's
  own module), so editing any of them invalidates exactly the affected
  shards; there is no manual cache-version constant to bump.  Within a
  shard, every analysis pass's section is additionally recorded under a
  digest of that pass's own module, so editing one pass (or requesting a
  pass the shard lacks) triggers a rerun of *only* that pass — the other
  sections are carried over and merged.
* :func:`run_characterization` — fans the per-workload simulations out over
  a ``ProcessPoolExecutor`` (``jobs`` / ``REPRO_JOBS``), isolates worker
  faults (a crashing or hanging workload is retried once, then reported as
  a structured :class:`WorkloadFailure` without killing the suite run) and
  returns a :class:`CharacterizationResult`.

Profiles are bit-identical between the serial and parallel paths: every
workload run is independently seeded, and results are re-ordered to the
requested workload order regardless of completion order.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import sys
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

import repro
from repro.telemetry import Span, TelemetrySnapshot, get_telemetry
from repro.trace.passes import pass_source_file, resolve_passes
from repro.trace.profile import WorkloadProfile, merge_profiles
from repro.trace.serialize import dump_workload_profile, load_workload_profile
from repro.workloads.runner import DEFAULT_SAMPLE_BLOCKS, run_workload


# ---------------------------------------------------------------------------
# Configuration


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: explicit value, else ``REPRO_JOBS``, else 1 (serial).

    An *explicit* value <= 0 means "all cores".  ``REPRO_JOBS`` must be a
    positive integer — a zero or negative environment value is almost always
    a broken shell expansion, so it raises instead of silently fanning out
    to every core.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
        if jobs < 1:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {jobs}; "
                "unset it, or pass jobs=0 explicitly (e.g. `-j 0`) for all cores"
            )
        return jobs
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class CharacterizationConfig:
    """Everything a characterization run needs, in one place.

    One object for every knob that used to be a scattered keyword
    argument on the long-removed ``characterize_suites()`` entrypoint.
    """

    #: Workload abbrevs to characterize (``None`` = every registered one).
    abbrevs: Optional[Sequence[str]] = None
    #: Profiled blocks per kernel launch (``None`` = profile every block).
    sample_blocks: Optional[int] = DEFAULT_SAMPLE_BLOCKS
    #: Consult/populate the on-disk sharded profile cache.
    use_cache: bool = True
    #: Parallel worker processes; ``None`` defers to ``REPRO_JOBS`` (then 1),
    #: <= 0 means "all cores".
    jobs: Optional[int] = None
    #: How many times a failed workload is re-run before it is reported as a
    #: structured failure.
    retries: int = 1
    #: Wall-clock budget per workload attempt, seconds (parallel runs only;
    #: a hung worker is killed and the workload retried/failed).  ``None``
    #: disables the watchdog.
    workload_timeout: Optional[float] = None
    #: Cache directory override (default: ``REPRO_CACHE_DIR`` env, then a
    #: directory under the system temp dir).
    cache_dir: Optional[str] = None
    #: Analysis passes to collect (``None`` = every registered pass).  The
    #: engines only emit the event hooks the selected passes subscribe to,
    #: and the cache serves/refreshes sections per pass.
    passes: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        # Caught here, not in the sampler: a worker's LaunchError would be
        # reported as a workload crash and retried.
        if self.sample_blocks is not None and self.sample_blocks < 1:
            raise ValueError(f"sample_blocks must be >= 1 or None, got {self.sample_blocks}")

    def resolved_jobs(self) -> int:
        return resolve_jobs(self.jobs)

    def workload_list(self) -> List[str]:
        """Requested abbrevs in order, each once (repeats are dropped)."""
        from repro.workloads import registry

        if self.abbrevs is None:
            return registry.abbrevs()
        return list(dict.fromkeys(self.abbrevs))


# ---------------------------------------------------------------------------
# Sharded, self-invalidating profile cache

_SHARD_SUFFIX = ".profile.json"


def default_cache_dir() -> str:
    import tempfile

    return os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(tempfile.gettempdir(), "repro-gpgpu-cache")
    )


@dataclass(frozen=True)
class CacheEntry:
    """One shard of the profile cache, as reported by inspection."""

    path: str
    workload: str
    suite: str
    sample_blocks: Optional[int]
    digest: str
    #: "fresh" (digest matches current sources), "stale" (it doesn't), or
    #: "orphan" (the workload is no longer registered).
    status: str
    size_bytes: int
    created: float
    wall_seconds: float
    warp_instrs: int
    #: Pass names whose sections this shard carries (from shard metadata).
    passes: Tuple[str, ...] = ()


def numeric_environment() -> bytes:
    """Interpreter, numpy and byte-order identity that cached floats depend on.

    Hashed into every shard key, so a changed numeric environment misses
    instead of serving sections computed under another one.
    """
    return repr((sys.version_info[:2], np.__version__, sys.byteorder)).encode()


class ProfileCache:
    """Per-workload, content-addressed profile shards.

    One shard per ``(workload, sample_blocks)``, named by a digest of the
    source files the profile depends on.  A source edit changes the digest,
    so the lookup simply misses — stale shards are never *read*, only left
    on disk until purged.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir or default_cache_dir()
        self._common_digest: Optional[str] = None
        self._pass_digests: Dict[str, str] = {}

    # -- digests ------------------------------------------------------------

    @staticmethod
    def _shared_source_files() -> List[str]:
        """Source files every profile depends on (simulator + collector).

        Individual pass modules under ``repro/trace/passes`` are excluded —
        each one is digested separately (:meth:`pass_digest`), so editing a
        pass invalidates only that pass's sections, not whole shards.  The
        pass framework itself (``base.py``/``__init__.py``) stays shared.
        """
        import repro.simt
        import repro.trace
        import repro.trace.passes
        import repro.workloads.base
        import repro.workloads.runner

        passes_root = os.path.dirname(os.path.abspath(repro.trace.passes.__file__))
        framework = {
            os.path.join(passes_root, "base.py"),
            os.path.join(passes_root, "__init__.py"),
        }
        files: List[str] = []
        for pkg in (repro.simt, repro.trace):
            root = os.path.dirname(os.path.abspath(pkg.__file__))
            for dirpath, _dirnames, filenames in os.walk(root):
                for f in filenames:
                    if not f.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, f)
                    if dirpath == passes_root and path not in framework:
                        continue
                    files.append(path)
        files.append(os.path.abspath(repro.workloads.base.__file__))
        files.append(os.path.abspath(repro.workloads.runner.__file__))
        return sorted(files)

    def _shared_digest(self) -> str:
        """Digest of the shared sources and the numeric environment.

        Paths are hashed relative to the package root, so moving a checkout
        keeps its shards valid.
        """
        if self._common_digest is None:
            h = hashlib.sha256(numeric_environment())
            root = os.path.dirname(os.path.abspath(repro.__file__))
            for path in self._shared_source_files():
                h.update(os.path.relpath(path, root).replace(os.sep, "/").encode())
                with open(path, "rb") as f:
                    h.update(f.read())
            self._common_digest = h.hexdigest()
        return self._common_digest

    def digest_for(self, workload_cls: Type) -> str:
        """Content digest for one workload: shared sources + its module."""
        import inspect

        h = hashlib.sha256(self._shared_digest().encode())
        try:
            module_file = inspect.getfile(workload_cls)
        except (TypeError, OSError):  # dynamically defined class
            module_file = None
        if module_file and os.path.exists(module_file):
            with open(module_file, "rb") as f:
                h.update(f.read())
        else:
            h.update(repr(workload_cls.__qualname__).encode())
        return h.hexdigest()[:16]

    def pass_digest(self, name: str) -> str:
        """Content digest of one analysis pass's source module."""
        cached = self._pass_digests.get(name)
        if cached is None:
            h = hashlib.sha256()
            with open(pass_source_file(name), "rb") as f:
                h.update(f.read())
            cached = self._pass_digests[name] = h.hexdigest()[:12]
        return cached

    # -- shard IO -----------------------------------------------------------

    @staticmethod
    def _sample_tag(sample_blocks: Optional[int]) -> str:
        return "all" if sample_blocks is None else str(sample_blocks)

    def shard_path(
        self, workload_cls: Type, sample_blocks: Optional[int], digest: Optional[str] = None
    ) -> str:
        digest = digest or self.digest_for(workload_cls)
        name = f"{workload_cls.abbrev}-s{self._sample_tag(sample_blocks)}-{digest}"
        return os.path.join(self.cache_dir, name + _SHARD_SUFFIX)

    def lookup(
        self,
        workload_cls: Type,
        sample_blocks: Optional[int],
        passes: Optional[Sequence[str]] = None,
    ) -> Optional[Tuple[WorkloadProfile, Dict, Tuple[str, ...]]]:
        """Return ``(profile, metadata, missing)`` on a (possibly partial) hit.

        ``missing`` lists the requested passes (``None`` = all) the shard
        cannot serve — either absent from the stored profile or recorded
        under a stale per-pass source digest.  An empty tuple is a full hit;
        ``None`` is a full miss (no readable shard at all).
        """
        requested = resolve_passes(passes)
        path = self.shard_path(workload_cls, sample_blocks)
        if not os.path.exists(path):
            return None
        try:
            profile, meta = load_workload_profile(path)
        except Exception:
            # A torn/corrupt/old-format shard behaves as a miss and is rebuilt.
            return None
        stored = meta.get("pass_digests") or {}
        missing = tuple(
            name for name in requested if stored.get(name) != self.pass_digest(name)
        )
        if meta.get("engine_stats"):
            profile.engine_stats = meta["engine_stats"]
        return profile, meta, missing

    def store(
        self,
        workload_cls: Type,
        sample_blocks: Optional[int],
        profile: WorkloadProfile,
        wall_seconds: float,
        pass_digests: Optional[Dict[str, str]] = None,
    ) -> str:
        """Atomically write one shard (temp file + ``os.replace``).

        ``pass_digests`` overrides the recorded digest for individual passes
        — used when sections carried over from an older shard must keep the
        digest they were *built* under rather than the current one.
        """
        digest = self.digest_for(workload_cls)
        path = self.shard_path(workload_cls, sample_blocks, digest)
        os.makedirs(self.cache_dir, exist_ok=True)
        digests = {
            name: (pass_digests or {}).get(name) or self.pass_digest(name)
            for name in profile.passes
        }
        metadata = {
            "workload": workload_cls.abbrev,
            "suite": workload_cls.suite,
            "sample_blocks": sample_blocks,
            "digest": digest,
            "passes": list(profile.passes),
            "pass_digests": digests,
            "created": time.time(),
            "wall_seconds": wall_seconds,
            "warp_instrs": int(profile.total_warp_instrs),
            # Execution detail, not profile content: kept in shard metadata
            # so cache hits still report engine counters.
            "engine_stats": getattr(profile, "engine_stats", None),
        }
        tmp = path + f".tmp.{os.getpid()}"
        try:
            dump_workload_profile(profile, tmp, metadata=metadata)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    # -- inspection ---------------------------------------------------------

    def entries(self) -> List[CacheEntry]:
        """Scan the cache dir and classify every shard (for ``profile-cache``)."""
        from repro.workloads import registry

        if not os.path.isdir(self.cache_dir):
            return []
        try:
            known = {cls.abbrev: cls for cls in registry.all_workloads()}
        except Exception:
            known = {}
        fresh_digests = {
            abbrev: self.digest_for(cls) for abbrev, cls in known.items()
        }
        out: List[CacheEntry] = []
        for name in sorted(os.listdir(self.cache_dir)):
            if not name.endswith(_SHARD_SUFFIX):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                _profile, meta = load_workload_profile(path)
            except Exception:
                meta = {}
            workload = meta.get("workload", name.split("-", 1)[0])
            digest = meta.get("digest", "")
            if workload not in known:
                status = "orphan"
            elif digest == fresh_digests.get(workload):
                status = "fresh"
            else:
                status = "stale"
            out.append(
                CacheEntry(
                    path=path,
                    workload=workload,
                    suite=meta.get("suite", "?"),
                    sample_blocks=meta.get("sample_blocks"),
                    digest=digest,
                    status=status,
                    size_bytes=os.path.getsize(path),
                    created=float(meta.get("created", 0.0)),
                    wall_seconds=float(meta.get("wall_seconds", 0.0)),
                    warp_instrs=int(meta.get("warp_instrs", 0)),
                    passes=tuple(meta.get("passes") or ()),
                )
            )
        return out

    def purge(self, stale_only: bool = True) -> List[str]:
        """Delete stale/orphan shards (or every shard); returns removed paths."""
        removed = []
        for entry in self.entries():
            if stale_only and entry.status == "fresh":
                continue
            os.unlink(entry.path)
            removed.append(entry.path)
        return removed


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class WorkloadFailure:
    """Structured record of one workload that could not be characterized."""

    workload: str
    error: str
    attempts: int
    wall_seconds: float
    traceback: str = ""


@dataclass
class CharacterizationResult:
    """Outcome of one suite run: profiles, failures and cache statistics."""

    profiles: List[WorkloadProfile]
    failures: List[WorkloadFailure]
    cache_hits: int
    cache_misses: int
    wall_seconds: float
    #: Content digests made so far, by a hash of each profile's pickle.
    _digests: Dict[bytes, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.failures

    def profile_digests(self) -> List[str]:
        """The timing cache's content digest of each profile, in order.

        A profile is digested once per result, whichever timing model or
        design space an evaluation uses.  The memo is keyed by a hash of the
        profile's pickle, which is cheaper than the canonical digest but
        reads the whole content: a profile changed in place or put in place
        of another is digested afresh.
        """
        # Looked up at call time: the timing layer imports this module.
        from repro.uarch import sweep

        out = []
        for profile in self.profiles:
            key = hashlib.sha256(pickle.dumps(profile, protocol=pickle.HIGHEST_PROTOCOL)).digest()
            digest = self._digests.get(key)
            if digest is None:
                digest = self._digests[key] = sweep.profile_digest(profile)
            out.append(digest)
        return out


class CharacterizationError(RuntimeError):
    """Raised by ``repro.api.characterize()`` when any workload fails."""

    def __init__(self, failures: Sequence[WorkloadFailure]) -> None:
        self.failures = list(failures)
        lines = ", ".join(f"{f.workload} ({f.error})" for f in failures)
        super().__init__(f"{len(self.failures)} workload(s) failed: {lines}")


# ---------------------------------------------------------------------------
# The runtime


def _characterize_one(
    abbrev: str,
    sample_blocks: Optional[int],
    passes: Optional[Tuple[str, ...]] = None,
    traced: bool = False,
) -> Tuple[WorkloadProfile, float, Optional[TelemetrySnapshot]]:
    """Worker entry point: simulate one workload.

    Returns ``(profile, seconds, snapshot)``.  ``traced`` is set by the
    parallel runner when the parent has telemetry enabled: the worker then
    re-arms its (fork-inherited) registry, records its own spans/metrics
    and ships them back as a picklable snapshot for the parent to merge;
    otherwise the snapshot slot is ``None``.  The serial path passes
    ``traced=False`` and records directly into the in-process registry.
    """
    tele = get_telemetry() if traced else None
    if tele is not None:
        tele.begin_worker()
    t0 = time.perf_counter()
    try:
        span = tele.span(f"workload:{abbrev}") if tele is not None else contextlib.nullcontext()
        with span:
            profile = run_workload(abbrev, sample_blocks=sample_blocks, passes=passes)
    finally:
        snap = None
        if tele is not None:
            snap = tele.snapshot()
            tele.disable()
    return profile, time.perf_counter() - t0, snap


def _pool_context():
    import multiprocessing as mp

    # Fork keeps dynamically registered workloads (tests, plugins) visible in
    # workers and avoids re-importing numpy per worker; fall back where
    # unavailable (Windows/macOS spawn).
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def run_characterization(
    config: Optional[CharacterizationConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CharacterizationResult:
    """Characterize a workload set under ``config``.

    Serial when ``jobs`` resolves to 1, process-pool parallel otherwise.
    Workload faults (exceptions, worker death, hangs past
    ``workload_timeout``) are retried ``retries`` times and then reported as
    :class:`WorkloadFailure` entries — one bad workload never aborts the
    suite.  Returned profiles follow the requested workload order.
    ``progress`` receives one line per suite and workload milestone.
    """
    from repro.workloads import registry

    config = config or CharacterizationConfig()
    say = progress or (lambda message: None)
    abbrevs = config.workload_list()
    # Resolve every abbrev up front so typos fail fast, before simulating.
    classes = {abbrev: registry.get(abbrev) for abbrev in abbrevs}
    jobs = config.resolved_jobs()
    cache = ProfileCache(config.cache_dir) if config.use_cache else None
    tele = get_telemetry()

    t0 = time.perf_counter()
    say(
        f"characterizing {len(abbrevs)} workloads "
        f"(jobs={jobs}, sample_blocks={config.sample_blocks})"
    )
    suite_span = tele.start_span(
        "suite", workloads=len(abbrevs), jobs=jobs, sample_blocks=config.sample_blocks
    )

    requested = resolve_passes(config.passes)
    results: Dict[str, WorkloadProfile] = {}
    failures: Dict[str, WorkloadFailure] = {}

    def counted() -> str:
        return f"[{len(results) + len(failures)}/{len(abbrevs)}]"

    todo: List[str] = []
    # Per-workload pass set to simulate: the full request on a miss, only
    # the missing/stale subset on a partial cache hit.
    run_passes: Dict[str, Tuple[str, ...]] = {}
    # abbrev -> (cached profile, metadata) for partial hits, merged on success.
    partial: Dict[str, Tuple[WorkloadProfile, Dict]] = {}
    for abbrev in abbrevs:
        hit = cache.lookup(classes[abbrev], config.sample_blocks, requested) if cache else None
        if hit is not None:
            profile, meta, missing = hit
            if not missing:
                results[abbrev] = profile
                saved = float(meta.get("wall_seconds", 0.0))
                warp_instrs = int(meta.get("warp_instrs", profile.total_warp_instrs))
                tele.count("cache.hits")
                with tele.span(
                    "cache_hit", workload=abbrev, saved_seconds=saved, warp_instrs=warp_instrs
                ):
                    pass
                say(
                    f"  {abbrev:6s} cached  {counted()} "
                    f"(saved {saved:.1f}s, {warp_instrs:,} warp instrs)"
                )
                continue
            partial[abbrev] = (profile, meta)
            run_passes[abbrev] = missing
        else:
            run_passes[abbrev] = requested
        tele.count("cache.misses")
        todo.append(abbrev)
    cache_hits = len(results)

    def announce(abbrev: str, attempt: int) -> Dict:
        """Announce one simulation attempt; returns its ``attempt`` span attrs."""
        if attempt > 1:
            tele.count("pool.retries")
        say(f"  {abbrev:6s} started" + (f" (retry {attempt - 1})" if attempt > 1 else ""))
        if abbrev in partial:
            return dict(
                workload=abbrev, attempt=attempt, cache="top-up", passes=list(run_passes[abbrev])
            )
        return dict(workload=abbrev, attempt=attempt, cache="miss")

    def record_success(
        abbrev: str, profile: WorkloadProfile, wall: float, span: Optional[Span]
    ) -> None:
        digest_overrides: Optional[Dict[str, str]] = None
        if abbrev in partial:
            cached_profile, meta = partial[abbrev]
            fresh = set(profile.passes)
            merged = merge_profiles(cached_profile, profile, profile.passes)
            if merged is not None:
                profile = merged
                # Carried-over sections keep the digest they were built
                # under; only the freshly rerun passes get current digests.
                digest_overrides = {
                    name: digest
                    for name, digest in (meta.get("pass_digests") or {}).items()
                    if name not in fresh
                }
        results[abbrev] = profile
        if cache:
            cache.store(
                classes[abbrev],
                config.sample_blocks,
                profile,
                wall,
                pass_digests=digest_overrides,
            )
        warp_instrs, kernels = int(profile.total_warp_instrs), len(profile.kernels)
        if span is not None:
            span.attrs.update(warp_instrs=warp_instrs, kernels=kernels)
        say(
            f"  {abbrev:6s} ok      {counted()} "
            f"{wall:.2f}s, {warp_instrs:,} warp instrs, {kernels} kernels"
        )

    def record_failure(abbrev: str, error: str, attempts: int, wall: float, tb: str = "") -> None:
        failures[abbrev] = WorkloadFailure(
            workload=abbrev, error=error, attempts=attempts, wall_seconds=wall, traceback=tb
        )
        say(f"  {abbrev:6s} FAILED  {counted()} after {attempts} attempts: {error}")

    max_attempts = 1 + max(config.retries, 0)

    if todo and jobs <= 1:
        _run_serial(
            config, todo, run_passes, announce, record_success, record_failure, max_attempts
        )
    elif todo:
        _run_parallel(
            config, todo, run_passes, jobs, announce, record_success, record_failure, max_attempts
        )

    wall = time.perf_counter() - t0
    if suite_span is not None:
        suite_span.attrs.update(
            completed=len(results), failed=len(failures), cache_hits=cache_hits
        )
        tele.finish_span(suite_span)
    say(
        f"done: {len(results)} ok, {len(failures)} failed, "
        f"{cache_hits} cache hits in {wall:.1f}s"
    )
    ordered = [results[a] for a in abbrevs if a in results]
    ordered_failures = [failures[a] for a in abbrevs if a in failures]
    return CharacterizationResult(
        profiles=ordered,
        failures=ordered_failures,
        cache_hits=cache_hits,
        cache_misses=len(todo),
        wall_seconds=wall,
    )


def _run_serial(
    config, todo, run_passes, announce, record_success, record_failure, max_attempts
) -> None:
    tele = get_telemetry()
    for abbrev in todo:
        spent = 0.0
        with tele.span(f"workload:{abbrev}"):
            for attempt in range(1, max_attempts + 1):
                attrs = announce(abbrev, attempt)
                t0 = time.perf_counter()
                try:
                    with tele.span("attempt", **attrs) as live:
                        profile, wall, _snap = _characterize_one(
                            abbrev, config.sample_blocks, run_passes.get(abbrev)
                        )
                except Exception as exc:
                    spent += time.perf_counter() - t0
                    if attempt == max_attempts:
                        record_failure(
                            abbrev,
                            f"{type(exc).__name__}: {exc}",
                            attempt,
                            spent,
                            traceback_mod.format_exc(),
                        )
                else:
                    record_success(abbrev, profile, wall, live.span)
                    break


def _run_parallel(
    config, todo, run_passes, jobs, announce, record_success, record_failure, max_attempts
) -> None:
    """Windowed process-pool execution with retry, crash and hang isolation.

    At most ``jobs`` futures are in flight, so a submitted task starts
    (approximately) immediately and ``workload_timeout`` can be measured
    from submission.  A worker crash breaks the whole pool
    (``BrokenProcessPool``) without telling us *which* task crashed, so
    after the first break the window narrows to 1: the next break is then
    unambiguously attributable, and a workload observed in flight across
    ``max_attempts`` breaks is declared the crasher.
    """
    mp_context = _pool_context()
    tele = get_telemetry()
    suite_id = tele.current_span_id()
    queue = deque((abbrev, 1) for abbrev in todo)
    spent: Dict[str, float] = {abbrev: 0.0 for abbrev in todo}
    pool_breaks: Dict[str, int] = {abbrev: 0 for abbrev in todo}
    window = jobs
    executor = ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context)
    in_flight: Dict = {}  # future -> (abbrev, attempt, start, deadline, span)

    def kill_pool() -> None:
        nonlocal executor
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        executor = ProcessPoolExecutor(max_workers=max(window, 1), mp_context=mp_context)

    def handle_fault(abbrev: str, attempt: int, wall: float, error: str, tb: str = "") -> None:
        spent[abbrev] += wall
        if attempt >= max_attempts:
            record_failure(abbrev, error, attempt, spent[abbrev], tb)
        else:
            queue.append((abbrev, attempt + 1))

    def close_span(span, **attrs) -> None:
        if span is not None:
            span.attrs.update(attrs)
            tele.finish_span(span)

    try:
        while queue or in_flight:
            while queue and len(in_flight) < window:
                abbrev, attempt = queue.popleft()
                attrs = announce(abbrev, attempt)
                fut = executor.submit(
                    _characterize_one,
                    abbrev,
                    config.sample_blocks,
                    run_passes.get(abbrev),
                    tele.enabled,
                )
                span = tele.open_span("attempt", parent_id=suite_id, **attrs)
                start = time.monotonic()
                deadline = (
                    start + config.workload_timeout if config.workload_timeout else None
                )
                in_flight[fut] = (abbrev, attempt, start, deadline, span)

            wait_for = None
            deadlines = [d for (_a, _t, _s, d, _sp) in in_flight.values() if d is not None]
            if deadlines:
                wait_for = max(0.05, min(deadlines) - time.monotonic())
            done, _pending = wait(set(in_flight), timeout=wait_for, return_when=FIRST_COMPLETED)

            if not done:
                now = time.monotonic()
                expired = {
                    fut
                    for fut, (_a, _t, _s, d, _sp) in in_flight.items()
                    if d is not None and now >= d
                }
                if not expired:
                    continue
                # A hung worker can only be reclaimed by killing the pool;
                # innocent in-flight tasks are re-queued at the same attempt.
                kill_pool()
                for fut, (abbrev, attempt, start, _d, span) in in_flight.items():
                    if fut in expired:
                        tele.count("pool.timeouts")
                        close_span(span, error="timeout")
                        handle_fault(
                            abbrev,
                            attempt,
                            now - start,
                            f"timed out after {config.workload_timeout:.1f}s",
                        )
                    else:
                        close_span(span, requeued=True)
                        queue.appendleft((abbrev, attempt))
                in_flight.clear()
                continue

            broken = False
            for fut in done:
                abbrev, attempt, start, _d, span = in_flight.pop(fut)
                wall = time.monotonic() - start
                try:
                    profile, sim_wall, snap = fut.result()
                except BrokenProcessPool:
                    broken = True
                    tele.count("pool.crashes")
                    close_span(span, error="worker_died")
                    pool_breaks[abbrev] += 1
                    if pool_breaks[abbrev] >= max_attempts:
                        record_failure(
                            abbrev,
                            "worker process died (crash outside Python, e.g. "
                            "segfault or os._exit)",
                            pool_breaks[abbrev],
                            spent[abbrev] + wall,
                        )
                    else:
                        queue.appendleft((abbrev, attempt))
                except Exception as exc:
                    close_span(span, error=type(exc).__name__)
                    handle_fault(
                        abbrev,
                        attempt,
                        wall,
                        f"{type(exc).__name__}: {exc}",
                        traceback_mod.format_exc(),
                    )
                else:
                    close_span(span)
                    if snap is not None and span is not None:
                        tele.merge_snapshot(snap, parent_id=span.span_id)
                    record_success(abbrev, profile, sim_wall, span)
            if broken:
                # Every other in-flight future is also broken: requeue them
                # (same attempt — they are presumed innocent), then narrow
                # the window so the next break is attributable.
                for fut, (abbrev, attempt, _s, _d, span) in in_flight.items():
                    close_span(span, requeued=True)
                    pool_breaks[abbrev] += 1
                    if pool_breaks[abbrev] >= max_attempts:
                        record_failure(
                            abbrev,
                            "worker process died (crash outside Python, e.g. "
                            "segfault or os._exit)",
                            pool_breaks[abbrev],
                            spent[abbrev],
                        )
                    else:
                        queue.appendleft((abbrev, attempt))
                in_flight.clear()
                window = 1
                kill_pool()
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
