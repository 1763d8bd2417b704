"""The benchmark's four workloads: set-up, one timed repetition, oracles.

Each workload is a :class:`Spec`.  The harness (``run.py``) calls
:meth:`Spec.prepare` to set up, :meth:`Spec.warmup` once untimed, then
:meth:`Spec.rep` until the measuring window is spent.  Every repetition
checks its own outputs; a failed check is counted in :class:`Outcome` and
never stops the run.

``scaled-sampled`` and ``profiled-all`` pass ``--seed`` to every workload's
input generator.  ``suite-cold`` characterizes the registered suite and
``analyst-loop`` replays its profiles: their inputs are fixed, so they
ignore the seed and their oracles hold at every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.snapshot import analysis_snapshot
from repro.trace.serialize import workload_profile_bytes
from repro.workloads import registry
from repro.workloads.runner import run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_FILE = os.path.join(ROOT, "bench", "expected", "expected.json")
GOLDEN_FILE = os.path.join(ROOT, "tests", "fixtures", "golden_analysis.json")
#: Profile shards of the registered suite, built by the first
#: ``analyst-loop`` set-up in a checkout and copied into each run's private
#: cache.
STORE_DIR = os.path.join(ROOT, ".bench_store", "profiles")

#: Seed at which ``bench/expected/expected.json`` pins the basket digests.
EXPECTED_SEED = 1234
SAMPLE_BLOCKS = 48

#: Characterization-scale grids under 48-block stride sampling: most blocks
#: run silent, so batched silent execution is visible.  MM and NN are left
#: out because their ``shared`` pass would hide the engine.
SCALED_BASKET: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("VA", {"n": 1 << 22}),
    ("BS", {"n": 1 << 20}),
    ("TR", {"width": 1024, "height": 1024}),
    ("STEN", {"nx": 256, "ny": 256, "nz": 16, "iters": 2}),
    ("SRAD", {"rows": 512, "cols": 512, "iters": 2}),
)

#: Every block profiled: wide observed batches drive event recording and
#: the vectorized passes, and make the largest event buffers.
PROFILED_BASKET: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("VA", {"n": 1 << 18}),
    ("BS", {"n": 1 << 16}),
    ("CONV", {"width": 512, "height": 256}),
    ("DCT", {"width": 512, "height": 256}),
    ("SAD", {"width": 256, "height": 128}),
    ("BP", {"n_input": 8192}),
)

MODELS = ("roofline", "cycle")
GOLDEN_ATOL = 1e-8


def profile_digest(profile) -> str:
    """sha256 of a profile's canonical bytes."""
    return hashlib.sha256(workload_profile_bytes(profile)).hexdigest()


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


def golden_mismatch(got: Any, want: Any, path: str = "") -> Optional[str]:
    """First place ``got`` differs from ``want`` (floats at ``GOLDEN_ATOL``)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return path or "/"
        for key in sorted(want):
            bad = golden_mismatch(got[key], want[key], f"{path}/{key}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            bad = golden_mismatch(g, w, f"{path}/{i}")
            if bad:
                return bad
        return None
    numbers = (int, float)
    if isinstance(want, float) or isinstance(got, float):
        ok = isinstance(got, numbers) and isinstance(want, numbers) and abs(got - want) <= GOLDEN_ATOL
        return None if ok else path
    return None if got == want else path


@dataclass
class Outcome:
    """Checked operations and the ones that failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Rep:
    """One timed repetition: host seconds and simulated warp instructions."""

    seconds: float
    warp_instrs: int = 0
    digests: Dict[str, str] = field(default_factory=dict)


class Spec:
    """One benchmark workload."""

    name = ""

    def prepare(self, seed: int, work: str) -> None:
        """Set-up, timed as ``setup_s``; ``work`` is a private empty directory."""
        self.seed = seed
        self.work = work

    def warmup(self, outcome: Outcome) -> None:
        """Untimed run before the measured repetitions."""

    def rep(self, outcome: Outcome) -> Rep:
        raise NotImplementedError

    def deterministic(self, rep: Rep) -> Dict[str, Any]:
        """Values every run at this seed must reproduce exactly."""
        blob = json.dumps(rep.digests, sort_keys=True).encode()
        return {
            "sim.warp_instrs": rep.warp_instrs,
            "profile_digests": hashlib.sha256(blob).hexdigest(),
        }


class SuiteCold(Spec):
    """A user's first ``repro characterize``: all workloads, empty cache."""

    name = "suite-cold"

    def prepare(self, seed: int, work: str) -> None:
        super().prepare(seed, work)
        self.order = registry.abbrevs()
        self.expected = load_expected()["suite"]

    def rep(self, outcome: Outcome) -> Rep:
        cache_dir = tempfile.mkdtemp(dir=self.work)
        config = api.CharacterizationConfig(abbrevs=self.order, cache_dir=cache_dir, jobs=1)
        t0 = time.perf_counter()
        result = api.characterize(config, strict=False)
        seconds = time.perf_counter() - t0
        for failure in result.failures:
            outcome.check(False, f"characterize {failure.workload}: {failure.error}")
        digests = {p.workload: profile_digest(p) for p in result.profiles}
        for abbrev, digest in digests.items():
            outcome.check(digest == self.expected.get(abbrev), f"{abbrev} profile digest")
        shards = [f for f in os.listdir(cache_dir) if f.endswith(".profile.json")]
        outcome.check(
            len(shards) == len(self.order) and result.cache_misses == len(self.order),
            f"cold cache wrote {len(shards)} shards for {len(self.order)} workloads",
        )
        shutil.rmtree(cache_dir)
        return Rep(seconds, sum(int(p.total_warp_instrs) for p in result.profiles), digests)


class Basket(Spec):
    """Scaled workloads run through ``run_workload`` with the bench's seed."""

    def __init__(self, name: str, basket: Sequence[Tuple[str, Dict]], sample_blocks: Optional[int]):
        self.name = name
        self.basket = basket
        self.sample_blocks = sample_blocks

    def prepare(self, seed: int, work: str) -> None:
        super().prepare(seed, work)
        self.workloads = [(registry.get(abbrev), scale) for abbrev, scale in self.basket]
        expected = load_expected()[self.name] if seed == EXPECTED_SEED else None
        self.reference: Dict[str, Optional[str]] = {
            abbrev: expected[abbrev] if expected else None for abbrev, _ in self.basket
        }

    def _run(self, cls, scale, verify: bool):
        return run_workload(
            cls(**scale), verify=verify, sample_blocks=self.sample_blocks, seed=self.seed
        )

    def warmup(self, outcome: Outcome) -> None:
        """Run every workload's reference check; pin digests at other seeds."""
        for cls, scale in self.workloads:
            try:
                profile = self._run(cls, scale, verify=True)
            except Exception as exc:  # a failed workload is counted, not fatal
                outcome.check(False, f"{cls.abbrev} reference check: {type(exc).__name__}: {exc}")
                continue
            digest = profile_digest(profile)
            if self.reference[cls.abbrev] is None:
                self.reference[cls.abbrev] = digest
            outcome.check(digest == self.reference[cls.abbrev], f"{cls.abbrev} profile digest")

    def rep(self, outcome: Outcome) -> Rep:
        seconds = 0.0
        instrs = 0
        digests = {}
        for cls, scale in self.workloads:
            t0 = time.perf_counter()
            try:
                profile = self._run(cls, scale, verify=False)
            except Exception as exc:
                outcome.check(False, f"{cls.abbrev}: {type(exc).__name__}: {exc}")
                continue
            seconds += time.perf_counter() - t0
            instrs += int(profile.total_warp_instrs)
            digests[cls.abbrev] = profile_digest(profile)
            outcome.check(digests[cls.abbrev] == self.reference[cls.abbrev], f"{cls.abbrev} profile digest")
        return Rep(seconds, instrs, digests)


def _shard_state(directory: str) -> Dict[str, Tuple[int, int, int]]:
    """Identity of every file: a rewritten shard gets a new inode (os.replace)."""
    out = {}
    for name in os.listdir(directory):
        st = os.stat(os.path.join(directory, name))
        out[name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


class AnalystLoop(Spec):
    """Warm characterize, analyze, and evaluate with both timing models.

    One repetition is one analyst round trip.  Each evaluation runs twice
    against a fresh timing-shard directory: the first writes the shards,
    the second must read every cell back without rewriting any shard.
    """

    name = "analyst-loop"

    def prepare(self, seed: int, work: str) -> None:
        super().prepare(seed, work)
        # A cold characterize on a checkout's first run, a check after.
        api.characterize(api.CharacterizationConfig(cache_dir=STORE_DIR, jobs=1))
        self.profile_dir = os.path.join(work, "profiles")
        shutil.copytree(STORE_DIR, self.profile_dir)
        with open(GOLDEN_FILE) as fh:
            self.golden = json.load(fh)
        self.expected = load_expected()["subset"]
        self.nworkloads = len(registry.abbrevs())

    def rep(self, outcome: Outcome) -> Rep:
        timing_dir = tempfile.mkdtemp(dir=self.work)
        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = timing_dir
        try:
            return self._round_trip(outcome, timing_dir)
        finally:
            if previous is None:
                del os.environ["REPRO_CACHE_DIR"]
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
            shutil.rmtree(timing_dir)

    def _round_trip(self, outcome: Outcome, timing_dir: str) -> Rep:
        seconds = 0.0
        t0 = time.perf_counter()
        result = api.characterize(
            api.CharacterizationConfig(cache_dir=self.profile_dir, jobs=1), strict=False
        )
        analysis = api.analyze(result)
        seconds += time.perf_counter() - t0
        outcome.check(
            result.cache_hits == self.nworkloads and not result.cache_misses and not result.failures,
            f"warm characterize: {result.cache_hits}/{self.nworkloads} shard hits",
        )
        bad = golden_mismatch(analysis_snapshot(analysis), self.golden)
        outcome.check(bad is None, f"golden analysis mismatch at {bad}")
        subset = {}
        for model in MODELS:
            for leg in ("cold", "warm"):
                before = _shard_state(timing_dir)
                t0 = time.perf_counter()
                evaluation = api.evaluate(result, analysis=analysis, model=model, jobs=1)
                seconds += time.perf_counter() - t0
                after = _shard_state(timing_dir)
                if leg == "cold":
                    wrote = sum(1 for name in after if name.endswith(f"-{model}.timing.json"))
                    outcome.check(wrote == self.nworkloads, f"{model}: {wrote} timing shards written")
                else:
                    outcome.check(after == before, f"{model}: warm evaluation rewrote timing shards")
                got = [evaluation.kendall_tau, evaluation.mean_error]
                outcome.check(got == self.expected[model], f"{model} {leg} subset tau/error {got}")
                subset[model] = got
        self.subset = subset
        return Rep(seconds)

    def deterministic(self, rep: Rep) -> Dict[str, Any]:
        return {"subset": self.subset}


SPECS = {
    spec.name: spec
    for spec in (
        SuiteCold(),
        Basket("scaled-sampled", SCALED_BASKET, SAMPLE_BLOCKS),
        Basket("profiled-all", PROFILED_BASKET, None),
        AnalystLoop(),
    )
}
