"""Property registry for the invariant-verification subsystem.

A *property* is one executable metamorphic/invariant check over some layer
of the pipeline (simulator, trace passes, analysis, uarch models).  Each
property knows how to

* ``check`` itself against freshly generated inputs, reporting failures and
  a (shrunk, where generator-backed) counterexample; and
* ``plant`` a seeded violation of its own invariant and prove that the
  check detects it — the self-test that keeps a property from rotting into
  vacuity.

Properties over generated fuzz cases derive from :class:`CaseProperty`,
which owns both loops; they declare only a case filter, a comparison and a
plant.

Properties register themselves at import time via :func:`register`;
:func:`all_properties` returns them in registration order.  The CLI
(``python -m repro verify``) and the test suite both drive the registry
through :mod:`repro.verify.runner`.
"""

from __future__ import annotations

import contextlib
import itertools
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.fuzz.generator import ALIAS_SEED_BASE, Case, case_stmt_count, generate_case
from repro.fuzz.shrink import shrink_case

#: Seed-search cap of every plant: it scans ``plant_base + attempt`` until a
#: case fails under the planted violation.
PLANT_ATTEMPTS = 600


@dataclass
class PropertyResult:
    """Outcome of running one property's check."""

    name: str
    layer: str
    status: str  # "pass" | "fail"
    cases: int = 0
    seconds: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: JSON-able witness of the violation (a shrunk fuzz case, a doctored
    #: matrix description, ...) — ``None`` when the property passed.
    counterexample: Optional[Dict] = None
    #: Checked cases per label (grammar band, oracle tag, ...), so a leg
    #: that silently ran no case shows up as a zero.
    tallies: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class PlantResult:
    """Outcome of one property's planted-violation self-test."""

    name: str
    detected: bool
    seconds: float = 0.0
    detail: str = ""
    #: For generator-backed properties: statement counts before/after the
    #: shrinker minimised the planted counterexample.
    shrunk_from: Optional[int] = None
    shrunk_to: Optional[int] = None


class Property:
    """Base class: one registered invariant check.

    Subclasses set the class attributes and implement :meth:`check` (and
    :meth:`plant` for the self-test mode).  ``generator_backed`` is true for
    :class:`CaseProperty` subclasses only.
    """

    name: str = ""
    layer: str = ""  # "simt" | "trace" | "analysis" | "uarch"
    invariant: str = ""  # one-line statement of the invariant
    generator_backed: bool = False

    def check(self, ctx: "VerifyContext") -> PropertyResult:
        raise NotImplementedError

    def plant(self, ctx: "VerifyContext") -> PlantResult:
        raise NotImplementedError

    # Helpers shared by subclasses -----------------------------------------

    def _result(
        self,
        cases: int,
        failures: List[str],
        counterexample: Optional[Dict] = None,
        tallies: Optional[Dict[str, int]] = None,
    ) -> PropertyResult:
        return PropertyResult(
            name=self.name,
            layer=self.layer,
            status="pass" if not failures else "fail",
            cases=cases,
            failures=failures,
            counterexample=counterexample,
            tallies={k: int(n) for k, n in sorted((tallies or {}).items())},
        )


class CaseProperty(Property):
    """A property checked on generated fuzz cases.

    A subclass declares its case filter (:meth:`applies`), its comparison
    (:meth:`diffs`, empty when a case holds the invariant) and its plant:
    the seeds and filter of the plant's search (:attr:`plant_base`,
    :meth:`plant_applies`) and the planted violation (:meth:`mutant`).

    The check runs the ``budget`` first cases the filter accepts from the
    property's seed stream (:meth:`case_seeds`), giving up once the filter
    has rejected ``scan`` seeds, and shrinks the first failing case to a
    witness.  It tallies the cases by grammar band and by the labels
    :meth:`verdict` returns.  The plant searches ``PLANT_ATTEMPTS`` seeds
    from ``plant_base`` for a case that fails with the mutant installed and
    shrinks it.  The plant counts as detected only if the shrunk case is
    clean once the mutant is lifted: its diffs are empty — or, when the
    plant is the filter itself being skipped, the filter rejects it.
    Otherwise the property fails for a reason other than its plant.
    """

    generator_backed = True
    #: Case count as ``(quick, deep)``, see :meth:`VerifyContext.cases`.
    budget: Tuple[int, int] = (5, 24)
    #: Seeds the filter may reject before the check gives up.
    scan: int = 10_000
    plant_base: int = 0

    def applies(self, case: Case) -> bool:
        """Whether the check runs ``case``."""
        return True

    def diffs(self, case: Case) -> List[str]:
        """The invariant's violations on ``case``."""
        raise NotImplementedError

    def verdict(self, case: Case) -> Tuple[List[str], Dict[str, bool]]:
        """The check's view of ``case``: its diffs, and for each tally label
        whether the case counts under it."""
        return self.diffs(case), {}

    def plant_applies(self, case: Case) -> bool:
        """Whether the plant's search tries ``case``."""
        return self.applies(case)

    def mutant(self) -> Optional[ContextManager]:
        """A context manager installing the planted violation, or ``None``
        when the plant is the filter being skipped: then ``plant_applies``
        picks cases the filter must reject, and the diffs must flag them."""
        return None

    def case_seeds(self, ctx: "VerifyContext") -> Iterator[int]:
        """The property's seed stream.  Every :meth:`VerifyContext.case_seed`
        is at least 2^40, so by default the stream draws only the aliasing
        grammar."""
        return (ctx.case_seed(self.name, i) for i in itertools.count())

    def check_cases(self, ctx: "VerifyContext") -> Iterator[Case]:
        """The cases the check runs, in seed-stream order."""
        n = ctx.cases(*self.budget)
        produced = rejected = 0
        for seed in self.case_seeds(ctx):
            if produced >= n or rejected >= self.scan:
                return
            case = generate_case(seed)
            if self.applies(case):
                produced += 1
                yield case
            else:
                rejected += 1

    def check(self, ctx: "VerifyContext") -> PropertyResult:
        cases = 0
        tallies: Counter = Counter()
        for case in self.check_cases(ctx):
            cases += 1
            failures, labels = self.verdict(case)
            base = case["seed"] < ALIAS_SEED_BASE
            tallies.update({"base-grammar": base, "alias-grammar": not base, **labels})
            if failures:
                shrunk = shrink_case(case, lambda c: self.applies(c) and bool(self.diffs(c)))
                witness = case_witness(shrunk, self.diffs(shrunk))
                return self._result(cases, failures, witness, tallies)
        return self._result(cases, [], tallies=tallies)

    def plant(self, ctx: "VerifyContext") -> PlantResult:
        start = time.perf_counter()
        mutant = self.mutant()
        skips_filter = mutant is None
        with mutant or contextlib.nullcontext():
            for attempt in range(PLANT_ATTEMPTS):
                case = generate_case(self.plant_base + attempt)
                failures = self.diffs(case) if self.plant_applies(case) else []
                if failures:
                    break
            else:
                return PlantResult(
                    name=self.name,
                    detected=False,
                    seconds=time.perf_counter() - start,
                    detail=f"no failing case found in {PLANT_ATTEMPTS} seeds",
                )
            shrunk = shrink_case(
                case, lambda c: (skips_filter or self.applies(c)) and bool(self.diffs(c))
            )
        if skips_filter:
            detected = not self.applies(shrunk)
            note = " (correctly rejected by the filter)" if detected else " (the filter accepts it)"
        else:
            detected = not self.diffs(shrunk)
            note = "" if detected else " (the shrunk case still fails with the plant lifted)"
        return PlantResult(
            name=self.name,
            detected=detected,
            seconds=time.perf_counter() - start,
            detail=f"seed {case['seed']}: {failures[0]}{note}",
            shrunk_from=case_stmt_count(case),
            shrunk_to=case_stmt_count(shrunk),
        )


def case_witness(case: Case, failures: List[str]) -> Dict:
    """JSON-able counterexample of a generator-backed property.  ``case`` is
    the shrunk case itself (grid, block and statements), replayable without
    regenerating its seed."""
    return {
        "seed": case["seed"],
        "stmts": case_stmt_count(case),
        "failures": failures[:8],
        "case": case,
    }


@dataclass
class VerifyContext:
    """Execution knobs shared by every property in one verify run."""

    seed: int = 0
    quick: bool = False
    budget: Optional[int] = None
    #: Optional progress sink (one line per property), e.g. stderr print.
    progress: Optional[Callable[[str], None]] = None

    #: Lazily characterized workload profiles, keyed by basket tuple —
    #: shared so several properties can reuse one characterization.
    _profile_cache: Dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")

    def cases(self, quick_default: int, deep_default: int) -> int:
        """Input-count budget for one generator/trial-driven property."""
        if self.budget is not None:
            return self.budget
        return quick_default if self.quick else deep_default

    def rng(self, name: str) -> np.random.Generator:
        """Per-property numpy generator, decorrelated across properties."""
        return np.random.default_rng((self.seed << 32) ^ zlib.crc32(name.encode()))

    def case_seed(self, name: str, index: int) -> int:
        """Per-property fuzz-case seed stream (stable across runs)."""
        tag = zlib.crc32(name.encode()) & 0xFFFF
        return (tag << 40) ^ (self.seed << 20) ^ index

    def suite_profiles(self, abbrevs: Optional[tuple] = None):
        """Characterize (and cache) a workload basket for this run."""
        key = abbrevs
        if key not in self._profile_cache:
            from repro.api import CharacterizationConfig, characterize

            config = CharacterizationConfig(
                abbrevs=list(abbrevs) if abbrevs else None
            )
            self._profile_cache[key] = list(characterize(config).profiles)
        return self._profile_cache[key]

    def note(self, message: str) -> None:
        if self.progress:
            self.progress(message)


#: Registration order defines report order.
_REGISTRY: Dict[str, Property] = {}


def register(cls: Type[Property]) -> Type[Property]:
    """Class decorator: instantiate and register one property."""
    prop = cls()
    if not prop.name or not prop.layer or not prop.invariant:
        raise ValueError(f"property {cls.__name__} must set name/layer/invariant")
    if prop.name in _REGISTRY:
        raise ValueError(f"duplicate property name {prop.name!r}")
    _REGISTRY[prop.name] = prop
    return cls


def all_properties() -> List[Property]:
    """Every registered property, in registration order."""
    # Importing the properties package populates the registry exactly once.
    import repro.verify.properties  # noqa: F401

    return list(_REGISTRY.values())


def get_property(name: str) -> Property:
    for prop in all_properties():
        if prop.name == name:
            return prop
    raise KeyError(name)
