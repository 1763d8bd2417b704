"""Drive the property registry: check runs, self-tests, JSON reports.

The runner is the single entry point used by the CLI and the test suite.
Every property executes inside a ``verify.property`` telemetry span (a
no-op unless a trace session is active), so ``--trace-out`` shows where a
verify run spends its time, per property.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.telemetry import get_telemetry
from repro.verify.registry import (
    PlantResult,
    Property,
    PropertyResult,
    VerifyContext,
    all_properties,
)

#: Schema tag stamped into every JSON report.
REPORT_SCHEMA = "repro.verify/v1"

_LAYERS = ("simt", "trace", "analysis", "uarch")


@dataclass
class VerifyReport:
    """One verify (or self-test) run over a property selection."""

    mode: str  # "check" | "selftest"
    seed: int
    quick: bool
    results: List[PropertyResult] = field(default_factory=list)
    planted: List[PlantResult] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and all(
            p.detected for p in self.planted
        )

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "mode": self.mode,
            "seed": self.seed,
            "quick": self.quick,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "properties": [
                {
                    "name": r.name,
                    "layer": r.layer,
                    "status": r.status,
                    "cases": r.cases,
                    "seconds": round(r.seconds, 3),
                    "failures": r.failures,
                    "counterexample": r.counterexample,
                    "tallies": r.tallies,
                }
                for r in self.results
            ],
            "planted": [
                {
                    "name": p.name,
                    "detected": p.detected,
                    "seconds": round(p.seconds, 3),
                    "detail": p.detail,
                    "shrunk_from": p.shrunk_from,
                    "shrunk_to": p.shrunk_to,
                }
                for p in self.planted
            ],
        }


def select_properties(only: Optional[Sequence[str]] = None) -> List[Property]:
    """Resolve ``--only`` tokens to properties.

    Each token matches by exact name, by name prefix, or by layer; unknown
    tokens raise ``KeyError`` with the valid vocabulary.
    """
    props = all_properties()
    if not only:
        return props
    chosen: List[Property] = []
    for token in only:
        matched = [
            p
            for p in props
            if p.name == token or p.name.startswith(token) or p.layer == token
        ]
        if not matched:
            names = ", ".join(p.name for p in props)
            raise KeyError(
                f"unknown property {token!r}; layers: {', '.join(_LAYERS)}; "
                f"properties: {names}"
            )
        for p in matched:
            if p not in chosen:
                chosen.append(p)
    return chosen


def _drive(
    mode: str,
    seed: int,
    quick: bool,
    budget: Optional[int],
    only: Optional[Sequence[str]],
    progress: Optional[Callable[[str], None]],
) -> VerifyReport:
    ctx = VerifyContext(seed=seed, quick=quick, budget=budget, progress=progress)
    props = select_properties(only)
    tele = get_telemetry()
    report = VerifyReport(mode=mode, seed=seed, quick=quick)
    start = time.perf_counter()
    with tele.span(f"verify.{mode}", seed=seed, quick=quick, properties=len(props)):
        for prop in props:
            t0 = time.perf_counter()
            with tele.span("verify.property", property=prop.name, mode=mode):
                if mode == "check":
                    result = prop.check(ctx)
                    result.seconds = time.perf_counter() - t0
                    report.results.append(result)
                    ctx.note(
                        f"{'PASS' if result.ok else 'FAIL'}  {prop.name} "
                        f"({result.cases} cases, {result.seconds:.1f}s)"
                        f"{_tally_text(result)}"
                    )
                else:
                    planted = prop.plant(ctx)
                    planted.seconds = time.perf_counter() - t0
                    report.planted.append(planted)
                    shrink = (
                        f", shrunk {planted.shrunk_from}->{planted.shrunk_to} stmts"
                        if planted.shrunk_from is not None
                        else ""
                    )
                    ctx.note(
                        f"{'DETECTED' if planted.detected else 'MISSED'}  "
                        f"{prop.name} ({planted.seconds:.1f}s{shrink})"
                    )
    report.seconds = time.perf_counter() - start
    return report


def run_verify(
    seed: int = 0,
    quick: bool = False,
    budget: Optional[int] = None,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Check every selected property against fresh generated inputs."""
    return _drive("check", seed, quick, budget, only, progress)


def run_selftest(
    seed: int = 0,
    quick: bool = True,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Plant one violation per property and confirm each check detects it."""
    return _drive("selftest", seed, quick, None, only, progress)


def _tally_text(result: PropertyResult) -> str:
    """The result's tallies as a line suffix: ``"  [label n, ...]"``."""
    if not result.tallies:
        return ""
    return "  [" + ", ".join(f"{k} {n}" for k, n in result.tallies.items()) + "]"


def format_report(report: VerifyReport) -> str:
    """Human-readable summary table."""
    lines: List[str] = []
    if report.mode == "check":
        width = max((len(r.name) for r in report.results), default=10)
        for r in report.results:
            mark = "PASS" if r.ok else "FAIL"
            lines.append(
                f"  {mark}  {r.name:<{width}}  {r.cases:>3} cases  {r.seconds:6.1f}s"
                f"{_tally_text(r)}"
            )
            for f in r.failures[:4]:
                lines.append(f"        - {f}")
        verdict = "all properties hold" if report.ok else "PROPERTY VIOLATIONS"
    else:
        width = max((len(p.name) for p in report.planted), default=10)
        for p in report.planted:
            mark = "DETECTED" if p.detected else "MISSED  "
            shrink = (
                f"  shrunk {p.shrunk_from}->{p.shrunk_to} stmts"
                if p.shrunk_from is not None
                else ""
            )
            lines.append(f"  {mark}  {p.name:<{width}}  {p.seconds:6.1f}s{shrink}")
            if p.detail:
                lines.append(f"        - {p.detail}")
        verdict = (
            "every property detects its planted violation"
            if report.ok
            else "VACUOUS PROPERTIES (planted violations missed)"
        )
    done = len(report.results) or len(report.planted)
    lines.append(f"{done} properties, {report.seconds:.1f}s: {verdict}")
    return "\n".join(lines)
