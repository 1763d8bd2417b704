#!/usr/bin/env python
"""Regenerate the frozen per-pass section-digest fixture.

The fixture pins the sha256 of the launch headers and of every pass's
canonical section bytes for three run sets:

* ``workloads`` — every registered workload at its default scale with
  ``stride_sampler(8)`` (the ``test_workload_parity`` configuration);
* ``sweep_all_blocks`` — the batch-sweep basket at tiny scales with every
  block profiled;
* ``corpus`` — every committed fuzz-corpus case under the oracle's
  ``stride_sampler(2)`` (a case whose launch faults records its error type).

Digests are computed from the interpreted engine, and the script asserts
that the compiled engine produces the same ones before writing anything.
Run from the repository root after an *intentional* change to a pass or
to the profile format:

    PYTHONPATH=src python scripts/regen_section_digests.py

then review the diff of ``tests/fixtures/section_digests.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.fuzz import default_corpus_dir, iter_corpus  # noqa: E402
from repro.fuzz.oracle import SAMPLE_BLOCKS, launch_case  # noqa: E402
from repro.trace.serialize import section_digests  # noqa: E402
from repro.workloads import registry  # noqa: E402
from repro.workloads.runner import run_workload  # noqa: E402

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "fixtures", "section_digests.json"
)

#: Profile sample of the registered-workload set (``test_workload_parity``).
WORKLOAD_SAMPLE_BLOCKS = 8

#: The batch-sweep basket of ``tests/simt/test_engine_parity.py``.
SWEEP_BASKET = (
    ("VA", {"n": 1 << 12}),
    ("BS", {"n": 1 << 10}),
    ("NN", {"n": 1 << 10}),
)


def _agreed(label: str, runs) -> dict:
    """Digests of the interpreted run, after checking every engine agrees."""
    digests = {engine: d for engine, d in runs}
    reference = digests["interpreted"]
    for engine, d in digests.items():
        if d != reference:
            raise SystemExit(f"{label}: {engine} digests differ from the interpreted engine")
    return reference


def _workload_digests(workload, sample_blocks, engine: str) -> dict:
    return section_digests(
        run_workload(workload, verify=False, sample_blocks=sample_blocks, engine=engine)
    )


def build() -> dict:
    engines = ("interpreted", "compiled")
    workloads = {}
    for abbrev in registry.abbrevs():
        workloads[abbrev] = _agreed(abbrev, [
            (e, _workload_digests(registry.get(abbrev), WORKLOAD_SAMPLE_BLOCKS, e))
            for e in engines
        ])
    sweep = {}
    for abbrev, scale in SWEEP_BASKET:
        sweep[abbrev] = {
            "scale": scale,
            "digests": _agreed(abbrev, [
                (e, _workload_digests(registry.get(abbrev)(**scale), None, e))
                for e in engines
            ]),
        }
    corpus = {}
    for path, case, _meta in iter_corpus(default_corpus_dir()):
        name = os.path.splitext(os.path.basename(path))[0]
        corpus[name] = _agreed(name, [
            (e, launch_case(case, e, sample_blocks=SAMPLE_BLOCKS).digests()) for e in engines
        ])
    return {"workloads": workloads, "sweep_all_blocks": sweep, "corpus": corpus}


def main() -> int:
    fixture = build()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {os.path.relpath(FIXTURE)}: {len(fixture['workloads'])} workloads, "
        f"{len(fixture['sweep_all_blocks'])} sweep runs, {len(fixture['corpus'])} corpus cases"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
