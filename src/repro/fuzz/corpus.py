"""Replayable regression corpus.

A corpus entry is one JSON file holding a fuzz case plus light metadata
(the semantics tag at save time and a free-form note).  Entries under
``tests/fuzz/corpus/`` are committed and replayed deterministically by the
tier-1 suite.  A failing case found by ``repro verify`` (its witness names
the seed and carries the shrunk case) becomes an entry through
:func:`save_case` with ``with_ir=True``, which adds an IR dump for human
triage; commit it once the underlying bug is fixed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Tuple

from repro.fuzz.generator import Case, build_kernel

CORPUS_FORMAT = 1


def case_path_name(case: Case, prefix: str = "case") -> str:
    """Canonical file stem for a case: stable across runs for a given seed."""
    return f"{prefix}-seed{case['seed']}"


def save_case(
    case: Case,
    directory: str,
    tag: str = "",
    note: str = "",
    prefix: str = "case",
    with_ir: bool = False,
) -> str:
    """Write a case (and optionally its IR disassembly) into ``directory``.

    Returns the JSON path.  Writing the IR dump next to the case makes a
    shrunk failure immediately readable without rerunning anything.
    """
    os.makedirs(directory, exist_ok=True)
    stem = case_path_name(case, prefix)
    path = os.path.join(directory, stem + ".json")
    payload = {
        "corpus_format": CORPUS_FORMAT,
        "tag": tag,
        "note": note,
        "case": case,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if with_ir:
        from repro.simt import disassemble

        with open(os.path.join(directory, stem + ".ir.txt"), "w") as fh:
            fh.write(disassemble(build_kernel(case)))
            fh.write("\n")
    return path


def load_case(path: str) -> Tuple[Case, Dict[str, Any]]:
    """Read ``(case, metadata)`` from a corpus JSON file."""
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("corpus_format")
    if version != CORPUS_FORMAT:
        raise ValueError(f"unsupported corpus format {version!r} in {path}")
    meta = {k: v for k, v in payload.items() if k != "case"}
    return payload["case"], meta


def iter_corpus(directory: str) -> Iterator[Tuple[str, Case, Dict[str, Any]]]:
    """Yield ``(path, case, metadata)`` for every corpus entry, sorted."""
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        case, meta = load_case(path)
        yield path, case, meta


def default_corpus_dir() -> str:
    """The committed corpus location, resolved relative to the repo root."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "fuzz", "corpus")
