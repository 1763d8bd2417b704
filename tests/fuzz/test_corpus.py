"""Regression-corpus replay: every committed case passes the full oracle.

These entries were picked for feature diversity (barriers, atomics, shared
read/write, overlapping stores, nested control flow, SFU chains, 2-D
blocks, an agreed-fault launch, shared/texture event buffers recorded from
genuinely multi-block batches, and two store-hazard shapes whose
overlap-window stores collide with the epilogue across blocks) — replaying
them pins the generator's seed → case mapping, the engines' agreement on
each shape, and each pass's section bytes, held to the digests frozen in
``tests/fixtures/section_digests.json``.

Four entries come from the aliasing grammar band (seeds above
``ALIAS_SEED_BASE``) and pin the footprint-disjointness batch planner's
tiers: a looped store the symbolic pass proves disjoint (un-pinned), a
looped store with genuine cross-block overlap (stays pinned), a bandstore
whose concrete extents group most blocks, and an output-buffer load whose
interval clears the stores (grouped).
"""

import os

import pytest

from repro.fuzz import (
    build_kernel,
    case_path_name,
    default_corpus_dir,
    generate_case,
    iter_corpus,
    load_case,
    run_case,
    save_case,
)
from repro.simt import classify_kernel
from tests.conftest import DIGEST_REGEN_HINT, load_section_digests

ENTRIES = list(iter_corpus(default_corpus_dir()))
DIGESTS = load_section_digests()


def test_corpus_is_present_and_diverse():
    assert len(ENTRIES) >= 14
    tags = {meta["tag"] for _, _, meta in ENTRIES}
    assert tags == {"lane-disjoint", "communicating"}


@pytest.mark.parametrize("path,case,meta", ENTRIES, ids=[p.split("/")[-1] for p, _, _ in ENTRIES])
def test_corpus_case_replays_clean(path, case, meta):
    # The case still regenerates from its seed (generator determinism is
    # part of what the corpus pins down)...
    assert generate_case(case["seed"]) == case
    # ...its semantics tag is stable...
    assert classify_kernel(build_kernel(case)).tag == meta["tag"]
    # ...the tri-engine oracle still agrees...
    report = run_case(case)
    assert report.ok, report.failures
    # ...and the baseline still matches the sections frozen for it.
    name = os.path.splitext(os.path.basename(path))[0]
    assert report.baseline.digests() == DIGESTS["corpus"][name], DIGEST_REGEN_HINT


def test_save_load_roundtrip(tmp_path):
    case = generate_case(99)
    path = save_case(case, str(tmp_path), tag="lane-disjoint", note="n", with_ir=True)
    loaded, meta = load_case(path)
    assert loaded == case
    assert meta["tag"] == "lane-disjoint"
    assert (tmp_path / (case_path_name(case) + ".ir.txt")).exists()


def test_load_rejects_unknown_format(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"corpus_format": 999, "case": {}}')
    with pytest.raises(ValueError, match="unsupported corpus format"):
        load_case(str(p))
