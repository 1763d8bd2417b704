#!/usr/bin/env python3
"""Regenerate the benchmark's correctness oracles.

Run from the repository root after an intentional change to what the
simulator, the passes or the evaluation compute:

    PYTHONPATH=src python bench/regen_expected.py

It rewrites ``bench/expected/expected.json``: sha256 digests of the
canonical profile bytes of every registered workload and of both scaled
baskets at seed 1234, and the subset-vs-full-suite Kendall tau and mean
error of both timing models.  Review the diff: a speed-only change must
leave every value identical.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

from repro import api  # noqa: E402
from repro.workloads import registry  # noqa: E402
from repro.workloads.runner import run_workload  # noqa: E402

import specs  # noqa: E402


def basket_digests(basket, sample_blocks):
    return {
        abbrev: specs.profile_digest(
            run_workload(
                registry.get(abbrev)(**scale),
                verify=True,
                sample_blocks=sample_blocks,
                seed=specs.EXPECTED_SEED,
            )
        )
        for abbrev, scale in basket
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        result = api.characterize(api.CharacterizationConfig(cache_dir=tmp, jobs=1))
        analysis = api.analyze(result)
        subset = {}
        for model in specs.MODELS:
            evaluation = api.evaluate(result, analysis=analysis, model=model, jobs=1)
            subset[model] = [evaluation.kendall_tau, evaluation.mean_error]
    doc = {
        "seed": specs.EXPECTED_SEED,
        "suite": {p.workload: specs.profile_digest(p) for p in result.profiles},
        "scaled-sampled": basket_digests(specs.SCALED_BASKET, specs.SAMPLE_BLOCKS),
        "profiled-all": basket_digests(specs.PROFILED_BASKET, None),
        "subset": subset,
    }
    with open(specs.EXPECTED_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(specs.EXPECTED_FILE)}: {len(doc['suite'])} suite digests, "
          f"subset {subset}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
