"""Kernel fuzzing & tri-engine differential oracle.

This subsystem turns "the engines agree on the 37 in-repo workloads" into
"the engines agree on the whole IR space":

* :mod:`repro.fuzz.generator` — a seeded structured kernel generator
  covering the full IR surface (all op categories, nested ``If``/``While``
  with data-dependent trip counts, early ``Return``, every memory space
  with deliberately overlapping and cross-lane addresses, ``Barrier`` and
  all atomics).  Every case is a small JSON document, so it is
  reproducible, shrinkable and committable.
* :mod:`repro.fuzz.oracle` — runs each kernel on the interpreted engine,
  the compiled engine at several ``batch_blocks`` values and — for
  lane-disjoint kernels (see :mod:`repro.simt.classify`) — the lane-serial
  reference, asserting identical device memory, identical canonical
  profiles between the lockstep engines, and internal profile invariants.
* :mod:`repro.fuzz.shrink` — a greedy minimizer that reduces a failing
  case to the smallest statement list that still fails.
* :mod:`repro.fuzz.corpus` — the replayable regression corpus under
  ``tests/fuzz/corpus/``.

The driver over generated cases is the ``sim.batch.parity`` property of
:mod:`repro.verify` (``python -m repro verify --only sim.batch.parity``).
"""

from repro.fuzz.corpus import case_path_name, default_corpus_dir, iter_corpus, load_case, save_case
from repro.fuzz.generator import build_kernel, case_stmt_count, describe_case, generate_case
from repro.fuzz.oracle import CaseReport, check_profile_invariants, run_case
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CaseReport",
    "build_kernel",
    "case_path_name",
    "case_stmt_count",
    "check_profile_invariants",
    "default_corpus_dir",
    "describe_case",
    "generate_case",
    "iter_corpus",
    "load_case",
    "run_case",
    "save_case",
    "shrink_case",
]
