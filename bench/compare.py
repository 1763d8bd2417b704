#!/usr/bin/env python3
"""Compare two benchmark runs workload by workload.

    python bench/compare.py A.json B.json

``A`` and ``B`` are files written by ``bench/run.py --out``; ``A`` is the
base.  For every workload and end-to-end metric it prints both medians and
quartiles and a verdict, using the metric's direction and bound from
``BENCHMARK.json``:

* ``ok``: B's median is within the bound of A's;
* ``worse`` / ``better``: it moved by more than the bound;
* ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the bound, unless every sample of one side beats every sample of
  the other.

It also flags every layer whose share of the traced wall time grew by more
than five points (a regression hidden inside a flat total), every
deterministic value that differs, and every workload whose checks failed.
The exit code is 1 when any row is worse or unresolved or anything is
flagged, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

BENCHMARK_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
#: Growth of a layer's share of the traced wall time that is flagged.
SHARE_GROWTH = 0.05


def spread(m: Dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    """Verdict on B against A for one metric summary (value, q1, q3, samples)."""
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        a_best = min(a["samples"]) if better == "lower" else max(a["samples"])
        a_worst = max(a["samples"]) if better == "lower" else min(a["samples"])
        b_best = min(b["samples"]) if better == "lower" else max(b["samples"])
        b_worst = max(b["samples"]) if better == "lower" else min(b["samples"])
        if sign * (b_worst - a_best) < 0:
            return "better"
        if sign * (a_worst - b_best) < 0:
            return "worse"
        return "unresolved"
    change = sign * (b["value"] - a["value"]) / a["value"]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "ok"


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any], bench: Dict[str, Any]) -> List[str]:
    """Report lines; every line starting with ``!`` is a problem."""
    lines = [f"{'workload':15s} {'metric':12s} {'A median [q1, q3]':>32s} "
             f"{'B median [q1, q3]':>32s} {'change':>8s}  verdict"]
    for entry in bench["workloads"]:
        name = entry["name"]
        a = a_doc["workloads"].get(name)
        b = b_doc["workloads"].get(name)
        if a is None or b is None:
            lines.append(f"! {name}: missing from {'A' if a is None else 'B'}")
            continue
        for side, rec in (("A", a), ("B", b)):
            if not rec.get("correct"):
                lines.append(f"! {name}: checks failed in {side}: {rec.get('failures')}")
        for metric in bench["end_to_end"]:
            ma = a.get("end_to_end", {}).get(metric["name"])
            mb = b.get("end_to_end", {}).get(metric["name"])
            if ma is None or mb is None:
                lines.append(f"! {name}: {metric['name']} missing")
                continue
            v = verdict(ma, mb, metric["better"], metric["bound"])
            change = (mb["value"] - ma["value"]) / ma["value"] if ma["value"] else 0.0
            row = (f"{name:15s} {metric['name']:12s} "
                   f"{ma['value']:10.4g} [{ma['q1']:9.4g}, {ma['q3']:9.4g}] "
                   f"{mb['value']:10.4g} [{mb['q1']:9.4g}, {mb['q3']:9.4g}] "
                   f"{change:+8.1%}  {v}")
            lines.append(("! " if v in ("worse", "unresolved") else "") + row)
        la, lb = a.get("per_layer", {}), b.get("per_layer", {})
        for layer in sorted(set(la) & set(lb)):
            if layer.endswith("_share") and lb[layer] - la[layer] > SHARE_GROWTH:
                lines.append(f"! {name}: {layer} grew from {la[layer]:.3f} to {lb[layer]:.3f}")
        if a.get("deterministic") != b.get("deterministic"):
            lines.append(f"! {name}: deterministic values differ: "
                         f"{a.get('deterministic')} vs {b.get('deterministic')}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    with open(BENCHMARK_FILE) as fh:
        bench = json.load(fh)
    lines = compare(docs[0], docs[1], bench)
    print("\n".join(lines))
    problems = [line for line in lines if line.startswith("!")]
    print(f"{len(problems)} problem(s)" if problems else "no worse, unresolved or flagged rows")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
