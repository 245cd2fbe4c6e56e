"""Compare two full-set documents written by ``run.py --json``.

    python3 benchmarks/perf/compare.py A.json B.json

Per workload x end-to-end metric: both medians, both IQRs (over the
set's runs), the relative change of B against A and the bound from
``BENCHMARK.json``.  The unbounded raw numbers (the same metrics as the
box delivered them, not at nominal speed) are listed under each workload
without a verdict.  Verdicts:

* ``worse`` / ``better`` — B's median moved against / in favour of the
  metric's direction by more than the bound;
* ``unresolved`` — neither, but the run-to-run spread (the wider IQR,
  as a share of A's median) exceeds the bound, so "unchanged" cannot be
  claimed either;
* ``same`` — within the bound, with a spread that can resolve it.

Exits non-zero on any ``worse``.  This is the table for the same-code
agreement check and for every later parent-vs-change comparison; it
claims no gain on its own (a gain needs the paired runs the
choosing-metrics guide describes).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(relative change of B vs A, verdict)``."""
    change = (b["median"] - a["median"]) / a["median"]
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    if max(a["iqr"], b["iqr"]) / abs(a["median"]) > bound:
        return change, "unresolved"
    return change, "same"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv[1:])
    print(f"A: {argv[1]} @ {a_doc['git_sha'][:12]}  "
          f"B: {argv[2]} @ {b_doc['git_sha'][:12]}")
    print(f"{'workload':18s} {'metric':22s} {'A median':>12s} {'A iqr':>10s} "
          f"{'B median':>12s} {'B iqr':>10s} {'change':>8s} {'bound':>6s} "
          f"verdict")
    worse = 0
    for workload, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"][workload]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a, b = a_entry["end_to_end"][name], b_entry["end_to_end"][name]
            change, word = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            print(f"{workload:18s} {name:22s} {a['median']:12.4f} "
                  f"{a['iqr']:10.4f} {b['median']:12.4f} {b['iqr']:10.4f} "
                  f"{change:+8.1%} {metric['bound']:6.2f} {word}")
        for name, a in a_entry["raw"].items():
            b = b_entry["raw"][name]
            change = (b["median"] - a["median"]) / a["median"]
            print(f"{workload:18s} {'raw.' + name:22s} {a['median']:12.4f} "
                  f"{a['iqr']:10.4f} {b['median']:12.4f} {b['iqr']:10.4f} "
                  f"{change:+8.1%} {'-':>6s} -")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
