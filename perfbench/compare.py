#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the standard output of any number of ``perfbench/run.py``
runs appended together: record lines and result lines.  For every workload
and metric it prints both medians, the change as a share of the base median
and, for end-to-end metrics, whether the change stays within the bound in
``BENCHMARK.json``.  It refuses (exit 2) when the two sets were run on
different kernel backends, since their times are not comparable, and exits
1 when a run failed its checks or a metric got worse than its bound.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """({(workload, metric): [values]}, {backends}, runs with failures)."""
    values, backends, failed = {}, set(), 0
    record = None
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if "record" in doc:
                record = doc["record"]
                backends.add(record["backend"])
                continue
            if record is None:
                raise ValueError(f"{path}: result line without a record line")
            failed += not doc["correct"]
            for name, metric in doc["metrics"].items():
                values.setdefault((record["workload"], name), []).append(
                    metric["value"])
            record = None
    return values, backends, failed


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_backends, base_failed = load(argv[0])
    new, new_backends, new_failed = load(argv[1])
    if base_backends != new_backends or len(base_backends) != 1:
        print(f"refusing to compare backends {sorted(base_backends)} "
              f"with {sorted(new_backends)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else 0.0
        verdict = ""
        if key[1] in e2e:
            loss = change if lower[key[1]] else -change
            verdict = "ok" if loss <= e2e[key[1]]["bound"] else "WORSE"
            worse += verdict == "WORSE"
        print(f"{key[0]:8} {key[1]:34} {b:14.6g} {n:14.6g} {change:+8.1%} {verdict}")
    print(f"runs failing checks: base {base_failed}, new {new_failed}")
    return 1 if worse or base_failed or new_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
