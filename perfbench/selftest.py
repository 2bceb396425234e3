#!/usr/bin/env python3
"""Show that the benchmark's oracle fails a job on a wrong expected value.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Runs ``h --type 5,2`` cold, once with the true expectation (h = 6) and once
with a deliberately wrong one (h = 7), through the same check the benchmark
applies to every job.  Also corrupts one pinned n = 8 value and checks that
loading the table rejects it through the c_8 total.  Exits 0 when the good
job passes and both wrong expectations are caught, 1 otherwise.
"""

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import DATA, Oracle, load_h8  # noqa: E402


def main() -> int:
    h8, pool = workloads.load_inputs()
    good = Oracle(h8, pool)
    wrong = Oracle(h8, pool)
    wrong.h["5,2"] = 7
    job = ["h", "--type", "5,2"]
    with run.work_dir():
        runner = run.Runner(time.perf_counter())
        _, (right,) = run.run_round(runner, [job], good)
        _, (failed,) = run.run_round(runner, [job], wrong)
    print(f"true expectation h=6: error={right['error']}")
    print(f"wrong expectation h=7: error={failed['error']}")
    ok = right["error"] is None and failed["error"] is not None

    with open(os.path.join(DATA, "h8.json")) as fh:
        doc = json.load(fh)
    doc["types"] = [[t, 2 if t == "7,1" else h, calls]
                    for t, h, calls in doc["types"]]
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
        path = os.path.join(tmp, "h8.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            load_h8(path)
            print("corrupted h8 table (h(7,1)=2): accepted")
            ok = False
        except ValueError as exc:
            print(f"corrupted h8 table (h(7,1)=2): rejected: {exc}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
