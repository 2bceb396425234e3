#!/usr/bin/env python3
"""cml3 benchmark: time to a checked verdict over seeded job lists.

Usage (from the root of a source checkout; nothing is built or installed):

    python3 perfbench/run.py --workload span|loop|certify --seed N \
        --seconds S --trace 0|1

Each job is one ``cml3`` CLI command run cold in a fresh interpreter
(``python3 -m cml3.cli ... --json`` with ``PYTHONPATH=src``), one at a time,
so no in-process cache carries over between jobs.  Every job's output is
checked exactly against ``oracle.py``.  The job list runs in rounds while
another round still fits in S seconds (at least one round).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs rounds in
pairs, untraced then traced through ``tracer.py``, checks that both print
identical bytes, and reports per-layer metrics from the traced spans.

Standard output ends with a record line (``{"record": ...}``) and then one
JSON result line: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
SETUP_LAUNCHES = 15
RUN_LIMIT_S = 170  # hard limit on one benchmark run
PROBE = (
    "import json, os, sys, numpy, cml3.cli, cml3._kernel as k; "
    "print(json.dumps({'backend': k.BACKEND, 'numpy': numpy.__version__, "
    "'python': sys.version.split()[0], "
    "'package': os.path.dirname(os.path.abspath(cml3.cli.__file__))}))"
)

BUCKETED_OPS = ("assoc_step", "cmul_terms")
BUCKETS = (("le4", 4), ("le64", 64), ("le1024", 1024), ("gt1024", None))


@contextlib.contextmanager
def work_dir():
    """Scratch directory for span files, removed afterwards."""
    os.makedirs(WORK, exist_ok=True)
    try:
        yield
    finally:
        for name in os.listdir(WORK):
            os.remove(os.path.join(WORK, name))
        os.rmdir(WORK)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))


class Runner:
    """Runs jobs as child processes, one at a time, inside the checkout."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.env.pop("CML3_BACKEND", None)

    def launch(self, argv):
        """(seconds, exit code, stdout, peak RSS in MB) of one process."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT)
        timer = threading.Timer(max(1.0, remaining), proc.kill)
        timer.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, stdout, usage.ru_maxrss / 1024

    def job(self, args, span_path=None):
        args = list(args) + ["--json"]
        if span_path is None:
            return self.launch([sys.executable, "-m", "cml3.cli"] + args)
        return self.launch([sys.executable, os.path.join(HERE, "tracer.py"),
                            span_path, "--"] + args)


def run_round(runner, jobs, oracle, traced=False):
    """Run every job once; returns the round's wall time and per-job rows."""
    rows = []
    t0 = time.perf_counter()
    for i, args in enumerate(jobs):
        span_path = os.path.join(WORK, f"job{i}.spans") if traced else None
        elapsed, code, stdout, rss = runner.job(args, span_path)
        rows.append({"args": args, "s": elapsed, "code": code,
                     "stdout": stdout, "rss_mb": rss, "spans": span_path,
                     "error": oracle.check(args, code, stdout)})
    return time.perf_counter() - t0, rows


def nearest_rank(values, pct):
    ordered = sorted(values)
    index = max(0, -(-len(ordered) * pct // 100) - 1)
    return ordered[int(index)]


def end_to_end(setup, rounds, tail_pct):
    times = [row["s"] for _, rows in rounds for row in rows]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(wall for wall, _ in rounds), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (nearest_rank(times, tail_pct), "s"),
        "peak_rss_mb": (max(row["rss_mb"] for _, rows in rounds
                            for row in rows), "MB"),
    }


def layer_metrics(rows):
    """Per-layer sums over the jobs of one traced round that passed."""
    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    gf3_max_cells = 0
    for row in rows:
        if row["error"]:
            continue
        header, (name, parent, start, end, n_in, n_out, aux) = \
            tracer.read_spans(row["spans"])
        names = header["names"]
        add("cli.import_s", header["import_s"])
        add("cli.out_bytes", len(row["stdout"]))
        covered = [0.0] * header["count"]
        for i in range(header["count"]):
            if parent[i] >= 0:
                covered[parent[i]] += end[i] - start[i]
        for i in range(header["count"]):
            label = names[name[i]]
            dur = end[i] - start[i]
            own = dur - covered[i]
            if label.startswith("kernel."):
                op = label[len("kernel."):]
                add(f"{label}.calls", 1)
                add(f"{label}.self_s", own)
                add(f"{label}.terms_in", n_in[i])
                add(f"{label}.terms_out", n_out[i])
                if op in BUCKETED_OPS:
                    bucket = next(b for b, top in BUCKETS
                                  if top is None or n_in[i] <= top)
                    add(f"{label}.calls.{bucket}", 1)
                    add(f"{label}.self_s.{bucket}", own)
                if op == "assoc_step" and n_out[i] == 0:
                    add("kernel.assoc_step.zero_steps", 1)
            elif label.startswith("gf3@"):
                add("gf3.calls", 1)
                add("gf3.self_s", own)
                add("gf3.rows", n_in[i])
                add("gf3.cols", aux[i])
                add("gf3.rank", n_out[i])
                gf3_max_cells = max(gf3_max_cells, n_in[i] * aux[i])
                if label == "gf3@words":
                    add("words.rows", n_in[i])
                    add("words.rank", n_out[i])
            elif label == "words.h":
                add("words.h.calls", 1)
                add("words.h.self_s", own)
                add("words.h.zero_types", n_out[i] == 0)
            elif label.startswith("loop."):
                add(f"{label}.calls", 1)
                add("loop.self_s", own)
                if label == "loop.linv":
                    add("loop.linv.incl_s", dur)
            elif label in ("twowords", "grassmann.add"):
                add(f"{label}.calls", 1)
                add(f"{label}.self_s", own)
            elif label == "cli.main":
                add("cli.self_s", own)
            elif label == "cli.handler":
                add("other.self_s", own)
        if row["args"][0] in ("mainid", "verify") and (
                "loop" in row["args"] or "cml3" in row["args"]):
            doc = json.loads(row["stdout"])
            add("loop.instantiations", sum(
                int(c["instantiation"].split()[0])
                for c in doc["results"]["checks"]))
    acc["gf3.max_cells"] = gf3_max_cells
    return acc


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced_rows, untraced_wall, traced_wall, spec):
    acc = layer_metrics(traced_rows)
    acc["kernel.assoc_step.zero_frac"] = _ratio(
        acc.get("kernel.assoc_step.zero_steps", 0),
        acc.get("kernel.assoc_step.calls", 0))
    acc["words.rank_frac"] = _ratio(acc.get("words.rank", 0),
                                    acc.get("words.rows", 0))
    acc["gf3.rank_frac"] = _ratio(acc.get("gf3.rank", 0), acc.get("gf3.rows", 0))
    acc["trace.wall_s"] = traced_wall
    acc["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return {m["name"]: acc.get(m["name"], 0) for m in spec}


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "cml3", "cli.py")):
        print(f"perfbench: no cml3 sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    h8, pool = workloads.load_inputs()
    oracle = Oracle(h8, pool)
    jobs = workloads.job_list(args.workload, args.seed, h8, pool)
    tail_pct = workloads.tail_pct(len(jobs))

    with work_dir():
        runner = Runner(started)
        _, code, stdout, _ = runner.launch([sys.executable, "-c", PROBE])
        if code != 0:
            print("perfbench: cml3 does not import", file=sys.stderr)
            return 2
        probe = json.loads(stdout)
        if os.path.realpath(probe["package"]) != os.path.realpath(
                os.path.join(SRC, "cml3")):
            print(f"perfbench: cml3 imported from {probe['package']}, "
                  "not from this checkout", file=sys.stderr)
            return 2

        setup = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES):
                elapsed, code, _, _ = runner.launch(
                    [sys.executable, "-c", "import cml3.cli"])
                if code != 0:
                    return 2
                setup.append(elapsed)

        rounds, traced, layers = [], [], []
        t0 = time.perf_counter()
        while True:
            wall, rows = run_round(runner, jobs, oracle)
            rounds.append((wall, rows))
            if args.trace:
                t_wall, t_rows = run_round(runner, jobs, oracle, traced=True)
                for row, plain in zip(t_rows, rows):
                    if row["error"] is None and row["stdout"] != plain["stdout"]:
                        row["error"] = "traced output differs from untraced"
                traced.append(t_rows)
                layers.append(per_layer(t_rows, wall, t_wall, spec["per_layer"]))
                step = statistics.median(
                    w + layer["trace.wall_s"] for (w, _), layer in zip(rounds, layers))
            else:
                step = statistics.median(w for w, _ in rounds)
            if time.perf_counter() - t0 + step > args.seconds:
                break

        all_rows = [row for _, rows in rounds for row in rows]
        all_rows += [row for t_rows in traced for row in t_rows]
        errors = [(row["args"], row["error"]) for row in all_rows
                  if row["error"]]
        for job_args, error in errors[:10]:
            print(f"perfbench: FAIL {' '.join(job_args)}: {error}",
                  file=sys.stderr)

        if args.trace:
            metrics = {m["name"]: (statistics.median(layer[m["name"]]
                                                     for layer in layers),
                                   m["unit"]) for m in spec["per_layer"]}
        else:
            values = end_to_end(setup, rounds, tail_pct)
            metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}

        times = [row["s"] for _, rows in rounds for row in rows]
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "backend": probe["backend"], "python": probe["python"],
            "numpy": probe["numpy"], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "rounds": len(rounds),
            "round_walls_s": [wall for wall, _ in rounds],
            "jobs": [" ".join(j) for j in jobs],
            "job_s": [[rows[i]["s"] for _, rows in rounds]
                      for i in range(len(jobs))],
            "tail_pct": tail_pct,
            "tail_beyond": sum(t > nearest_rank(times, tail_pct) for t in times),
            "job_runs": len(times),
        }
        print(json.dumps({"record": record}))
        result = {
            "correct": not errors,
            "attempted": len(all_rows),
            "failed": len(errors),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0


if __name__ == "__main__":
    sys.exit(main())
