"""Seeded job lists of ``cml3`` CLI commands, one list per workload.

A job is the argument list of one cold ``cml3`` command; the benchmark
appends ``--json``.  The workload seed picks the inputs, but every seed's
list has the same cost structure, so that run-to-run spread measures the
program rather than the draw.  Every list has an odd number of jobs, so the
median job time falls on the runs of one job, not between two:

* ``span`` draws n = 8 types from classes of twins: types with the same
  span being zero or not, the same letter count and assoc_step call counts
  within 1% of each other, which take the same time.  One type per class
  in a band of call counts, plus ``dim --n 7`` and ``h --type 7,1``.  Below
  the band a job is mostly interpreter start-up, whose time drifts with the
  machine far more than computation does; above it the heaviest types
  (``1,7`` and ``2,5,1`` take 11 s and 6 s) would take a run.
* ``loop`` uses pooled jobs whose exact twisted-product work (the sum of
  |x|*|y| over cmul calls) was measured once.  Work predicts time only
  within a factor of two (0.5 to 1.1 us per pair), so heavy jobs drawn by
  seed would give every seed a different cost.  Instead the same heavy
  jobs, the pooled ones nearest each work target, carry the heavy tail of
  per-instantiation cost into every list; the seed draws the rest from the
  light jobs, where most instantiations lie.  Single instantiations of 8 to
  23 s exist and are left out: one would swamp a run.
* ``certify`` repeats a fixed mix of short commands; the seed only reaches
  the sampled suites, whose cost barely depends on it.  The sampled suites
  are sized so that the median job computes for longer than the
  interpreter takes to start.
"""

from __future__ import annotations

import json
import os
import random

from oracle import DATA, load_h8

# span: assoc_step call band of the drawn types, and the jobs in every list
# (7,1 has the largest h on eight generators, 28)
SPAN_BAND = (7000, 20000)
SPAN_FIXED = (("dim", "--n", "7"), ("h", "--type", "7,1", "--unsafe-n"))

# loop: heavy jobs as (kind, n, work target), light ones as (kind, n, work
# cap, count drawn)
LOOP_SAMPLES = 6
LOOP_HEAVY = (("mainid", 7, 2_000_000), ("verify", 7, 3_000_000),
              ("verify", 6, 2_400_000))
LOOP_LIGHT = (("mainid", 7, 60_000, 1), ("verify", 7, 400_000, 2),
              ("verify", 6, 260_000, 1))

# certify: (count, args); "{seed}" is filled per job from the workload seed
CERTIFY_MIX = (
    (3, ("regular", "--case", "5,2")),
    (2, ("regular", "--case", "7", "--cross-check")),
    (6, ("verify", "--suite", "identities", "--n", "7",
         "--samples", "1000", "--seed", "{seed}")),
    (6, ("verify", "--suite", "malbos", "--n", "6",
         "--samples", "3000", "--seed", "{seed}")),
    (2, ("tah", "--dump")),
    (2, ("mainid", "--mode", "algebra")),
    (2, ("h", "--type", "5,2")),
)

# job_tail_s percentile: the highest with at least ten job runs beyond it
# in a run of TAIL_ROUNDS rounds; it depends on the list length only, so it
# does not move when the program gets faster and runs more rounds
TAIL_ROUNDS = 4


def tail_pct(n_jobs: int) -> int:
    runs = TAIL_ROUNDS * n_jobs
    return 100 * (runs - 10) // runs


def load_loop_pool(path=os.path.join(DATA, "loop_pool.json")):
    with open(path) as fh:
        return json.load(fh)


def _twin_classes(rows):
    rows = sorted(rows, key=lambda r: (r[1] > 0, _letters(r[0]), r[2], r[0]))
    classes = []
    for row in rows:
        head = classes[-1][0] if classes else None
        if (head and (row[1] > 0) == (head[1] > 0)
                and _letters(row[0]) == _letters(head[0])
                and row[2] <= head[2] * 1.01):
            classes[-1].append(row)
        else:
            classes.append([row])
    return classes


def _letters(type_str):
    return sum(int(c) for c in type_str.split(","))


def span_jobs(rng, h8, _pool):
    lo, hi = SPAN_BAND
    rows = [(t, h, calls) for t, (h, calls) in sorted(h8.items())
            if lo <= calls <= hi]
    types = [rng.choice(cls)[0] for cls in _twin_classes(rows)]
    return ([list(job) for job in SPAN_FIXED]
            + [["h", "--type", t, "--unsafe-n"] for t in types])


def _pooled(pool, kind, n):
    """(seed, work) of the pooled jobs of one kind."""
    if kind == "mainid":
        return [tuple(row) for row in pool["mainid"]]
    return [(seed, work) for n_, k, seed, work, _ in pool["verify"]
            if n_ == n and k == LOOP_SAMPLES]


def _loop_job(kind, n, seed):
    if kind == "mainid":
        return ["mainid", "--mode", "loop", "--samples", "1", "--seed", str(seed)]
    return ["verify", "--suite", "cml3", "--n", str(n),
            "--samples", str(LOOP_SAMPLES), "--seed", str(seed)]


def loop_jobs(rng, _h8, pool):
    jobs = []
    for kind, n, target in LOOP_HEAVY:
        seed = min(_pooled(pool, kind, n),
                   key=lambda e: (abs(e[1] - target), e[0]))[0]
        jobs.append(_loop_job(kind, n, seed))
    for kind, n, cap, count in LOOP_LIGHT:
        light = sorted(seed for seed, work in _pooled(pool, kind, n)
                       if work <= cap)
        jobs += [_loop_job(kind, n, seed) for seed in rng.sample(light, count)]
    return jobs


def certify_jobs(rng, _h8, _pool):
    jobs = []
    for count, args in CERTIFY_MIX:
        for _ in range(count):
            seed = str(rng.randrange(1_000_000))
            jobs.append([a.replace("{seed}", seed) for a in args])
    return jobs


BUILDERS = {"span": span_jobs, "loop": loop_jobs, "certify": certify_jobs}


def job_list(workload: str, seed: int, h8, pool):
    """The workload's job list for ``seed``, in a seed-shuffled order."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = BUILDERS[workload](rng, h8, pool)
    rng.shuffle(jobs)
    return jobs


def load_inputs():
    return load_h8(), load_loop_pool()
