"""Exact expected results for every benchmark job.

Each job's ``--json`` output is compared with the complete ``results``
object built here, and ``pass`` must be true.  Sources of the values:

* the paper's tables, as pinned by the acceptance suite: dimension totals
  4/12/49/220/1014, the ``h`` table, the ``c_7`` table, regular-word bounds
  4/5/20/7, the conditional bound 6 of case (5,2), the seven (5,2) words and
  the twenty case-7 words, the thrice-repeated-argument witness;
* instantiation counts, which follow from the suite definitions;
* values with no paper source, pinned once from the package as it stood
  when the benchmark was defined: ``h`` of every candidate type on eight
  generators (``data/h8.json``, checked on load against the c_8 total 4760)
  and the number of distinct elements in each pooled ``verify --suite cml3``
  job (``data/loop_pool.json``).
"""

from __future__ import annotations

import json
import math
import os

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

DIM_TOTALS = {3: 4, 4: 12, 5: 49, 6: 220, 7: 1014}
C8_TOTAL = 4760

H_PAPER = {
    "3": 1, "3,1": 1, "3,2": 1, "3,3": 1, "3,4": 1, "6,0,1": 1,
    "5": 4, "5,1": 5, "5,2": 6, "7": 20,
}

# dim --n 7 in candidate order: (type, h, c)
DIM7_PER_TYPE = (
    ("1", 1, 7), ("3", 1, 35), ("3,1", 1, 140), ("5", 4, 84),
    ("3,2", 1, 210), ("5,1", 5, 210), ("7", 20, 20), ("3,3", 1, 140),
    ("5,2", 6, 126), ("6,0,1", 1, 7), ("3,4", 1, 35),
)

REGULAR = {
    "7": {
        "case": "7", "set": "Z1", "universe": 90, "irregular": 70,
        "bound": 20,
        "regular": [
            "12.34.56", "12.35.46", "12.45.36", "12.36.45", "13.24.56",
            "13.25.46", "13.45.26", "13.26.45", "23.14.56", "23.15.46",
            "23.45.16", "23.16.45", "14.23.56", "14.25.36", "14.26.35",
            "24.15.36", "34.15.26", "15.23.46", "15.26.34", "16.23.45",
        ],
    },
    "5,2": {
        "case": "5,2", "set": "Z2", "universe": 468, "irregular": 461,
        "bound": 7, "conditional_bound": 6,
        "regular": [
            "12.35.46.56", "13.25.46.56", "23.15.46.56", "14.25.36.56",
            "15.23.46.56", "15.26.34.56", "16.23.45.56",
        ],
    },
}

TAH_ELEMENT = (
    "1*[0.1.2.3.4.5.6.6(1).6(3)] + 1*[0.1.2.3.4.5(1).6.6(1).6(2)] + "
    "1*[0.1.2.3.4(1).5.6.6(1).6(2)] + 1*[0.1.2.3(1).4.5.6.6(1).6(2)] + "
    "1*[0.1.2(1).3.4.5.6.6(1).6(2)] + 1*[0.1(1).2.3.4.5.6.6(1).6(2)] + "
    "1*[0(1).1.2.3.4.5.6.6(1).6(2)]"
)

# identity suite: (identity, arity); above EXHAUSTIVE_CAP tuples it samples
IDENTITY_ARITIES = (
    ("chain_skew_xyz", 4), ("chain_slot_symmetry", 5), ("chain_skew_outer", 5),
    ("associator_rewrite", 5), ("triple_slot_vanishes", 5),
    ("triple_slot_linearized", 7), ("associator_derivation_shortcut", 3),
)
EXHAUSTIVE_CAP = 10_000
# relation schemas checked by relation_schema_soundness; each has arity >= 5,
# so for n = 7 every schema is sampled
SCHEMA_COUNT = 8


def _options(args):
    """{flag: value} of a CLI argument list; bare flags map to True."""
    opts = {}
    for i, token in enumerate(args):
        if token.startswith("--"):
            value = args[i + 1] if i + 1 < len(args) else True
            opts[token] = True if str(value).startswith("--") else value
    return opts


def _checks(entries):
    return [{"identity": name, "instantiation": f"{count} instantiation(s)",
             "pass": True} for name, count in entries]


def _partitions(m, max_part):
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def candidate_types(n):
    """Type strings of every odd-weight type with at most n letters.

    Written out here rather than imported from cml3, so that the check of
    the pinned table does not rest on the code under test.
    """
    out = []
    for m in range(1, 2 * n, 2):
        for parts in _partitions(m, m):
            if len(parts) <= n:
                counts = [0] * parts[0]
                for p in parts:
                    counts[p - 1] += 1
                out.append(",".join(map(str, counts)))
    return out


def c_n(n, type_str, h):
    counts = [int(c) for c in type_str.split(",")]
    letters = sum(counts)
    if letters > n or h == 0:
        return 0
    denom = math.prod(math.factorial(c) for c in counts)
    return math.factorial(n) // (denom * math.factorial(n - letters)) * h


def load_h8(path=os.path.join(DATA, "h8.json")):
    """Pinned n = 8 table {type: (h, assoc_step calls)}, checked on load."""
    with open(path) as fh:
        rows = json.load(fh)["types"]
    table = {t: (h, calls) for t, h, calls in rows}
    if sorted(table) != sorted(candidate_types(8)):
        raise ValueError("h8 table does not list the 342 candidate types")
    for t, h in H_PAPER.items():
        if table[t][0] != h:
            raise ValueError(f"h8 table disagrees with the paper at {t}")
    total = sum(c_n(8, t, h) for t, (h, _) in table.items())
    if total != C8_TOTAL:
        raise ValueError(f"h8 table gives c_8 total {total}, not {C8_TOTAL}")
    return table


class Oracle:
    """Builds the expected ``results`` of a job from its arguments."""

    def __init__(self, h8, loop_pool):
        self.h = {t: h for t, (h, _) in h8.items()}
        self.exp3 = {(n, k, seed): count
                     for n, k, seed, _, count in loop_pool["verify"]}

    def expected(self, args):
        opts = _options(args)
        command = args[0]
        if command == "dim":
            n = int(opts["--n"])
            if n != 7:
                raise ValueError("only dim --n 7 has a pinned per-type table")
            per_type = [{"type": t, "h": h, "c": c} for t, h, c in DIM7_PER_TYPE]
            return {"n": 7, "per_type": per_type, "total": DIM_TOTALS[7]}
        if command == "h":
            t = opts["--type"]
            return {"type": t, "h": self.h[t]}
        if command == "regular":
            return dict(REGULAR[opts["--case"]],
                        **({"cross_check": "agree"}
                           if opts.get("--cross-check") else {}))
        if command == "tah":
            return {"nonzero": True, "terms": 7, "element": TAH_ELEMENT}
        if command == "mainid":
            mode = opts["--mode"]
            if mode == "algebra":
                checks = [("mainid_algebra_combination", 1)]
            else:
                checks = [("mainid_loop_product", 1 + int(opts["--samples"]))]
            return {"mode": mode, "checks": _checks(checks)}
        if command == "verify":
            return {"suite": opts["--suite"], "checks": self._verify(opts)}
        raise ValueError(f"no expected results for {command!r}")

    def _verify(self, opts):
        suite, n = opts["--suite"], int(opts["--n"])
        k, seed = int(opts["--samples"]), int(opts["--seed"])
        if suite == "cml3":
            triples = n ** 3 + k
            return _checks([
                ("commutativity", triples), ("moufang", triples),
                ("exponent3", self.exp3[(n, k, seed)]),
                ("associator_exponent3", triples),
            ])
        if suite == "identities":
            if n != 7:
                raise ValueError("identity counts are pinned for n = 7")
            counts = [(name, n ** a if n ** a <= EXHAUSTIVE_CAP else k)
                      for name, a in IDENTITY_ARITIES]
            counts.append(("relation_schema_soundness", SCHEMA_COUNT * max(1, k)))
            return _checks(counts)
        if suite == "malbos":
            pairs = k + 1
            return _checks([
                ("malbos_commutativity", (pairs - 1) // 2),
                ("malbos_moufang", (pairs - 2) // 3),
                ("malbos_exponent3", pairs),
                ("malbos_identity_element", min(10, pairs)),
            ])
        raise ValueError(f"unknown suite {suite!r}")

    def check(self, args, returncode, stdout):
        """None when the job's output is exactly right, else the reason."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        if doc.get("pass") is not True:
            return "pass is not true"
        expected = self.expected(args)
        if doc.get("results") != expected:
            return f"results differ from expected {json.dumps(expected)[:200]}"
        return None
