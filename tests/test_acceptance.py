"""Acceptance suite: one test per criterion, exact values, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  All arithmetic is exact over GF(3), so every tolerance is
zero; the runtime budgets hold on the package's one kernel path, which is
pure Python plus numpy.
"""

import json
import os
import subprocess
import sys
import time

from cml3.gf3 import rank_and_kernel
from cml3.loop import (
    mainid_check,
    malbos_verify,
    report_passed,
    tah_witness,
    verify_cml3,
    verify_identities,
)
from cml3.twowords import (
    FIVE_TWO_WORDS,
    catalog_order,
    pattern_predicates_case7,
    regular_words,
    word_str,
    word_values,
)
from cml3.words import c_n_of_type, dim_Cn, enumerate_types, h_of_type

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _announce(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1: dimension table ------------------------------------------

DIM_TABLE = {3: 4, 4: 12, 5: 49, 6: 220, 7: 1014}


def test_criterion_1_dimensions():
    # through the CLI, cold process per n
    got = {}
    elapsed = {}
    for n in sorted(DIM_TABLE):
        t0 = time.time()
        doc = json.loads(_cli("dim", "--n", str(n), "--json"))
        elapsed[n] = time.time() - t0
        got[n] = doc["results"]["total"]
    values_ok = got == DIM_TABLE
    small_ok = all(elapsed[n] < 30 for n in (3, 4, 5, 6))
    big_ok = elapsed[7] < 600
    assert dim_Cn(7).total == 1014  # library path agrees
    _announce(
        1,
        values_ok and small_ok and big_ok,
        f"dims {got} " + " ".join(f"t{n}={elapsed[n]:.1f}s" for n in sorted(elapsed)),
    )


# -- criterion 2: h table ----------------------------------------------------

H_TABLE = {
    (3,): 1, (3, 1): 1, (3, 2): 1, (3, 3): 1, (3, 4): 1, (6, 0, 1): 1,
    (5,): 4, (5, 1): 5, (5, 2): 6, (7,): 20,
}


def test_criterion_2_h_table():
    t0 = time.time()
    got = {counts: h_of_type(counts) for counts in H_TABLE}
    elapsed = time.time() - t0
    _announce(
        2,
        got == H_TABLE and elapsed < 60,
        f"h-table exact ({elapsed:.1f}s)",
    )


# -- criterion 3: per-type counts over seven generators ---------------------

C7_TABLE = {
    "1": 7, "3": 35, "5": 84, "3,1": 140, "7": 20, "5,1": 210,
    "3,2": 210, "3,3": 140, "6,0,1": 7, "5,2": 126, "3,4": 35,
}


def test_criterion_3_c7_and_types():
    types = enumerate_types(7)
    got = {str(tv): c_n_of_type(7, tv) for tv in types}
    cli_types = json.loads(_cli("types", "--n", "7", "--json"))["results"]["types"]
    _announce(
        3,
        got == C7_TABLE and set(cli_types) == set(C7_TABLE),
        f"11 types, counts {sorted(got.values(), reverse=True)}",
    )


# -- criterion 4: the unique relation among the seven words -----------------

def test_criterion_4_v_kernel_and_mainid():
    rows = word_values(FIVE_TWO_WORDS)
    res = rank_and_kernel(rows)
    kernel_ok = res.rank == 6 and res.kernel_basis == ((1, 1, 0, 2, 1, 1, 1),)
    algebra_doc = json.loads(_cli("mainid", "--mode", "algebra", "--json"))
    algebra_ok = algebra_doc["pass"] and report_passed(mainid_check("algebra"))
    loop_report = mainid_check("loop", samples=100, seed=0)
    loop_ok = report_passed(loop_report)
    count = int(loop_report[0]["instantiation"].split()[0])
    _announce(
        4,
        kernel_ok and algebra_ok and loop_ok and count == 101,
        f"rank={res.rank} kernel={res.kernel_basis} loop instantiations={count}",
    )


# -- criterion 5: the thrice-repeated-argument witness -----------------------

def test_criterion_5_tah():
    t0 = time.time()
    witness = tah_witness()
    elapsed = time.time() - t0
    doc = json.loads(_cli("tah", "--json"))
    _announce(
        5,
        bool(witness) and doc["results"]["nonzero"] and elapsed < 1.0,
        f"nonzero with {len(witness.raw())} terms ({elapsed:.2f}s)",
    )


# -- criterion 6: regular-word bounds ----------------------------------------

CASE7_NUMBERS = {1, 2, 3, 4, 7, 8, 9, 10, 13, 14, 15, 19, 21, 25,
                 31, 32, 33, 34, 38, 56}


def test_criterion_6_regular_words():
    t0 = time.time()
    r5 = regular_words("5")
    ok5 = {word_str(w) for w in r5.regular} == {"12.34", "13.24", "14.23", "23.14"}

    r51 = regular_words("5,1")
    ok51 = {word_str(w) for w in r51.regular} == {
        "12.35.45", "13.25.45", "14.25.35", "23.15.45", "15.23.45"
    }

    r7 = regular_words("7")
    cat = catalog_order(r7.universe)
    numbers = {i + 1 for i, w in enumerate(cat) if w in set(r7.regular)}
    ok7 = r7.bound == 20 and numbers == CASE7_NUMBERS
    regular7 = set(r7.regular)
    cross = all(
        (pattern_predicates_case7(w)[0] == "regular") == (w in regular7)
        for w in r7.universe
    )

    r52 = regular_words("5,2")
    ok52 = set(r52.regular) == set(FIVE_TWO_WORDS) and r52.bound == 7

    elapsed = time.time() - t0
    _announce(
        6,
        ok5 and ok51 and ok7 and cross and ok52 and elapsed < 60,
        f"bounds 4/5/20/7, span-predicate agreement, ({elapsed:.1f}s)",
    )


# -- criterion 7: identity suites --------------------------------------------

def test_criterion_7_identity_suites():
    t0 = time.time()
    r1 = verify_cml3(7, samples=500, seed=0)
    r2 = verify_identities(7, samples=500, seed=0)
    r3 = malbos_verify(7, samples=500, seed=0)
    elapsed = time.time() - t0
    all_ok = report_passed(r1) and report_passed(r2) and report_passed(r3)
    failures = [
        e["identity"] for r in (r1, r2, r3) for e in r if not e["pass"]
    ]
    _announce(
        7,
        all_ok and elapsed < 300,
        f"zero failures across {len(r1) + len(r2) + len(r3)} identities "
        f"({elapsed:.1f}s){'; failed: ' + str(failures) if failures else ''}",
    )


# -- criterion 8: byte-identical output across runs ---------------------------

DETERMINISM_COMMANDS = [
    ("dim", "--n", "5"),
    ("h", "--type", "5,2"),
    ("cn", "--n", "7", "--type", "5,2"),
    ("types", "--n", "6"),
    ("verify", "--suite", "cml3", "--n", "4", "--samples", "25"),
    ("verify", "--suite", "identities", "--n", "5", "--samples", "25"),
    ("verify", "--suite", "malbos", "--n", "6", "--samples", "25"),
    ("tah",),
    ("mainid", "--mode", "algebra"),
    ("mainid", "--mode", "loop", "--samples", "3"),
    ("regular", "--case", "5"),
    ("regular", "--case", "5,1"),
    ("regular", "--case", "7", "--cross-check"),
    ("regular", "--case", "5,2"),
]


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "cml3.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, (args, proc.stderr)
    return proc.stdout


def test_criterion_8_determinism():
    mismatches = []
    for cmd in DETERMINISM_COMMANDS:
        first = _cli(*cmd, "--json")
        again = _cli(*cmd, "--json")
        if first != again:
            mismatches.append(cmd)
    _announce(
        8,
        not mismatches,
        f"{len(DETERMINISM_COMMANDS)} commands byte-identical"
        + (f"; mismatched: {mismatches}" if mismatches else ""),
    )
