import importlib.util
import json
import os
import subprocess
import sys

from cml3 import _kernel

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "cml3.cli", *args],
        capture_output=True,
        text=True,
        env=_env(),
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli {args} failed rc={proc.returncode}: {proc.stderr}"
        )
    return proc


def test_dim_text():
    out = run_cli("dim", "--n", "4").stdout
    assert "total=12" in out
    assert "type=3,1 h=1 c=4" in out


def test_dim_json_schema():
    doc = json.loads(run_cli("dim", "--n", "4", "--json").stdout)
    assert doc["command"] == "dim"
    assert doc["pass"] is True
    assert doc["results"]["total"] == 12
    assert {row["type"] for row in doc["results"]["per_type"]} == {"1", "3", "3,1"}
    assert doc["config"]["n"] == 4


def test_h_command():
    out = run_cli("h", "--type", "5,2").stdout
    assert out == "type=5,2 h=6\n"


def test_h_even_weight_note():
    out = run_cli("h", "--type", "2").stdout
    assert "h=0" in out and "note=" in out


def test_h_over_cap_is_usage_error():
    # 1,7 is zero by the class bound, yet stays past the cap like any type
    for args in (("h", "--type", "9,9"), ("cn", "--n", "9", "--type", "9"),
                 ("h", "--type", "1,7"), ("cn", "--n", "8", "--type", "1,7"),
                 ("dim", "--n", "8"), ("types", "--n", "8"),
                 ("verify", "--suite", "cml3", "--n", "8")):
        proc = run_cli(*args, check=False)
        _one_line_usage_error(proc)
        assert "--unsafe-n" in proc.stderr, args


def test_past_cap_warns_in_one_line():
    # every command that takes --unsafe-n says so when a run goes past the
    # cap, naming the cap of its scope: a type's letters and weight, or n
    for args, bound in (
            (("h", "--type", "7,1"), "letters <= 7, weight <= 13"),
            (("h", "--type", "1,7"), "letters <= 7, weight <= 13"),
            (("cn", "--n", "8", "--type", "7,1"),
             "letters <= 7, weight <= 13"),
            (("verify", "--suite", "identities", "--n", "8",
              "--samples", "2"), "n <= 7"),
            (("dim", "--n", "8"), "n <= 7")):
        proc = run_cli(*args, "--unsafe-n")
        assert len(proc.stderr.splitlines()) == 1, (args, proc.stderr)
        assert proc.stderr == (f"cml3: past the verified range ({bound}); "
                               "the result is unverified\n"), args
    assert proc.stdout.endswith("total=4760\n")  # dim --n 8, run last


def test_unsafe_n_only_where_a_cap_applies():
    for args in (("tah",), ("mainid", "--mode", "algebra"),
                 ("regular", "--case", "7")):
        proc = run_cli(*args, "--unsafe-n", check=False)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args


def test_mainid_algebra_rejects_samples_and_seed():
    # the algebra check draws nothing, so it takes neither flag
    for flags in (("--samples", "5"), ("--seed", "9"), ("--samples", "100"),
                  ("--samples", "5", "--seed", "9", "--json")):
        proc = run_cli("mainid", "--mode", "algebra", *flags, check=False)
        _one_line_usage_error(proc)
        assert proc.stdout == "", flags
    config = json.loads(run_cli("mainid", "--mode", "algebra",
                                "--json").stdout)["config"]
    assert config == {"command": "mainid", "mode": "algebra"}


def test_config_names_samples_and_seed_only_where_drawn():
    # a command that draws nothing claims no samples and no seed
    for args in (("dim", "--n", "2"), ("h", "--type", "3"),
                 ("cn", "--n", "2", "--type", "3"), ("types", "--n", "2"),
                 ("tah",), ("regular", "--case", "5")):
        config = json.loads(run_cli(*args, "--json").stdout)["config"]
        assert "samples" not in config and "seed" not in config, args
    for args, drawn in (
            (("verify", "--suite", "malbos", "--n", "2"), (100, 0)),
            (("verify", "--suite", "cml3", "--n", "1", "--samples", "0",
              "--seed", "4"), (0, 4)),
            (("mainid", "--mode", "loop", "--samples", "0"), (0, 0))):
        config = json.loads(run_cli(*args, "--json").stdout)["config"]
        assert (config["samples"], config["seed"]) == drawn, args


def test_words_past_the_top_derivation_order_are_rejected():
    # one line and exit 2 at once: no unverified warning, no enumeration
    for args in (("h", "--type", "33"), ("cn", "--n", "33", "--type", "33"),
                 ("dim", "--n", "18"), ("types", "--n", "18")):
        proc = run_cli(*args, "--unsafe-n", check=False)
        _one_line_usage_error(proc)
        assert "derivation steps" in proc.stderr, args
        assert proc.stdout == "", args


def test_verify_past_the_generator_limit_is_rejected():
    # one line and exit 2 before the unverified warning: a symbol holds
    # generators 0..4095
    for suite in ("cml3", "identities"):
        proc = run_cli("verify", "--suite", suite, "--n", "4097",
                       "--unsafe-n", check=False)
        _one_line_usage_error(proc)
        assert "4,096 generators" in proc.stderr, suite
        assert proc.stdout == "", suite
    proc = run_cli("verify", "--suite", "identities", "--n", "4096",
                   "--unsafe-n", "--samples", "2")
    assert proc.stdout.splitlines()[-1] == "pass=true"


def test_cml3_generator_half_at_the_generator_limit():
    # the generator triples are checked once per orbit, so n = 4096 is
    # quick; the sampled loop words are not, hence no samples
    proc = run_cli("verify", "--suite", "cml3", "--n", "4096",
                   "--samples", "0", "--unsafe-n")
    assert "identity=commutativity instantiations=68719476736 pass=true" in (
        proc.stdout.splitlines())
    assert proc.stdout.splitlines()[-1] == "pass=true"


def test_identities_past_64_generators():
    proc = run_cli("verify", "--suite", "identities", "--n", "70",
                   "--unsafe-n", "--samples", "2")
    assert proc.stdout.splitlines()[-1] == "pass=true"


def test_cross_check_outside_case_7_is_usage_error():
    proc = run_cli("regular", "--case", "5,2", "--cross-check", check=False)
    _one_line_usage_error(proc)
    assert proc.stdout == ""


_LOGGING_PROBE = """
import contextlib, io, sys
import cml3.cli
loaded = ["logging" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert cml3.cli.main(["h", "--type", "7,1", "--unsafe-n"]) == 0
loaded.append("logging" in sys.modules)
print(loaded)
"""


def test_cli_does_not_load_logging():
    proc = subprocess.run([sys.executable, "-c", _LOGGING_PROBE],
                          capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False]\n"


def test_cn_command():
    assert run_cli("cn", "--n", "7", "--type", "5,2").stdout == "type=5,2 n=7 c=126\n"
    # more letters than generators short-circuits to zero, no cap error
    assert run_cli("cn", "--n", "7", "--type", "9,9").stdout == "type=9,9 n=7 c=0\n"
    # the multinomial takes no n!: a million generators count at once
    assert run_cli("cn", "--n", "1000000", "--type", "3").stdout == (
        "type=3 n=1000000 c=166666166667000000\n")


def test_types_command():
    out = run_cli("types", "--n", "3").stdout
    assert out == "type=1\ntype=3\n"


def test_tah_command():
    doc = json.loads(run_cli("tah", "--json").stdout)
    assert doc["pass"] is True
    assert doc["results"]["nonzero"] is True
    out = run_cli("tah", "--dump").stdout
    assert "element=" in out


def test_regular_list():
    out = run_cli("regular", "--case", "7", "--list").stdout.splitlines()
    assert len(out) == 20  # one canonical word per line
    assert "12.34.56" in out
    summary = run_cli("regular", "--case", "7").stdout.splitlines()
    assert summary[0].startswith("case=7 set=Z1 universe=90 bound=20")


def test_regular_cross_check():
    doc = json.loads(run_cli("regular", "--case", "7", "--cross-check", "--json").stdout)
    assert doc["results"]["cross_check"] == "agree"
    assert doc["pass"] is True


def test_regular_52_reports_both_bounds():
    doc = json.loads(run_cli("regular", "--case", "5,2", "--json").stdout)
    assert doc["results"]["bound"] == 7
    assert doc["results"]["conditional_bound"] == 6


def test_verify_exit_codes_and_csv():
    proc = run_cli("verify", "--suite", "cml3", "--n", "2", "--samples", "5")
    assert proc.returncode == 0
    csv = run_cli(
        "verify", "--suite", "cml3", "--n", "2", "--samples", "5", "--csv"
    ).stdout
    assert csv.splitlines()[0] == "identity,instantiations,pass"


def test_mainid_loop_small():
    doc = json.loads(
        run_cli("mainid", "--mode", "loop", "--samples", "1", "--json").stdout
    )
    assert doc["pass"] is True


def test_usage_error_exit_code():
    proc = run_cli("dim", check=False)
    assert proc.returncode == 2
    proc = run_cli("regular", "--case", "6", check=False)
    assert proc.returncode == 2


def test_expect_mismatch(tmp_path):
    golden = tmp_path / "golden.txt"
    golden.write_text("type=5,2 h=6\n")
    proc = run_cli("h", "--type", "5,2", "--expect", str(golden))
    assert proc.returncode == 0
    golden.write_text("type=5,2 h=7\n")
    proc = run_cli("h", "--type", "5,2", "--expect", str(golden), check=False)
    assert proc.returncode == 1


def test_malbos_reports_effective_n():
    args = ("verify", "--suite", "malbos", "--samples", "20", "--json")
    capped = run_cli(*args, "--n", "7")
    at_cap = run_cli(*args, "--n", "6")
    # the suite runs on 6 generators either way, and --n 7 says so
    assert json.loads(capped.stdout)["config"]["n"] == 6
    assert capped.stdout == at_cap.stdout
    assert len(capped.stderr.splitlines()) == 1
    assert capped.stderr.startswith("cml3: ") and "6" in capped.stderr
    assert at_cap.stderr == ""
    below = run_cli(*args, "--n", "4")
    assert json.loads(below.stdout)["config"]["n"] == 4
    assert below.stderr == ""


def test_malbos_past_the_cap_runs_inside_the_verified_range():
    args = ("verify", "--suite", "malbos", "--samples", "20", "--json")
    proc = run_cli(*args, "--n", "8", "--unsafe-n")
    # clamped to 6 generators, inside the cap: no unverified warning
    assert json.loads(proc.stdout)["config"]["n"] == 6
    assert proc.stdout == run_cli(*args, "--n", "6").stdout
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "unverified" not in proc.stderr
    assert "malbos" in proc.stderr
    # the requested n is still held to the cap
    proc = run_cli(*args, "--n", "8", check=False)
    _one_line_usage_error(proc)
    assert "--unsafe-n" in proc.stderr


def _one_line_usage_error(proc):
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("cml3: ")


def test_all_zero_type_is_usage_error():
    # every part 0 leaves no letter, as ",," does
    for args in (("h", "--type", "0"), ("h", "--type", "0,0", "--json"),
                 ("h", "--type", ",,"), ("cn", "--n", "3", "--type", "0")):
        proc = run_cli(*args, check=False)
        _one_line_usage_error(proc)
        assert proc.stderr == (
            f"cml3: empty type vector: {args[args.index('--type') + 1]!r}\n")
        assert proc.stdout == "", args


def test_empty_type_part_is_usage_error():
    # parts count by position: ",5" is not "5", and "1,,2" is not "1,2"
    for args in (("h", "--type", ",5"), ("h", "--type", "1,,2"),
                 ("cn", "--n", "7", "--type", "5,2,")):
        proc = run_cli(*args, check=False)
        _one_line_usage_error(proc)
        assert proc.stderr == (
            "cml3: empty part in type vector: "
            f"{args[args.index('--type') + 1]!r}\n")
        assert proc.stdout == "", args


def test_bad_type_part_is_usage_error():
    # a part is ASCII digits after stripping spaces; int() alone would
    # read "1_0" as 10 and "+3" as 3
    for args in (("h", "--type", "1_0"), ("h", "--type", "+3"),
                 ("h", "--type", "3.0"), ("h", "--type", "1,a"),
                 ("h", "--type", "\u0663"), ("cn", "--n", "7", "--type", "5,-2")):
        proc = run_cli(*args, check=False)
        _one_line_usage_error(proc)
        assert proc.stderr == (
            "cml3: bad part in type vector: "
            f"{args[args.index('--type') + 1]!r}\n")
        assert proc.stdout == "", args
    # spaces around a part are still stripped
    assert run_cli("h", "--type", " 3").stdout == "type=3 h=1\n"


def test_expect_missing_file_is_usage_error(tmp_path):
    proc = run_cli("h", "--type", "5,2", "--expect", str(tmp_path / "nope.txt"),
                   check=False)
    _one_line_usage_error(proc)


def test_out_into_missing_directory_is_usage_error(tmp_path):
    proc = run_cli("dim", "--n", "3", "--out", str(tmp_path / "no" / "out.txt"),
                   check=False)
    _one_line_usage_error(proc)


def test_negative_samples_is_usage_error():
    proc = run_cli("verify", "--suite", "cml3", "--n", "2", "--samples", "-5",
                   check=False)
    _one_line_usage_error(proc)


def test_vacuous_samples_are_usage_errors():
    # each would check some identity on no instantiation at all
    for args in (
        ("--suite", "identities", "--n", "7", "--samples", "0"),
        ("--suite", "malbos", "--samples", "0"),
        ("--suite", "malbos", "--samples", "1"),
        ("--suite", "malbos", "--n", "3", "--samples", "1", "--json"),
    ):
        proc = run_cli("verify", *args, check=False)
        _one_line_usage_error(proc)
        assert "samples" in proc.stderr, args
        assert proc.stdout == "", args
    # generator instantiations still run with no samples
    for args in (("verify", "--suite", "cml3", "--n", "2"),
                 ("verify", "--suite", "identities", "--n", "3"),
                 ("mainid", "--mode", "loop")):
        proc = run_cli(*args, "--samples", "0")
        assert proc.stdout.endswith("pass=true\n"), args


def test_n_below_one_is_usage_error():
    for args in (
        ("verify", "--suite", "cml3", "--samples", "5"),
        ("verify", "--suite", "identities", "--samples", "5"),
        ("verify", "--suite", "malbos", "--samples", "5"),
        ("cn", "--type", "1"),
        ("dim",),
        ("types",),
    ):
        for n in ("0", "-1"):
            proc = run_cli(*args, "--n", n, check=False)
            _one_line_usage_error(proc)
            assert proc.stderr == "cml3: n must be at least 1\n", args
            assert proc.stdout == "", args


# Runs commands in one interpreter and reports, after the import and after
# each command, whether numpy is loaded; then makes twisted products of the
# given pair counts, each of x * y with |x| = 50, reporting after each.  All
# the monomials hold symbol 0, so every pair collides and a product of a
# million pairs takes the join a fraction of a second.
_NUMPY_PROBE = """
import contextlib, io, itertools, json, sys
from cml3 import _kernel, cli
from cml3._kernel import pack_sym

loaded = ["numpy" in sys.modules]
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0, args
    loaded.append("numpy" in sys.modules)
syms = [pack_sym(b, d) for b in range(8) for d in range(8)]
monomials = [1 | sum(1 << s for s in t)
             for t in itertools.combinations(syms[1:], 3)]
x = dict.fromkeys(monomials[:50], 1)
for pairs in json.loads(sys.argv[2]):
    assert pairs % 50 == 0 and pairs > _kernel.MASK_MIN_PAIRS
    _kernel.cmul_terms(x, dict.fromkeys(monomials[:pairs // 50], 2))
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def _numpy_loaded(commands, pairs=()):
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands),
         json.dumps(pairs)],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_loads_only_for_large_products():
    # GF(3) elimination and everything below runs on Python ints; numpy
    # is imported by the bitmask kernel alone, once the products above
    # MASK_MIN_PAIRS reach MASK_LOAD_PAIRS pairs in the process
    commands = [
        ["h", "--type", "5,2"],
        ["dim", "--n", "5"],
        ["regular", "--case", "5,2"],
        ["tah"],
        ["mainid", "--mode", "algebra"],
        ["verify", "--suite", "identities", "--n", "7", "--samples", "200"],
        ["verify", "--suite", "malbos", "--n", "6", "--samples", "300"],
        # 23,877 pairs in products above the cut
        ["verify", "--suite", "cml3", "--n", "7", "--samples", "6",
         "--seed", "30"],
        # about 5.0M of them
        ["mainid", "--mode", "loop", "--samples", "1", "--seed", "152"],
    ]
    assert _numpy_loaded(commands) == [False] * (len(commands) + 1)
    # in a new process: products of a million pairs at most (y holds up to
    # 39,711 monomials) bring the tally just under the budget and stay on
    # the join, or to it and load the numpy kernel
    budget = _kernel.MASK_LOAD_PAIRS
    chunks = [1_000_000] * ((budget - 1) // 1_000_000)
    rest = budget - sum(chunks)
    assert rest - 50 > _kernel.MASK_MIN_PAIRS
    assert _numpy_loaded([], chunks + [rest - 50]) == [False] * (len(chunks) + 2)
    assert _numpy_loaded([], chunks + [rest]) == [False] * (len(chunks) + 1) + [True]


def test_join_loads_only_for_products_above_its_cut():
    # dim, h and the certify commands make no product above
    # JOIN_MIN_PAIRS, so they compile nothing new
    commands = [
        ["h", "--type", "5,2"],
        ["dim", "--n", "5"],
        ["regular", "--case", "5,2"],
        ["tah", "--dump"],
        ["mainid", "--mode", "algebra"],
        ["verify", "--suite", "identities", "--n", "7", "--samples", "1000"],
        ["verify", "--suite", "malbos", "--n", "6", "--samples", "300"],
        ["verify", "--suite", "cml3", "--n", "7", "--samples", "6",
         "--seed", "30"],
    ]
    assert _modules_loaded(commands, {}, ["cml3._join"]) == (
        [[]] * 8 + [["cml3._join"], "miss"])


# Reports which of the given modules are loaded after importing cml3.cli and
# after each command, all in one interpreter; then checks the package root:
# its lazy public names against their submodules, star import, and a miss.
_MODULES_PROBE = """
import contextlib, io, json, sys
from cml3 import cli

def loaded():
    return [m for m in json.loads(sys.argv[3]) if m in sys.modules]

out = [loaded()]
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0, args
    out.append(loaded())

import importlib
import cml3
names = json.loads(sys.argv[2])
for name, module in names.items():
    assert getattr(cml3, name) is getattr(
        importlib.import_module("cml3." + module), name), name
    assert name in dir(cml3), name
if names:
    star = {}
    exec("from cml3 import *", star)
    star.pop("__builtins__")
    assert set(names) == set(star), sorted(star)
try:
    cml3.no_such_name
except AttributeError:
    out.append("miss")
print(json.dumps(out))
"""

# every public name of the package root, by the submodule that defines it
_PUBLIC = {
    "gf3": ["RankResult", "rank_and_kernel"],
    "grassmann": ["GElement", "derive", "elem_mul"],
    "loop": ["LoopElement", "NonInvertible", "lassoc", "linv", "lmul",
             "mainid_check", "malbos_mul", "malbos_verify", "tah_witness",
             "verify_cml3", "verify_identities"],
    "twisted": ["associator", "cmul", "cube"],
    "twowords": ["RegularReport", "RelationSchema", "normalize",
                 "pattern_predicates_case7", "regular_words"],
    "words": ["DimReport", "LeftNormedWord", "TypeVector", "Word3",
              "c_n_of_type", "dim_Cn", "enumerate_types", "eval_word",
              "h_of_type"],
}


def _modules_loaded(commands, names,
                    modules=("cml3.loop", "cml3.twowords"), flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _MODULES_PROBE, json.dumps(commands),
         json.dumps(names), json.dumps(modules)],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_word_span_commands_load_neither_loop_nor_twowords():
    commands = [
        ["h", "--type", "5,2"],
        ["dim", "--n", "5"],
        ["types", "--n", "5"],
        ["cn", "--n", "5", "--type", "3,1"],
        ["regular", "--case", "7"],
    ]
    names = {name: module for module, group in _PUBLIC.items()
             for name in group}
    assert _modules_loaded(commands, names) == (
        [[]] * 5 + [["cml3.twowords"], "miss"])


def test_word_span_commands_load_no_value_class_machinery():
    # no dataclasses (with inspect) and no cml3.grassmann; -S keeps site
    # hooks from importing typing first.  regular --case 5,2 evaluates its
    # words on term dicts, with no GElement
    commands = [
        ["h", "--type", "5,2"],
        ["dim", "--n", "5"],
        ["types", "--n", "5"],
        ["cn", "--n", "5", "--type", "3,1"],
        ["regular", "--case", "5,2"],
    ]
    modules = ["dataclasses", "inspect", "typing", "cml3.grassmann"]
    assert _modules_loaded(commands, {}, modules, ["-S"]) == (
        [[]] * 6 + ["miss"])


def test_no_command_loads_dataclasses():
    commands = [
        ["verify", "--suite", "cml3", "--n", "4", "--samples", "3"],
        ["verify", "--suite", "identities", "--n", "4", "--samples", "5"],
        ["verify", "--suite", "malbos", "--n", "4", "--samples", "20"],
        ["regular", "--case", "5,2"],
        ["tah"],
        ["mainid", "--mode", "algebra"],
        ["mainid", "--mode", "loop", "--samples", "1", "--seed", "2"],
    ]
    # -S, so that only the package and the standard library load modules
    modules = ["dataclasses", "inspect"]
    assert _modules_loaded(commands, {}, modules, ["-S"]) == (
        [[]] * 8 + ["miss"])


def test_loop_suites_leave_twowords_unloaded():
    # loop reads the relation schemas and the (5,2) relation from
    # cml3.schemas, so neither mainid mode loads twowords
    commands = [
        ["verify", "--suite", "cml3", "--n", "4", "--samples", "3"],
        ["verify", "--suite", "malbos", "--n", "4", "--samples", "20"],
        ["mainid", "--mode", "loop", "--samples", "1", "--seed", "2"],
        ["mainid", "--mode", "algebra"],
        ["tah"],
    ]
    assert _modules_loaded(commands, {}) == (
        [[]] + [["cml3.loop"]] * 5 + ["miss"])


def test_identity_suite_leaves_twowords_unloaded():
    # the identity suite reads the relation schemas from cml3.schemas
    modules = ["cml3.loop", "cml3.schemas", "cml3.twowords"]
    commands = [
        ["verify", "--suite", "cml3", "--n", "4", "--samples", "3"],
        ["verify", "--suite", "identities", "--n", "4", "--samples", "5"],
        ["regular", "--case", "7"],
    ]
    assert _modules_loaded(commands, {}, modules) == [
        [], ["cml3.loop"], ["cml3.loop", "cml3.schemas"], modules, "miss"]


def test_json_with_csv_is_usage_error():
    proc = run_cli("dim", "--n", "3", "--json", "--csv", check=False)
    _one_line_usage_error(proc)


def test_out_file(tmp_path):
    target = tmp_path / "out.json"
    proc = run_cli("dim", "--n", "3", "--json", "--out", str(target))
    assert proc.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["total"] == 4


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_golden_files():
    proc = run_cli(
        "regular", "--case", "7", "--list",
        "--expect", os.path.join(GOLDEN, "regular_case7.txt"),
    )
    assert proc.returncode == 0
    for name, args in (
        ("h_5_2.txt", ("h", "--type", "5,2")),
        ("tah_dump.txt", ("tah", "--dump")),
        ("regular_51.csv", ("regular", "--case", "5,1", "--csv")),
        ("malbos_n4_seed3.txt", ("verify", "--suite", "malbos", "--n", "4",
                                 "--samples", "20", "--seed", "3")),
        ("malbos_n1.csv", ("verify", "--suite", "malbos", "--n", "1",
                           "--samples", "2", "--csv")),
        ("cml3_n5_seed3.txt", ("verify", "--suite", "cml3", "--n", "5",
                               "--samples", "20", "--seed", "3")),
        ("mainid_algebra.csv", ("mainid", "--mode", "algebra", "--csv")),
    ):
        proc = run_cli(*args, "--expect", os.path.join(GOLDEN, name))
        assert proc.returncode == 0, name
    for name, args in (
        ("dim_n5.json", ("dim", "--n", "5")),
        ("dim_n7.json", ("dim", "--n", "7")),
        ("types_n7.json", ("types", "--n", "7")),
        ("regular_52.json", ("regular", "--case", "5,2")),
        ("identities_n7_seed5.json", ("verify", "--suite", "identities",
                                      "--n", "7", "--samples", "1000",
                                      "--seed", "5")),
        ("malbos_n6_seed5.json", ("verify", "--suite", "malbos", "--n", "6",
                                  "--samples", "3000", "--seed", "5")),
        # n 7 clamps to 6
        ("malbos_n7_seed1.json", ("verify", "--suite", "malbos", "--n", "7",
                                  "--samples", "3", "--seed", "1")),
        ("mainid_loop_seed3.json", ("mainid", "--mode", "loop",
                                    "--samples", "3", "--seed", "3")),
    ):
        proc = run_cli(*args, "--json", "--expect", os.path.join(GOLDEN, name))
        assert proc.returncode == 0, name


def test_json_deterministic_across_runs():
    # two hash seeds: no output may depend on the order of a set or dict
    for args in (
        ("dim", "--n", "5"),
        ("types", "--n", "6"),
        ("verify", "--suite", "identities", "--n", "5", "--samples", "20"),
        ("verify", "--suite", "malbos", "--n", "4", "--samples", "20"),
        ("mainid", "--mode", "loop", "--samples", "2"),
    ):
        a, b = (
            subprocess.run(
                [sys.executable, "-m", "cml3.cli", *args, "--json"],
                capture_output=True, text=True, check=True,
                env={**_env(), "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1")
        )
        assert a == b, args


TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_still_apply(tmp_path):
    # perfbench/tracer.py patches names on the package by attribute; a
    # traced run must print the untraced bytes and record the layers
    tracer = _tracer()
    for args, recorded in (
        (("h", "--type", "5,2", "--json"),
         {"cli.handler", "words.h", "kernel.assoc_step"}),
        # associator_rewrite's trees wedge and derive
        (("verify", "--suite", "identities", "--n", "4", "--samples", "5",
          "--json"), {"cli.handler", "kernel.assoc_step",
                      "kernel.wedge_terms", "kernel.derive_terms"}),
        # the pair model multiplies bit-planes, with no kernel op
        (("verify", "--suite", "malbos", "--n", "6", "--samples", "5",
          "--json"), {"cli.handler"}),
        (("regular", "--case", "5,2", "--json"),
         {"cli.handler", "twowords", "gf3@twowords", "gf3@gf3"}),
    ):
        spans = tmp_path / "spans"
        proc = subprocess.run(
            [sys.executable, TRACER, str(spans), "--", *args],
            capture_output=True, env=_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*args).stdout.encode(), args
        header, columns = tracer.read_spans(str(spans))
        names = header["names"]
        assert {"cli.handler", "words.h"} <= set(names)
        seen = {names[i] for i in columns[0]}
        assert recorded <= seen, args
        assert "malbos" not in args or not any(
            name.startswith("kernel.") for name in seen)
