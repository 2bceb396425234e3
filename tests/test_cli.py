import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "cml3.cli", *args],
        capture_output=True,
        text=True,
        env=env,
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
    for args in (("h", "--type", "9,9"), ("cn", "--n", "9", "--type", "9")):
        proc = run_cli(*args, check=False)
        _one_line_usage_error(proc)
        assert "--unsafe-n" in proc.stderr, args


def test_cn_command():
    assert run_cli("cn", "--n", "7", "--type", "5,2").stdout == "type=5,2 n=7 c=126\n"
    # more letters than generators short-circuits to zero, no cap error
    assert run_cli("cn", "--n", "7", "--type", "9,9").stdout == "type=9,9 n=7 c=0\n"


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


def _one_line_usage_error(proc):
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("cml3: ")


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
    proc = run_cli(
        "h", "--type", "5,2", "--expect", os.path.join(GOLDEN, "h_5_2.txt")
    )
    assert proc.returncode == 0
    proc = run_cli(
        "dim", "--n", "5", "--json",
        "--expect", os.path.join(GOLDEN, "dim_n5.json"),
    )
    assert proc.returncode == 0


def test_json_deterministic_across_runs():
    for args in (
        ("dim", "--n", "5"),
        ("types", "--n", "6"),
        ("verify", "--suite", "identities", "--n", "5", "--samples", "20"),
    ):
        a = run_cli(*args, "--json").stdout
        b = run_cli(*args, "--json").stdout
        assert a == b, args
