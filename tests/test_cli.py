import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import even_weight_code
from cube_spectra import (
    Code,
    covered_fraction,
    finite_code_bound,
    first_lp_rate,
    lambda_ball_exact,
    wht,
    write_code_file,
)
from cube_spectra.cli import main


@pytest.fixture
def rep4(tmp_path):
    path = tmp_path / "rep4.txt"
    write_code_file(Code(4, (0b0000, 0b1111)), path)
    return str(path)


@pytest.fixture
def even4(tmp_path):
    path = tmp_path / "even4.txt"
    code = Code(4, tuple(x for x in range(16) if bin(x).count("1") % 2 == 0))
    write_code_file(code, path)
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_lambda_exact(capsys):
    rc, out = run_cli(capsys, "lambda", "--n", "4", "--r", "2", "--exact")
    assert rc == 0
    assert out == "# seed=0\nlambda 3.16227766\n"


def test_lambda_whole_cube(capsys):
    rc, out = run_cli(capsys, "lambda", "--n", "5", "--r", "5", "--exact")
    assert rc == 0 and "lambda 5\n" in out


def test_lambda_recurrence_profile(capsys):
    rc, out = run_cli(capsys, "lambda", "--n", "2", "--r", "1", "--recurrence")
    assert rc == 0
    assert "lambda 1.41421356\n" in out and "p 1\n" in out and "profile 1 " in out


def test_lambda_bruteforce_json(capsys):
    rc, out = run_cli(
        capsys, "lambda", "--n", "3", "--r", "1", "--bruteforce", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["lambda"] == pytest.approx(math.sqrt(3), abs=1e-7)
    assert data["seed"] == 0


def test_lambda_domain_error(capsys):
    rc, _ = run_cli(capsys, "lambda", "--n", "3", "--r", "7", "--exact")
    assert rc == 2


def test_bound_rate(capsys):
    rc, out = run_cli(capsys, "bound", "--delta", "0.1", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "rate"
    assert data["bound"] == pytest.approx(first_lp_rate(0.1), abs=1e-8)


def test_bound_rate_endpoint(capsys):
    rc, out = run_cli(capsys, "bound", "--delta", "0.5", "--format", "json")
    assert rc == 0 and json.loads(out)["bound"] == 0.0


def test_bound_finite(capsys):
    rc, out = run_cli(capsys, "bound", "--n", "7", "--d", "3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["r_star"] == 1 and data["bound"] == 56
    assert data["bound"] == finite_code_bound(7, 3).value


def test_bound_csv(capsys):
    rc, out = run_cli(capsys, "bound", "--n", "7", "--d", "3", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "n,d,r_star,lambda,bound"
    assert out.splitlines()[1] == "7,3,1,2.64575131,56"


def test_bound_csv_plotkin_branch(capsys):
    rc, out = run_cli(capsys, "bound", "--n", "7", "--d", "4", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1] == "7,4,0,0,8"


def test_bound_flag_conflicts(capsys):
    assert run_cli(capsys, "bound", "--delta", "0.1", "--n", "4", "--d", "2")[0] == 2
    assert run_cli(capsys, "bound", "--n", "4")[0] == 2
    assert run_cli(capsys, "bound", "--delta", "0.7")[0] == 2


def test_verify_all_linear(capsys):
    rc, out = run_cli(
        capsys, "verify", "--n", "4", "--all-linear", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["violations"] == 0 and data["codes"] == 66


def test_verify_single_code(capsys, even4):
    rc, out = run_cli(
        capsys, "verify", "--code", even4, "--r", "1", "--format", "json"
    )
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert {r["proposition"] for r in reports} == {"covering_bound", "size_bound"}
    cov = next(r for r in reports if r["proposition"] == "covering_bound")
    assert cov["covered"] >= 4


def test_verify_single_code_d_mismatch(capsys, even4):
    rc, _ = run_cli(capsys, "verify", "--code", even4, "--r", "1", "--d", "3")
    assert rc == 2


def test_verify_random(capsys):
    rc, out = run_cli(
        capsys, "verify", "--n", "5", "--random", "20", "--seed", "7",
        "--format", "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["seed"] == 7 and data["codes"] == 20 and data["violations"] == 0


def test_verify_usage_errors(capsys, even4):
    assert run_cli(capsys, "verify", "--n", "4")[0] == 2
    assert run_cli(capsys, "verify", "--code", even4)[0] == 2


def test_wht_full_cube(capsys, tmp_path):
    path = tmp_path / "full2.txt"
    write_code_file(Code(2, (0, 1, 2, 3)), path)
    rc, out = run_cli(capsys, "wht", "--code", str(path))
    assert rc == 0
    assert out == "# seed=0\n0 1\n1 0\n2 0\n3 0\n"


def test_wht_matches_api(capsys, rep4):
    rc, out = run_cli(capsys, "wht", "--code", rep4, "--format", "json")
    assert rc == 0
    data = json.loads(out)
    want = wht(Code(4, (0, 15)).indicator()).values
    assert data["values"] == pytest.approx(want.tolist(), abs=1e-9)


def test_wht_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("01\n0111\n")
    rc, _ = run_cli(capsys, "wht", "--code", str(bad))
    assert rc == 2


def test_cover(capsys, rep4):
    rc, out = run_cli(capsys, "cover", "--code", rep4, "--r", "1")
    assert rc == 0
    assert out == "# seed=0\ncovered_fraction 0.625\n"
    rc, out = run_cli(capsys, "cover", "--code", rep4, "--r", "4", "--format", "json")
    assert json.loads(out)["covered_fraction"] == 1.0
    assert json.loads(out)["covered_fraction"] == covered_fraction(
        Code(4, (0, 15)), 4
    )


def test_rate_table_csv(capsys):
    rc, out = run_cli(
        capsys, "rate-table", "--deltas", "0,0.1,0.5", "--format", "csv"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "delta,rate"
    assert lines[1] == "0,1"
    assert lines[2] == "0.1,0.721928095"
    assert lines[3] == "0.5,0"


def test_rate_table_empty(capsys):
    rc, out = run_cli(capsys, "rate-table", "--deltas", "", "--format", "csv")
    assert rc == 0 and out == "delta,rate\n"


def test_rate_table_step(capsys):
    rc, out = run_cli(
        capsys, "rate-table", "--step", "0.25", "--format", "json"
    )
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [r[0] for r in rows] == [0.0, 0.25, 0.5]


def test_rate_table_domain_error(capsys):
    assert run_cli(capsys, "rate-table", "--deltas", "0.9")[0] == 2


def test_cli_outputs_are_deterministic(capsys):
    _, first = run_cli(capsys, "bound", "--n", "6", "--d", "2", "--format", "json")
    _, second = run_cli(capsys, "bound", "--n", "6", "--d", "2", "--format", "json")
    assert first == second


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cube_spectra.cli", "lambda", "--n", "2", "--r", "1",
         "--exact"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "# seed=0\nlambda 1.41421356\n"


def test_cli_output_matches_golden_bytes(tmp_path, capsys):
    # stdout recorded from the library before its ball routines moved to
    # exact r* selection and weight-space witness checks; "@name" is a code
    # file written below
    write_code_file(Code(4, (0b0000, 0b1111)), tmp_path / "rep4.txt")
    write_code_file(even_weight_code(4), tmp_path / "even4.txt")
    write_code_file(Code(2, (0, 1, 2, 3)), tmp_path / "full2.txt")
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    assert len(golden) == 17
    for case in golden:
        argv = [
            str(tmp_path / f"{a[1:]}.txt") if a.startswith("@") else a
            for a in case["argv"]
        ]
        rc, out = run_cli(capsys, *argv)
        assert rc == 0, case["argv"]
        assert out == case["stdout"], case["argv"]


def test_cli_format_matrix_matches_golden_bytes(tmp_path, monkeypatch):
    # every subcommand in text, csv and json, the exit-1 and exit-2 paths and
    # every --help page; "@name" is a code file written below ("@missing" is
    # never written) and "@DIR" stands for its directory in stderr.  A null
    # stderr is not pinned: the violation dump carries unrounded floats.
    monkeypatch.setenv("COLUMNS", "80")
    write_code_file(Code(4, (0b0000, 0b1111)), tmp_path / "rep4.txt")
    write_code_file(even_weight_code(4), tmp_path / "even4.txt")
    write_code_file(Code(2, (0, 1, 2, 3)), tmp_path / "full2.txt")
    (tmp_path / "bad.txt").write_text("01\n0111\n")
    golden = json.loads(
        (Path(__file__).parent / "cli_golden_formats.json").read_text()
    )
    assert len(golden) == 97
    for case in golden:
        argv = [
            str(tmp_path / f"{a[1:]}.txt") if a.startswith("@") else a
            for a in case["argv"]
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        assert rc == case["exit"], case["argv"]
        assert out.getvalue() == case["stdout"], case["argv"]
        if case["stderr"] is not None:
            got = err.getvalue().replace(str(tmp_path), "@DIR")
            assert got == case["stderr"], case["argv"]
