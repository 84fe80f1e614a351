import contextlib
import io
import json
import math
import shlex
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
from cube_spectra import ball_spectra, cli
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


@pytest.mark.parametrize("argv, flag", [
    (["--code", "@rep4", "--r", "2", "--all-linear", "--n", "8"], "--n"),
    (["--code", "@rep4", "--r", "2", "--all-linear"], "--all-linear"),
    (["--code", "@rep4", "--r", "2", "--random", "5"], "--random"),
    (["--n", "3", "--all-linear", "--r", "2"], "--r"),
    (["--n", "3", "--random", "4", "--d", "2"], "--d"),
])
def test_verify_refuses_the_flags_of_the_other_mode(capsys, rep4, argv, flag):
    # before, the stray flag was ignored and the run exited 0
    rc = main(["verify", *(rep4 if a == "@rep4" else a for a in argv)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and f"error: {flag} does not apply" in err


@pytest.mark.parametrize("method", ["--exact", "--recurrence", "--bruteforce"])
def test_lambda_refuses_n_zero_for_every_method(capsys, method):
    # --exact and --bruteforce printed "lambda 0" and exited 0
    rc = main(["lambda", "--n", "0", "--r", "0", method])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "need n >= 1" in err


def test_verify_refuses_a_negative_trial_count(capsys):
    assert main(["verify", "--n", "6", "--random", "-5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "trials must be >= 0" in err


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


@pytest.mark.parametrize("step", ["nan", "0", "-0.1", "5e-7", "1e-17"])
def test_rate_table_rejects_a_step_without_a_finite_grid(step):
    # 1e-17 is below half an ulp of 0.5: x += step stops advancing and the
    # grid list grows without end; a child process bounds time and memory
    proc = subprocess.run(
        [sys.executable, "-m", "cube_spectra.cli", "rate-table", "--step", step],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert "--step" in proc.stderr


def test_rate_table_refuses_more_than_a_million_rows(capsys):
    rc = main(["rate-table", "--step", "1e-7"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "--step gives more than 10^6 rows" in err


def test_lambda_bruteforce_exits_1_when_power_iteration_stalls(capsys, monkeypatch):
    monkeypatch.setattr(ball_spectra, "_POWER_MAX_ITER", 1)
    rc = main(["lambda", "--n", "4", "--r", "2", "--bruteforce"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and "error: power iteration did not reach residual" in err


def test_lambda_exits_1_when_the_routes_disagree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "lambda_ball_exact", lambda n, r: lambda_ball_exact(n, r) + 1e-3)
    rc = main(["lambda", "--n", "4", "--r", "2", "--recurrence"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and "internal disagreement: exact=" in err


def test_lambda_trap_accepts_every_small_ball(capsys):
    for n in range(1, 13):
        for r in range(n + 1):
            rc = main(["lambda", "--n", str(n), "--r", str(r), "--exact"])
            out, err = capsys.readouterr()
            assert rc == 0 and err == "" and out.startswith("# seed=0\nlambda "), (n, r)


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
@pytest.mark.parametrize("n, r", [(4, 0), (7, 3), (12, 11), (5, 5)])
def test_lambda_exact_exits_1_when_the_sturm_test_disagrees(capsys, monkeypatch, n, r, shift):
    monkeypatch.setattr(cli, "lambda_ball_exact", lambda n, r: lambda_ball_exact(n, r) + shift)
    rc = main(["lambda", "--n", str(n), "--r", str(r), "--exact"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and "internal disagreement" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["lambda", "--n", "3", "--r", "1", "--exact"],
    ["bound", "--n", "7", "--d", "3"],
    ["verify", "--n", "3", "--all-linear"],
    ["verify", "--code", "@rep4", "--r", "1"],
    ["wht", "--code", "@rep4"],
    ["cover", "--code", "@rep4", "--r", "1"],
    ["rate-table", "--step", "0.25"],
])
def test_non_finite_tol_exits_2(capsys, rep4, argv, tol):
    argv = [rep4 if a == "@rep4" else a for a in argv]
    if argv[0] == "verify":
        rc = main([*argv, f"--tol={tol}"])
        expected = "--tol must be finite"
    else:
        # only verify has --tol; argparse refuses it elsewhere
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={tol}"])
        rc, expected = exc.value.code, f"unrecognized arguments: --tol={tol}"
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and expected in err


# one invocation per subcommand, each from the README's CLI section
_DOCUMENTED = {
    "lambda": ["lambda", "--n", "4", "--r", "2", "--exact"],
    "bound": ["bound", "--n", "7", "--d", "3"],
    "verify": ["verify", "--code", "@even4", "--r", "1"],
    "wht": ["wht", "--code", "@rep4"],
    "cover": ["cover", "--code", "@rep4", "--r", "1"],
    "rate-table": ["rate-table", "--deltas", "0,0.1,0.5"],
}


def _documented(name, rep4, even4):
    return [{"@rep4": rep4, "@even4": even4}.get(a, a) for a in _DOCUMENTED[name]]


@pytest.mark.parametrize("name, flag", [
    *((name, ["--threads", "1"]) for name in _DOCUMENTED),
    *((name, ["--tol", "1e-9"]) for name in _DOCUMENTED if name != "verify"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_removed_flags_exit_2(capsys, rep4, even4, name, flag):
    # before, these flags were accepted and changed no output byte
    with pytest.raises(SystemExit) as exc:
        main([*_documented(name, rep4, even4), *flag])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("name", list(_DOCUMENTED))
def test_every_common_flag_changes_the_result(capsys, rep4, even4, name):
    argv = _documented(name, rep4, even4)
    rc, plain = run_cli(capsys, *argv)
    assert rc == 0
    for flag in (["--format", "json"], ["--seed", "1"]):
        rc, out = run_cli(capsys, *argv, *flag)
        assert rc == 0 and out != plain, flag
    if name == "verify":
        # a negative tolerance reads every report of the pinned case as violated
        assert run_cli(capsys, *argv, "--tol", "-0.5")[0] == 1


def test_rate_table_domain_error(capsys):
    assert run_cli(capsys, "rate-table", "--deltas", "0.9")[0] == 2


def test_cli_outputs_are_deterministic(capsys):
    _, first = run_cli(capsys, "bound", "--n", "6", "--d", "2", "--format", "json")
    _, second = run_cli(capsys, "bound", "--n", "6", "--d", "2", "--format", "json")
    assert first == second


def test_bound_csv_prints_the_certificates_lambda(capsys):
    # lambda(B(19)) in {0,1}^134 is 82.95958365000...; the certificate's
    # lower bound rounds to ...837, and the report prints that one value
    rc, out = run_cli(capsys, "bound", "--n", "134", "--d", "27", "--format", "csv")
    assert rc == 0
    assert out == "n,d,r_star,lambda,bound\n134,27,19,82.9595837,8955110969983951619733408\n"


def test_verify_refuses_a_code_past_the_sweep_cap(tmp_path):
    # a two-word code at n = 25 would need gigabytes; a child process bounds
    # the time and memory if the guard regresses
    path = tmp_path / "wide.txt"
    write_code_file(Code(25, (0, 1)), path)
    proc = subprocess.run(
        [sys.executable, "-m", "cube_spectra.cli", "verify", "--code", str(path), "--r", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "exact sweep capped at n=24" in proc.stderr


def test_lambda_recurrence_does_not_hang_on_a_large_n():
    # each bisection probe must stop at weight r+1, not run O(n) steps
    proc = subprocess.run(
        [sys.executable, "-m", "cube_spectra.cli", "lambda", "--n", "100000000",
         "--r", "1", "--recurrence"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0 and "lambda 10000\n" in proc.stdout, proc.stderr


@pytest.mark.parametrize("n", [40, 100])
def test_wht_refuses_a_code_past_the_transform_cap(capsys, tmp_path, n):
    # the cap must be checked before the 2^n indicator is allocated
    path = tmp_path / "wide.txt"
    path.write_text(f"n={n}\n0x0\n0x1\n")
    rc = main(["wht", "--code", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "dimension must be in [1, 28]" in err


def test_verify_checks_the_sweep_cap_before_the_distance(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("n=100\n0x0\n0xfffffffffffffffffffffffff\n")
    rc = main(["verify", "--code", str(path), "--r", "1", "--d", "2"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "exact sweep capped at n=24" in err


@pytest.mark.parametrize("text, argv, message", [
    ("n=x\n0x1\n", ["wht"], "bad header"),
    ("n=0\n0x1\n", ["wht"], "n must be positive"),
    ("n=4\n0xZZ\n", ["wht"], "bad hex word"),
    (None, ["verify", "--r", "9"], "radius must be in [0, n]"),
], ids=["n=x", "n=0", "0xZZ", "r=9"])
def test_input_errors_exit_2(capsys, tmp_path, rep4, text, argv, message):
    path = rep4
    if text is not None:
        path = tmp_path / "bad.txt"
        path.write_text(text)
    rc = main([*argv, "--code", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and message in err


def test_conflicting_code_file_headers_exit_2(capsys, tmp_path):
    # taking the last header would read this as a length-4 code
    path = tmp_path / "two_headers.txt"
    path.write_text("n=3\nn=4\n0x1\n")
    rc = main(["wht", "--code", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err == "error: line 2: n=4 conflicts with n=3\n"


def test_non_ascii_header_digits_exit_2(capsys, tmp_path):
    # int() reads the fullwidth four as 4
    path = tmp_path / "wide_digit.txt"
    path.write_text("n=\uff14\n0x1\n", encoding="utf-8")
    rc = main(["wht", "--code", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and err == "error: line 1: bad header 'n=\uff14'\n"


def _readme_cli_lines():
    """The argv of each command in the fenced block under README's "## CLI"."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_cli_examples_exit_0(even4):
    lines = _readme_cli_lines()
    assert len(lines) == 12 and all(line[0] == "cube-spectra" for line in lines)
    lines = [line[1:] for line in lines]
    for argv in lines:
        argv = [even4 if a == "code.txt" else a for a in argv]
        assert main(argv) == 0, argv
    # each _DOCUMENTED invocation begins one README line
    for name in _DOCUMENTED:
        doc = ["code.txt" if a.startswith("@") else a for a in _DOCUMENTED[name]]
        assert any(line[: len(doc)] == doc for line in lines), name


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
