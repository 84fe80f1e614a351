"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is fixed here, straight from the contract; nothing is calibrated
at runtime.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import even_weight_code
from cube_spectra import (
    Code,
    CubeFunction,
    SubsetGraph,
    ball_size,
    check_covering,
    check_prop_ineq,
    convolve,
    exhaustive_verify,
    finite_code_bound,
    first_lp_rate,
    hamming_ball,
    hamming_weights,
    int_wht,
    inverse_wht,
    lambda_ball_exact,
    lambda_for_radius_recurrence,
    lambda_subset_bruteforce,
    random_code,
    wht,
    write_code_file,
)
from cube_spectra.cube_fourier import IntCubeFunction
from cube_spectra.lp_witness import VERDICT_HOLDS
from oracles import (
    essential_covering_radius_bound,
    max_code_size_exact,
    phi_from_code,
    tietavainen_bound,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_transform_correctness():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for n in range(1, 13):
        for _ in range(100):
            f = rng.standard_normal(1 << n)
            g = rng.standard_normal(1 << n)
            F, G = CubeFunction(n, f), CubeFunction(n, g)
            fhat, ghat = wht(F), wht(G)
            worst = max(worst, float(np.abs(inverse_wht(fhat).values - f).max()))
            worst = max(worst, abs(float((f * g).mean()) - float(fhat.values @ ghat.values)))
            conv_lhs = wht(convolve(F, G)).values
            worst = max(worst, float(np.abs(conv_lhs - fhat.values * ghat.values).max()))
    identities_ok = worst < 1e-12

    integer_ok = True
    for n in range(1, 17):
        kernel = np.where(hamming_weights(n) == 1, np.int64(1) << n, 0)
        t = int_wht(IntCubeFunction(n, kernel)).values
        expected = (1 << n) * (n - 2 * hamming_weights(n).astype(np.int64))
        integer_ok = integer_ok and bool((t == expected).all())

    ok = identities_ok and integer_ok
    report(1, ok, f"max identity error {worst:.2e} (tol 1e-12); "
                  f"integer kernel transform exact through n=16: {integer_ok}")
    assert identities_ok and integer_ok


def test_criterion_2_spectral_oracle_equivalence():
    pairs = 0
    worst_bf = 0.0
    worst_rec = 0.0
    for n in range(0, 13):
        for r in range(n + 1):
            exact = lambda_ball_exact(n, r)
            brute = lambda_subset_bruteforce(hamming_ball(n, r))
            worst_bf = max(worst_bf, abs(exact - brute))
            if n >= 1:  # the weight-profile recurrence needs a coordinate
                rec = lambda_for_radius_recurrence(n, r).lam
                worst_rec = max(worst_rec, abs(exact - rec))
            pairs += 1
    ok = pairs == 91 and worst_bf < 1e-8 and worst_rec < 1e-7
    report(2, ok, f"{pairs} pairs; exact-vs-bruteforce {worst_bf:.2e} (tol 1e-8), "
                  f"exact-vs-recurrence {worst_rec:.2e} (tol 1e-7)")
    assert ok


def test_criterion_3_witness_validity():
    checked = []
    ok = True
    for n in (4, 8, 12, 14):
        for r in {n // 4, n // 2}:
            w = lambda_for_radius_recurrence(n, r)
            good = w.verify_pointwise(tol=1e-9)
            ok = ok and good
            checked.append((n, r, good))
    report(3, ok, f"pointwise Af >= (lambda-1e-9) f at all 2^n points: {checked}")
    assert ok


def test_criterion_4_lemma_trend():
    gaps = {}
    for n in (32, 64, 128, 256, 512, 1024):
        r = n // 4
        lam = lambda_ball_exact(n, r)
        gaps[n] = (2 * math.sqrt(r * (n - r)) - lam) / n
    ordered = [gaps[n] for n in (32, 64, 128, 256, 512, 1024)]
    positive = all(g > 0 for g in ordered)
    decreasing = all(b < a for a, b in zip(ordered, ordered[1:]))
    halved = gaps[1024] < gaps[32] / 2
    ok = positive and decreasing and halved
    report(4, ok, "gap(n) = (2 sqrt(r(n-r)) - lambda)/n at r = n/4: "
                  + ", ".join(f"{n}:{gaps[n]:.5f}" for n in sorted(gaps)))
    assert ok


def test_criterion_5_proposition_exhaustion():
    linear_summaries = [exhaustive_verify(n, "all-linear") for n in range(1, 8)]
    random_summaries = [
        exhaustive_verify(n, "random-general", trials=1000, seed=n)
        for n in range(5, 13)
    ]
    violations = sum(s["violations"] for s in linear_summaries + random_summaries)

    tight_size = check_prop_ineq(
        even_weight_code(4), subset=SubsetGraph(4, (0b0000, 0b0001))
    )
    size_equality = (
        tight_size.verdict == VERDICT_HOLDS
        and tight_size.bound_lhs == 8
        and tight_size.bound_rhs == 8
    )
    tight_cover = check_covering(
        Code(4, (0b0000, 0b1111)), subset=SubsetGraph(4, (0b0000, 0b0001))
    )
    cover_equality = (
        tight_cover.verdict == VERDICT_HOLDS and tight_cover.covered == 16 // 4
    )

    checks = sum(
        s["holds"] + s["premise_unmet"] for s in linear_summaries + random_summaries
    )
    ok = violations == 0 and size_equality and cover_equality
    report(5, ok, f"{checks} checks over {sum(s['codes'] for s in linear_summaries)} "
                  f"linear + 8000 random codes, {violations} violations; "
                  f"tight cases 8=4*2: {size_equality}, covered 4=2^4/4: {cover_equality}")
    assert ok


def test_criterion_6_phi_certificate():
    rng = np.random.default_rng(77)
    worst_ratio = 0.0
    worst_neg = 0.0
    count = 0
    while count < 200:
        n = int(rng.integers(2, 13))
        c = random_code(n, int(rng.integers(1, n + 1)), seed=int(rng.integers(2**32)))
        phi = phi_from_code(c)
        mean = float(phi.values.mean())
        second = float((phi.values**2).mean())
        worst_ratio = max(worst_ratio, abs(second / mean**2 - c.size))
        worst_neg = max(worst_neg, -float(convolve(phi, phi).values.min()))
        count += 1

    from cube_spectra import LinearCode, enumerate_linear_codes
    from oracles import dual_code

    worst_prop = 0.0
    for n in range(2, 8):
        for k in range(1, n + 1):
            for i, lc in enumerate(enumerate_linear_codes(n, k)):
                if i >= 8:
                    break
                phi = phi_from_code(lc.expand())
                ind = dual_code(lc).expand().indicator().values
                scale = phi.values[ind > 0].mean()
                worst_prop = max(worst_prop, float(np.abs(phi.values - scale * ind).max()))

    ok = worst_ratio < 1e-9 and worst_neg < 1e-12 and worst_prop < 1e-9
    report(6, ok, f"200 random codes: ratio error {worst_ratio:.2e} (tol 1e-9), "
                  f"phi*phi >= -{worst_neg:.2e} (tol 1e-12); linear phi vs dual "
                  f"indicator {worst_prop:.2e} (tol 1e-9)")
    assert ok


def test_criterion_7_bound_soundness():
    spot = {
        (5, 3): finite_code_bound(5, 3).value,
        (4, 2): finite_code_bound(4, 2).value,
        (7, 3): finite_code_bound(7, 3).value,
    }
    spots_ok = spot == {(5, 3): 5, (4, 2): 20, (7, 3): 56}

    unsound = []
    for n in range(1, 8):
        for d in range(1, n + 1):
            bound = finite_code_bound(n, d).value
            exact = max_code_size_exact(n, d)
            if bound < exact:
                unsound.append((n, d, bound, exact))
    sound_ok = not unsound

    ok = spots_ok and sound_ok
    report(7, ok, f"spot values (5,3)->5 (4,2)->20 (7,3)->56: {spots_ok}; "
                  f"bound >= exact optimum on all 28 pairs: {sound_ok}"
                  + (f"; undershoots at {unsound}" if unsound else ""))
    # For 2d <= n the bound is n |B(r*)|, certified by ef_sq <= n * ef2.  For
    # 2d > n (target n-2d+1 nonpositive, r*=0) that factor n is unsupported;
    # the sharp inequality at a single point gives Plotkin's 2d/(2d-n), after
    # a parity bit when d is odd, and the bound is the larger of that and n.
    # Both are upper bounds on every code, so the exact optimum never exceeds
    # them; the comparison runs over all 28 pairs with no special case.
    assert spots_ok, "pinned spot values changed"
    assert sound_ok, f"bound undershoots the exact optimum at {unsound}"


def test_criterion_8_rate_formula():
    endpoint_ok = first_lp_rate(0.0) == 1.0 and first_lp_rate(0.5) == 0.0
    value_ok = abs(first_lp_rate(0.1) - 0.721928) < 1e-6

    grid = [i / 1000 for i in range(501)]
    vals = [first_lp_rate(x) for x in grid]
    monotone_ok = all(b < a for a, b in zip(vals, vals[1:]))

    delta = 0.1
    excesses = []
    for n in (64, 128, 256, 512):
        d = int(delta * n)
        bound = finite_code_bound(n, d).value
        excesses.append(math.log2(bound) / n - first_lp_rate(delta))
    convergence_ok = all(e > 0 for e in excesses) and all(
        b < a for a, b in zip(excesses, excesses[1:])
    )

    ok = endpoint_ok and value_ok and monotone_ok and convergence_ok
    report(8, ok, f"endpoints exact: {endpoint_ok}; rate(0.1) err "
                  f"{abs(first_lp_rate(0.1) - 0.721928):.1e} (tol 1e-6); strictly "
                  f"decreasing on 1e-3 grid: {monotone_ok}; finite-bound excess at "
                  f"delta=0.1 decreasing {['%.4f' % e for e in excesses]}")
    assert ok


def test_criterion_9_covering_bound_ordering():
    checked = 0
    ok = True
    for n in (16, 32, 64, 128, 256, 512, 1024):
        for d in sorted({4, 5, n // 8, n // 4, 3 * n // 8, n // 2}):
            if not 4 <= d <= n // 2:
                continue
            _, essential = essential_covering_radius_bound(n, d)
            if not essential < tietavainen_bound(n, d):
                ok = False
            checked += 1
    report(9, ok, f"essential asymptotic < comparator bound on {checked} sampled "
                  f"(n, d) pairs with 4 <= d <= n/2, n <= 1024")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    write_code_file(Code(4, (0b0000, 0b1111)), tmp_path / "rep4.txt")
    write_code_file(even_weight_code(4), tmp_path / "even4.txt")
    write_code_file(Code(2, (0, 1, 2, 3)), tmp_path / "full2.txt")
    rep4, even4, full2 = (
        str(tmp_path / name) for name in ("rep4.txt", "even4.txt", "full2.txt")
    )

    invocations = [
        ["lambda", "--n", "4", "--r", "2", "--exact"],
        ["lambda", "--n", "5", "--r", "5", "--exact"],
        ["lambda", "--n", "2", "--r", "1", "--recurrence"],
        ["bound", "--delta", "0.1", "--format", "json"],
        ["bound", "--n", "7", "--d", "3", "--format", "json"],
        ["bound", "--delta", "0.5", "--format", "json"],
        ["verify", "--n", "4", "--all-linear", "--format", "json"],
        ["verify", "--code", even4, "--r", "1", "--format", "json"],
        ["verify", "--n", "1", "--all-linear", "--format", "json"],
        ["cover", "--code", rep4, "--r", "1"],
        ["cover", "--code", rep4, "--r", "4"],
        ["wht", "--code", full2],
    ]

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cube_spectra.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        return proc.stdout

    deterministic = True
    outputs = {}
    for argv in invocations:
        first, second = run(argv), run(argv)
        deterministic = deterministic and first == second
        outputs[tuple(argv)] = first

    lam_out = outputs[("lambda", "--n", "4", "--r", "2", "--exact")]
    api_ok = lam_out == f"# seed=0\nlambda {lambda_ball_exact(4, 2):.9g}\n"
    rate_out = json.loads(outputs[("bound", "--delta", "0.1", "--format", "json")])
    api_ok = api_ok and abs(rate_out["bound"] - first_lp_rate(0.1)) < 1e-8
    fin_out = json.loads(
        outputs[("bound", "--n", "7", "--d", "3", "--format", "json")]
    )
    api_ok = api_ok and fin_out["bound"] == finite_code_bound(7, 3).value == 56
    verify_out = json.loads(
        outputs[("verify", "--n", "4", "--all-linear", "--format", "json")]
    )
    api_ok = api_ok and verify_out["violations"] == 0
    cover_out = outputs[("cover", "--code", rep4, "--r", "1")]
    api_ok = api_ok and cover_out.endswith("covered_fraction 0.625\n")

    ok = deterministic and api_ok
    report(10, ok, f"{len(invocations)} documented invocations byte-identical "
                   f"across two runs: {deterministic}; outputs match direct API "
                   f"values: {api_ok}")
    assert ok
