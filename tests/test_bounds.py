import json
import math
import subprocess
import sys

import pytest

from cube_spectra import (
    BallEigenWitness,
    LinearCode,
    ball_size,
    binary_entropy,
    dual_distance,
    finite_code_bound,
    first_lp_rate,
    lambda_ball_exact,
    min_radius_for_lambda,
    rate_table,
)
from cube_spectra import bounds
from cube_spectra.bounds import BoundReport, rate_report
from cube_spectra.lp_witness import _covered_counts, _indicators
from oracles import essential_covering_radius_bound, max_code_size_exact, tietavainen_bound


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.2) == pytest.approx(0.721928, abs=1e-6)


def test_binary_entropy_symmetry_and_domain():
    for x in (0.1, 0.25, 0.4):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_ball_size_values():
    assert ball_size(4, 1) == 5
    assert ball_size(10, 5) == 638
    assert ball_size(9, 9) == 512
    with pytest.raises(ValueError):
        ball_size(4, 5)


def test_ball_size_pascal_identity():
    table = {
        (n, r): ball_size(n, r) for n in range(0, 201) for r in range(0, n + 1)
    }
    for n in range(1, 201):
        for r in range(1, n + 1):
            assert table[n, r] == table[n - 1, min(r, n - 1)] + table[n - 1, r - 1]


def test_first_lp_rate_endpoints_and_value():
    assert first_lp_rate(0.0) == 1.0
    assert first_lp_rate(0.5) == 0.0
    assert first_lp_rate(0.1) == pytest.approx(0.721928, abs=1e-6)
    with pytest.raises(ValueError):
        first_lp_rate(0.6)


def test_first_lp_rate_strictly_decreasing():
    grid = [i / 1000 for i in range(501)]
    vals = [first_lp_rate(x) for x in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_finite_code_bound_spot_values():
    rep = finite_code_bound(5, 3)
    assert rep.r_star == 0 and rep.value == 5
    rep = finite_code_bound(4, 2)
    assert rep.r_star == 1 and rep.value == 20
    assert rep.lambda_used == pytest.approx(2.0, abs=1e-9)
    rep = finite_code_bound(7, 3)
    assert rep.r_star == 1 and rep.value == 56
    assert rep.lambda_used == pytest.approx(math.sqrt(7), abs=1e-9)


def test_finite_code_bound_reports_its_certificates_lambda(monkeypatch):
    # one lambda per bound, taken from the witness, and B(r*) reaches it
    # (decided exactly); the Sturm bisection is not consulted
    def refuse(*args):
        raise AssertionError("finite_code_bound called lambda_ball_exact")

    monkeypatch.setattr(bounds, "lambda_ball_exact", refuse)
    for n in range(1, 41):
        for d in range(1, n + 1):
            rep = finite_code_bound(n, d)
            assert rep.lambda_used == rep.certificate["lambda"], (n, d)
            assert min_radius_for_lambda(n, rep.lambda_used) <= rep.r_star, (n, d)


def test_finite_code_bound_plotkin_branch():
    # 2d > n: Plotkin's bound, which the optimum code meets at each pair.
    for (n, d), size in {(1, 1): 2, (3, 2): 4, (7, 4): 8}.items():
        rep = finite_code_bound(n, d)
        assert rep.r_star == 0 and rep.value == size


def test_finite_code_bound_structure():
    rep = finite_code_bound(9, 3)
    assert rep.kind == "finite-code"
    assert rep.value == 9 * ball_size(9, rep.r_star)
    assert rep.lambda_used >= 9 - 6 + 1 - 1e-9
    cert = rep.certificate
    w = BallEigenWitness(cert["n"], cert["r"], cert["lambda"], cert["profile"])
    assert w.p == cert["p"]
    assert w.verify_pointwise(tol=1e-9)
    with pytest.raises(ValueError):
        finite_code_bound(4, 5)


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="the long-double witness head underflows past 2^2045")
def test_finite_code_bound_returns_a_report_past_the_underflow_edge():
    # today this raises "witness profile must be positive and finite"; the
    # integer certificate that fixes it must also delete this marker
    rep = finite_code_bound(30000, 6000)
    cert = rep.certificate
    w = BallEigenWitness(cert["n"], cert["r"], cert["lambda"], cert["profile"])
    assert rep.r_star == cert["r"] and w.verify_pointwise(tol=1e-9)


def test_finite_code_bound_json_big_integer():
    rep = finite_code_bound(256, 26)
    d = rep.to_json_dict()
    assert isinstance(d["bound"], int) and d["bound"] == rep.value
    json.dumps(d)
    assert d["bound"] > 2**64  # exact big integer survives serialization


def test_certificate_profile_is_compact_and_serializes_as_a_list():
    rep = finite_code_bound(100, 20)
    profile = rep.certificate["profile"]
    assert profile.itemsize == 8 and len(profile) == rep.certificate["p"] + 1
    as_json = rep.to_json_dict()["certificate"]["profile"]
    assert type(as_json) is list and as_json == list(profile)


def test_rate_report():
    rep = rate_report(0.1)
    assert rep.kind == "rate" and rep.value == pytest.approx(0.721928, abs=1e-6)
    assert rep.to_json_dict()["delta"] == 0.1


def test_essential_covering_radius_bound():
    r_fin, r_asym = essential_covering_radius_bound(100, 30)
    assert r_asym == pytest.approx(50 - math.sqrt(2100), abs=1e-12)
    assert r_asym == pytest.approx(4.1742, abs=1e-4)
    assert isinstance(r_fin, int)
    assert lambda_ball_exact(100, r_fin) >= 100 - 60 + 1 - 1e-9

    _, r_asym = essential_covering_radius_bound(8, 4)
    assert r_asym == 0.0

    r_fin, _ = essential_covering_radius_bound(4, 2)
    assert r_fin == 1

    with pytest.raises(ValueError):
        essential_covering_radius_bound(10, 6)  # d > n/2
    with pytest.raises(ValueError):
        essential_covering_radius_bound(10, 0)


@pytest.mark.parametrize("n", [16_000, 64_000])
def test_essential_radius_exceeds_the_asymptote_by_the_airy_law(n):
    # near its truncation at r the ball's top eigenvalue is about
    # 2b - |a_1| (n - 2r)^(2/3) b^(-1/3), b = sqrt(r(n - r)) and a_1 the first
    # Airy zero, so r* - rho0 n ~ |a_1| n^(1/3) (rho0 (1 - rho0) / (1 - 2 rho0))^(1/3);
    # rounding r* alone moves the ratio by up to n^(-1/3), 0.025 at 64,000
    for delta in (0.1, 0.2, 0.3, 0.4):
        rho0 = 0.5 - math.sqrt(delta * (1 - delta))
        predicted = 2.33811 * (rho0 * (1 - rho0) / (1 - 2 * rho0)) ** (1 / 3)
        r_star = essential_covering_radius_bound(n, round(delta * n))[0]
        assert abs((r_star - rho0 * n) / n ** (1 / 3) - predicted) <= 0.05, (n, delta)


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_finite_rate_exceeds_the_first_lp_rate_by_n_to_the_minus_two_thirds(n):
    # r* - rho0 n ~ n^(1/3) above, times H'(rho0), gives a gap of order
    # n^(-2/3); measured 3.28 to 3.95 times n^(-2/3) at these n
    for delta in (0.1, 0.2, 0.3, 0.4):
        d = round(delta * n)
        r_star = min_radius_for_lambda(n, n - 2 * d + 1)
        gap = math.log2(n * ball_size(n, r_star)) / n - first_lp_rate(d / n)
        assert 3.0 <= n ** (2 / 3) * gap <= 4.2, (n, delta)


def test_tietavainen_values_and_ordering():
    assert tietavainen_bound(100, 30) == pytest.approx(50 - math.sqrt(1275), abs=1e-12)
    assert tietavainen_bound(100, 30) == pytest.approx(14.293, abs=1e-3)
    assert tietavainen_bound(64, 64) == 0.0
    assert tietavainen_bound(100, 30) > essential_covering_radius_bound(100, 30)[1]
    with pytest.raises(ValueError):
        tietavainen_bound(5, 6)


def test_tietavainen_comparator_is_no_finite_length_bound():
    code = LinearCode(8, (209, 178, 116, 8)).expand()
    assert dual_distance(code) == 3
    covered = _covered_counts(_indicators([code], 8), 8, 8)[0]
    radius = next(r for r, count in enumerate(covered) if count == 256)
    assert radius == 3 > tietavainen_bound(8, 3) == pytest.approx(0.878, abs=1e-3)


def test_rate_table():
    assert rate_table([0, 0.5]) == [(0.0, 1.0), (0.5, 0.0)]
    rows = rate_table([0.1])
    assert rows[0][1] == pytest.approx(0.721928, abs=1e-6)
    assert rate_table([]) == []
    with pytest.raises(ValueError):
        rate_table([0.7])


def test_bound_report_roundtrip():
    rep = BoundReport(
        kind="rate", n=None, d=None, delta=0.25, r_star=None,
        lambda_used=None, value=0.5, certificate=None,
    )
    d = rep.to_json_dict()
    assert d["kind"] == "rate" and d["bound"] == 0.5


def test_finite_code_bound_is_above_the_delsarte_lp():
    # the independent oracle beyond n = 8: Delsarte's LP maximises sum A_i over
    # A_0 = 1, A_i = 0 for 0 < i < d, A >= 0 and sum_i A_i K_k(i) >= 0 for
    # k = 1..n, row k scaled by 1 / C(n, k); a float check, not an exact certificate
    linprog = pytest.importorskip("scipy.optimize").linprog
    for n in range(2, 41):
        kraw = [[sum((-1) ** j * math.comb(i, j) * math.comb(n - i, k - j) for j in range(k + 1))
                 for i in range(n + 1)] for k in range(1, n + 1)]
        rows = [[-v / math.comb(n, k) for v in row] for k, row in enumerate(kraw, 1)]
        for d in range(1, n // 2 + 1):
            box = [(1, 1)] + [(0, 0)] * (d - 1) + [(0, None)] * (n + 1 - d)
            res = linprog([-1.0] * (n + 1), A_ub=rows, b_ub=[0.0] * n, bounds=box, method="highs")
            assert res.status == 0, (n, d, res.message)
            assert -res.fun <= finite_code_bound(n, d).value * (1 + 1e-7), (n, d, -res.fun)
            if n <= 7:
                assert max_code_size_exact(n, d) <= -res.fun * (1 + 1e-7), (n, d, -res.fun)


def test_finite_code_bound_ends_in_the_recurrence_stall_region():
    # target n - 2d + 1 = 8193: ulp(lambda) exceeds the 1e-12 width of the
    # recurrence bisection, which used to loop forever.  A child process
    # bounds the time.
    code = (
        "import json; from cube_spectra import finite_code_bound as f; "
        "r = f(9000, 404); "
        "print(json.dumps([r.r_star, r.lambda_used, r.certificate['lambda'], r.value]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        check=True,
    )
    r_star, lam, cert_lam, value = json.loads(proc.stdout)
    assert r_star == 2675 and value == 9000 * ball_size(9000, r_star)
    assert 8193 <= lam < 8194 and abs(cert_lam - lam) < 1e-9 * lam
