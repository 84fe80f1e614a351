import json
import math
import subprocess
import sys

import pytest

from cube_spectra import (
    BallEigenWitness,
    SymmetricProfile,
    ball_size,
    binary_entropy,
    essential_covering_radius_bound,
    finite_code_bound,
    first_lp_rate,
    lambda_ball_exact,
    rate_table,
    tietavainen_bound,
)
from cube_spectra.bounds import BoundReport, rate_report


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
    w = BallEigenWitness(
        n=cert["n"],
        r=cert["r"],
        lam=cert["lambda"],
        profile=SymmetricProfile(cert["n"], cert["profile"]),
        p=cert["p"],
    )
    assert w.verify_pointwise(tol=1e-9)
    with pytest.raises(ValueError):
        finite_code_bound(4, 5)


def test_finite_code_bound_json_big_integer():
    rep = finite_code_bound(256, 26)
    d = rep.to_json_dict()
    assert isinstance(d["bound"], int) and d["bound"] == rep.value
    json.dumps(d)
    assert d["bound"] > 2**64  # exact big integer survives serialization


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


def test_tietavainen_values_and_ordering():
    assert tietavainen_bound(100, 30) == pytest.approx(50 - math.sqrt(1275), abs=1e-12)
    assert tietavainen_bound(100, 30) == pytest.approx(14.293, abs=1e-3)
    assert tietavainen_bound(64, 64) == 0.0
    assert tietavainen_bound(100, 30) > essential_covering_radius_bound(100, 30)[1]
    with pytest.raises(ValueError):
        tietavainen_bound(5, 6)


def test_rate_table():
    assert rate_table([0, 0.5]) == [(0.0, 1.0), (0.5, 0.0)]
    rows = rate_table([0.1])
    assert rows[0][1] == pytest.approx(0.721928, abs=1e-6)
    assert rate_table([]) == []
    with pytest.raises(ValueError):
        rate_table([0.7])


def test_rate_table_rendered_formats():
    assert rate_table([0, 0.5], out_format="csv") == "delta,rate\n0,1\n0.5,0\n"
    assert json.loads(rate_table([0.1], out_format="json")) == [[0.1, 0.721928095]]
    with pytest.raises(ValueError, match="format"):
        rate_table([0.1], out_format="tsv")


def test_bound_report_roundtrip():
    rep = BoundReport(
        kind="rate", n=None, d=None, delta=0.25, r_star=None,
        lambda_used=None, value=0.5, certificate=None,
    )
    d = rep.to_json_dict()
    assert d["kind"] == "rate" and d["bound"] == 0.5


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
