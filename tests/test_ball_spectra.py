import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_ball_lambda
from cube_spectra import (
    BallEigenWitness,
    SubsetGraph,
    SymmetricProfile,
    adjacency_apply,
    eigen_recurrence,
    hamming_ball,
    lambda_ball_exact,
    lambda_for_radius_recurrence,
    lambda_subset_bruteforce,
    min_radius_for_lambda,
)
from cube_spectra.ball_spectra import _eigenvalues_below, subset_top_eigenpair
from cube_spectra.bounds import ball_size, finite_code_bound


def test_profile_lift():
    prof = SymmetricProfile(3, (2.0, 1.0))
    lifted = prof.lift()
    for x in range(8):
        w = bin(x).count("1")
        assert lifted.values[x] == (2.0, 1.0, 0.0, 0.0)[w]


def test_lambda_ball_exact_examples():
    assert lambda_ball_exact(2, 1) == pytest.approx(math.sqrt(2), abs=1e-9)
    assert lambda_ball_exact(4, 2) == pytest.approx(math.sqrt(10), abs=1e-9)
    assert lambda_ball_exact(5, 5) == pytest.approx(5.0, abs=1e-9)
    assert lambda_ball_exact(7, 0) == 0.0
    assert lambda_ball_exact(0, 0) == 0.0


def test_lambda_ball_exact_errors():
    with pytest.raises(ValueError):
        lambda_ball_exact(4, 5)
    with pytest.raises(ValueError):
        lambda_ball_exact(4, -1)


def test_lambda_ball_matches_dense_eigensolve():
    for n in range(1, 9):
        for r in range(n + 1):
            assert lambda_ball_exact(n, r) == pytest.approx(
                dense_ball_lambda(n, r), abs=1e-8
            ), (n, r)


def test_lambda_ball_strictly_increasing_in_radius():
    # near r = n the values sit within solver accuracy of the n-regular
    # limit (true gaps ~ n^2/2^n), so strictness is asserted outside that
    # saturated tail and plain monotonicity across it
    for n in (6, 17, 64):
        lams = [lambda_ball_exact(n, r) for r in range(n + 1)]
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        strict_zone = [lam for lam in lams if lam < n - 1e-8]
        assert len(strict_zone) >= n // 2
        assert all(b > a for a, b in zip(strict_zone, strict_zone[1:]))


def test_eigen_recurrence_examples():
    # float64 sqrt(2) rounds a hair above the true eigenvalue, where g(2) is
    # a positive 1e-16; the next float down sits below it and changes sign
    just_below = float(np.nextafter(math.sqrt(2), 0.0))
    g, fnp = eigen_recurrence(2, just_below)
    assert fnp == 2
    assert g.values[0] == 1.0
    assert g.values[1] == pytest.approx(0.70711, abs=1e-5)
    assert g.values[2] == pytest.approx(0.0, abs=1e-12)
    g, fnp = eigen_recurrence(2, math.sqrt(2))
    assert abs(g.values[2]) < 1e-15

    g, fnp = eigen_recurrence(2, 1.5)
    assert fnp == 3  # stays positive through weight 2
    assert g.values == (1.0, 0.75, 0.125)

    g, fnp = eigen_recurrence(2, 1.0)
    assert fnp == 2
    assert g.values == (1.0, 0.5, -0.5)


def test_eigen_recurrence_validation():
    with pytest.raises(ValueError):
        eigen_recurrence(3, 3.5)
    with pytest.raises(ValueError):
        eigen_recurrence(3, -0.1)


def test_eigen_recurrence_survives_instability():
    # near the top of the spectrum the forward recurrence blows up; the
    # overflow guard must truncate instead of overflowing to inf
    lam = lambda_ball_exact(400, 100) - 1e-13
    g, fnp = eigen_recurrence(400, lam)
    assert all(math.isfinite(v) for v in g.values)


def test_lambda_for_radius_examples():
    w = lambda_for_radius_recurrence(2, 1)
    assert w.lam == pytest.approx(math.sqrt(2), abs=1e-9)
    assert w.p == 1
    assert w.profile.values[1] == pytest.approx(0.70711, abs=1e-5)

    w = lambda_for_radius_recurrence(4, 2)
    assert w.lam == pytest.approx(math.sqrt(10), abs=1e-9)
    assert w.p == 2

    w = lambda_for_radius_recurrence(9, 0)
    assert w.lam == 0.0 and w.p == 0 and w.profile.values == (1.0,)

    w = lambda_for_radius_recurrence(5, 5)
    assert w.lam == 5.0 and w.p == 5 and w.profile.values == (1.0,) * 6


def test_recurrence_agrees_with_exact_on_grid():
    for n in range(1, 11):
        for r in range(n + 1):
            w = lambda_for_radius_recurrence(n, r)
            exact = lambda_ball_exact(n, r)
            assert abs(w.lam - exact) < 1e-7, (n, r)
            assert w.p <= r
            assert abs(w.lam - lambda_ball_exact(n, w.p)) < 1e-7


def test_witness_pointwise_validity():
    for n, r in ((4, 1), (6, 3), (10, 5), (13, 3)):
        w = lambda_for_radius_recurrence(n, r)
        assert w.verify_pointwise(tol=1e-9)
        f = w.lift()
        af = adjacency_apply(f)
        assert (f.values >= 0).all()
        assert (af.values >= (w.lam - 1e-9) * f.values).all()


def test_witness_validation():
    prof = SymmetricProfile(4, (1.0, 0.5))
    BallEigenWitness(4, 2, 1.9, prof, 1)
    with pytest.raises(ValueError, match="positive"):
        BallEigenWitness(4, 2, 1.9, SymmetricProfile(4, (1.0, -0.5)), 1)
    with pytest.raises(ValueError, match="truncation"):
        BallEigenWitness(4, 1, 1.9, SymmetricProfile(4, (1.0, 0.5, 0.2)), 2)


def test_subset_bruteforce_examples():
    assert lambda_subset_bruteforce(SubsetGraph(2, (0, 1))) == pytest.approx(
        1.0, abs=1e-9
    )
    assert lambda_subset_bruteforce(SubsetGraph(2, (0, 1, 2))) == pytest.approx(
        math.sqrt(2), abs=1e-9
    )
    assert lambda_subset_bruteforce(SubsetGraph(5, (17,))) == 0.0


def test_subset_bruteforce_matches_dense(rng):
    for trial in range(15):
        n = int(rng.integers(1, 8))
        size = int(rng.integers(1, (1 << n) + 1))
        pts = tuple(int(x) for x in rng.choice(1 << n, size=size, replace=False))
        idx = {p: i for i, p in enumerate(sorted(pts))}
        mat = np.zeros((size, size))
        for p in pts:
            for i in range(n):
                q = p ^ (1 << i)
                if q in idx:
                    mat[idx[p], idx[q]] = 1.0
        want = float(np.linalg.eigvalsh(mat)[-1]) if size > 1 else 0.0
        assert lambda_subset_bruteforce(SubsetGraph(n, pts)) == pytest.approx(
            want, abs=1e-8
        )


def test_subset_eigenpair_is_nonnegative_eigenvector():
    b = hamming_ball(6, 2)
    lam, vec = subset_top_eigenpair(b)
    assert (vec >= 0).all()
    members = np.array(b.members)
    idx = {p: i for i, p in enumerate(b.members)}
    av = np.zeros(len(vec))
    for j, p in enumerate(b.members):
        for i in range(6):
            q = p ^ (1 << i)
            if q in idx:
                av[j] += vec[idx[q]]
    assert np.max(np.abs(av - lam * vec)) < 1e-8


def test_subset_graph_validation():
    with pytest.raises(ValueError, match="nonempty"):
        SubsetGraph(3, ())
    with pytest.raises(ValueError, match="lie in"):
        SubsetGraph(2, (4,))
    with pytest.raises(ValueError):
        lambda_subset_bruteforce(SubsetGraph(17, tuple(range(1 << 17))))


def test_min_radius_for_lambda_examples():
    assert min_radius_for_lambda(4, 1.0) == 1
    assert min_radius_for_lambda(4, 2.1) == 2
    assert min_radius_for_lambda(9, 0.0) == 0
    with pytest.raises(ValueError, match="no ball"):
        min_radius_for_lambda(4, 4.5)


def test_min_radius_is_minimal():
    for n in (5, 9):
        for target in (0.5, 1.7, n - 0.5):
            r = min_radius_for_lambda(n, target)
            assert lambda_ball_exact(n, r) >= target - 1e-9
            if r > 0:
                assert lambda_ball_exact(n, r - 1) < target - 1e-9


def test_hamming_ball_members():
    b = hamming_ball(4, 1)
    assert b.members == (0, 1, 2, 4, 8)
    assert hamming_ball(3, 3).size == 8
    assert hamming_ball(0, 0).members == (0,)


def test_weight_lifts_check_the_dimension_cap_first(monkeypatch):
    # the cap must be checked before the 2^n weight table is built: at the
    # default cap, n = 1000 would exhaust memory instead of raising
    monkeypatch.setenv("CUBE_SPECTRA_MAX_N", "10")
    with pytest.raises(ValueError, match="at most 10"):
        hamming_ball(11, 2)
    with pytest.raises(ValueError, match="at most 10"):
        lambda_for_radius_recurrence(11, 2).lift()
    with pytest.raises(ValueError, match="at most 10"):
        SymmetricProfile(11, (1.0,)).lift()


def test_ball_beats_random_subsets_of_equal_size():
    # spot check of near-optimality: seeded random subsets with |X| = |B(2)|
    # in {0,1}^8 stay below the ball's eigenvalue
    n, r = 8, 2
    lam_ball = lambda_ball_exact(n, r)
    size = ball_size(n, r)
    for seed in range(6):
        gen = np.random.default_rng(seed)
        pts = tuple(int(x) for x in gen.choice(1 << n, size=size, replace=False))
        assert lambda_subset_bruteforce(SubsetGraph(n, pts)) <= lam_ball


def test_lambda_ball_exact_ends_where_floats_are_coarser_than_its_width():
    # ulp(lambda) exceeds the 1e-10 bisection width once lambda >= 2^19; the
    # bisection used to loop forever there.  A child process bounds the time.
    n, r = 2**20, 80000
    proc = subprocess.run(
        [sys.executable, "-c", "from cube_spectra import lambda_ball_exact as f; "
         f"print(f({n}, {r}).hex())"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    lam = float.fromhex(proc.stdout.strip())
    assert 2**19 < lam < 2**20
    assert _eigenvalues_below(n, r, lam * (1 - 1e-12)) <= r
    assert _eigenvalues_below(n, r, lam * (1 + 1e-12)) == r + 1


def test_min_radius_matches_the_float_rule():
    # the rule before exact selection: smallest r whose bisected ball
    # eigenvalue reaches the target within 1e-9.  At t = n only the whole
    # cube qualifies, but lambda(n, n-1) sits within 1e-9 of n from n = 36
    # on, so there the float rule answered n-1.
    for n in range(61):
        lams = [lambda_ball_exact(n, r) for r in range(n + 1)]
        for t in range(n):
            expected = next(r for r, lam in enumerate(lams) if lam >= t - 1e-9)
            assert min_radius_for_lambda(n, t) == expected, (n, t)
            assert min_radius_for_lambda(n, float(t)) == expected, (n, t)
        assert min_radius_for_lambda(n, n) == n


def test_eigen_recurrence_stops_at_the_first_sign_change():
    for n in range(1, 25):
        lams = list(np.linspace(0.0, n, 37))
        lams += [min(lambda_ball_exact(n, r), n) for r in range(n + 1)]
        for lam in lams:
            g, fnp = eigen_recurrence(n, float(lam))
            if fnp <= n:
                assert len(g.values) == fnp + 1, (n, lam)
                assert all(v > 0 for v in g.values[:fnp]) and g.values[fnp] <= 0
            else:
                assert all(v > 0 for v in g.values)


def _dense_pointwise(w, tol):
    f = w.lift()
    af = adjacency_apply(f)
    return bool((f.values >= 0).all() and (af.values >= (w.lam - tol) * f.values).all())


def test_verify_pointwise_agrees_with_the_dense_check():
    for n in range(1, 13):
        for r in range(n + 1):
            w = lambda_for_radius_recurrence(n, r)
            for shift in (0.0, 1e-6, 0.1):
                v = BallEigenWitness(n=n, r=r, lam=w.lam + shift, profile=w.profile, p=w.p)
                assert v.verify_pointwise(tol=1e-9) == _dense_pointwise(v, 1e-9), (n, r, shift)
            assert w.verify_pointwise(tol=1e-9)


def test_verify_pointwise_checks_a_certificate_beyond_dense_reach():
    cert = finite_code_bound(1000, 100).certificate
    w = BallEigenWitness(
        n=cert["n"],
        r=cert["r"],
        lam=cert["lambda"],
        profile=SymmetricProfile(cert["n"], cert["profile"]),
        p=cert["p"],
    )
    assert w.verify_pointwise(tol=1e-9)
    raised = BallEigenWitness(n=w.n, r=w.r, lam=w.lam + 1e-6, profile=w.profile, p=w.p)
    assert not raised.verify_pointwise(tol=1e-9)
