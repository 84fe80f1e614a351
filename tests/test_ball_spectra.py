import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_ball_lambda, naive_adjacency
from cube_spectra import (
    BallEigenWitness,
    SubsetGraph,
    eigen_recurrence,
    hamming_ball,
    lambda_ball_exact,
    lambda_for_radius_recurrence,
    lambda_subset_bruteforce,
    min_radius_for_lambda,
)
from cube_spectra import ball_spectra, cube_fourier
from cube_spectra.ball_spectra import subset_top_eigenpair
from cube_spectra.bounds import ball_size, finite_code_bound


def test_profile_lift():
    lifted = BallEigenWitness(3, 1, 0.0, (2.0, 1.0)).lift()
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
    assert g[0] == 1.0
    assert g[1] == pytest.approx(0.70711, abs=1e-5)
    assert g[2] == pytest.approx(0.0, abs=1e-12)
    g, fnp = eigen_recurrence(2, math.sqrt(2))
    assert abs(g[2]) < 1e-15

    g, fnp = eigen_recurrence(2, 1.5)
    assert fnp == 3  # stays positive through weight 2
    assert g == (1.0, 0.75, 0.125)

    g, fnp = eigen_recurrence(2, 1.0)
    assert fnp == 2
    assert g == (1.0, 0.5, -0.5)


def test_eigen_recurrence_validation():
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        eigen_recurrence(0, 0.0)
    with pytest.raises(ValueError):
        eigen_recurrence(3, 3.5)
    with pytest.raises(ValueError):
        eigen_recurrence(3, -0.1)


def test_eigen_recurrence_survives_instability():
    # near the top of the spectrum the forward recurrence blows up; the
    # overflow guard must truncate instead of overflowing to inf
    lam = lambda_ball_exact(400, 100) - 1e-13
    g, fnp = eigen_recurrence(400, lam)
    assert all(math.isfinite(v) for v in g)


def test_lambda_for_radius_examples():
    w = lambda_for_radius_recurrence(2, 1)
    assert w.lam == pytest.approx(math.sqrt(2), abs=1e-9)
    assert w.p == 1
    assert w.profile[1] == pytest.approx(0.70711, abs=1e-5)

    w = lambda_for_radius_recurrence(4, 2)
    assert w.lam == pytest.approx(math.sqrt(10), abs=1e-9)
    assert w.p == 2

    w = lambda_for_radius_recurrence(9, 0)
    assert w.lam == 0.0 and w.p == 0 and w.profile == (1.0,)

    w = lambda_for_radius_recurrence(5, 5)
    assert w.lam == 5.0 and w.p == 5 and w.profile == (1.0,) * 6

    # the one-point cube, where lambda_ball_exact(0, 0) = 0 too
    w = lambda_for_radius_recurrence(0, 0)
    assert w.lam == 0.0 and w.p == 0 and w.profile == (1.0,)


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
        af = naive_adjacency(f.values, n)
        assert (f.values >= 0).all()
        assert (af >= (w.lam - 1e-9) * f.values).all()


def test_witness_validation():
    w = BallEigenWitness(4, 2, 1.9, np.array([1.0, 0.5]))
    assert w.profile == (1.0, 0.5) and type(w.profile[0]) is float and w.p == 1
    with pytest.raises(ValueError, match="positive and finite"):
        BallEigenWitness(4, 2, 1.9, (1.0, -0.5))
    with pytest.raises(ValueError, match=r"profile length must be in \[1, r\+1\], got 3"):
        BallEigenWitness(4, 1, 1.9, (1.0, 0.5, 0.2))
    with pytest.raises(ValueError, match=r"profile length must be in \[1, r\+1\], got 0"):
        BallEigenWitness(4, 1, 1.9, ())
    for r in (-1, 5):
        with pytest.raises(ValueError, match=rf"radius must be in \[0, n\], got {r}"):
            BallEigenWitness(4, r, 1.9, (1.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="witness profile must be positive and finite"):
            BallEigenWitness(4, 2, 1.9, (1.0, bad))


def test_verify_pointwise_rejects_a_non_finite_tol():
    # tol = inf would accept any lam and tol = nan reject every witness
    w = lambda_for_radius_recurrence(6, 2)
    false_witness = BallEigenWitness(w.n, w.r, w.lam + 3.0, w.profile)
    for tol in (math.inf, -math.inf, math.nan):
        for v in (w, false_witness):
            with pytest.raises(ValueError, match="tol must be finite, got"):
                v.verify_pointwise(tol=tol)


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


def test_subset_eigenpair_reports_power_iteration_that_does_not_converge(monkeypatch):
    monkeypatch.setattr(ball_spectra, "_POWER_MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match="did not reach residual .* in 1 steps"):
        subset_top_eigenpair(hamming_ball(4, 2))


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
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
        SubsetGraph(-1, (0,))
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


def test_min_radius_for_lambda_non_finite_targets():
    # lambda(B(0)) = 0 meets every target <= 0; nan must not reach the integer ratio
    assert min_radius_for_lambda(6, -math.inf) == min_radius_for_lambda(6, -3) == 0
    with pytest.raises(ValueError, match="nan"):
        min_radius_for_lambda(6, math.nan)
    with pytest.raises(ValueError, match="no ball"):
        min_radius_for_lambda(6, math.inf)


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
    monkeypatch.setattr(cube_fourier, "TRANSFORM_DIMENSION_CAP", 10)
    with pytest.raises(ValueError, match="at most 10"):
        hamming_ball(11, 2)
    with pytest.raises(ValueError, match="at most 10"):
        lambda_for_radius_recurrence(11, 2).lift()
    with pytest.raises(ValueError, match="at most 10"):
        BallEigenWitness(11, 0, 0.0, (1.0,)).lift()


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
    squares = [float(i * (n - i + 1)) for i in range(1, r + 1)]
    assert _eigenvalues_below(squares, lam * (1 - 1e-12)) <= r
    assert _eigenvalues_below(squares, lam * (1 + 1e-12)) == r + 1


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
                assert len(g) == fnp + 1, (n, lam)
                assert all(v > 0 for v in g[:fnp]) and g[fnp] <= 0
            else:
                assert all(v > 0 for v in g)


def _dense_pointwise(w, tol):
    f = w.lift()
    af = naive_adjacency(f.values, w.n)
    return bool((f.values >= 0).all() and (af >= (w.lam - tol) * f.values).all())


def test_verify_pointwise_agrees_with_the_dense_check():
    for n in range(1, 13):
        for r in range(n + 1):
            w = lambda_for_radius_recurrence(n, r)
            for shift in (0.0, 1e-6, 0.1):
                v = BallEigenWitness(n, r, w.lam + shift, w.profile)
                assert v.verify_pointwise(tol=1e-9) == _dense_pointwise(v, 1e-9), (n, r, shift)
            assert w.verify_pointwise(tol=1e-9)


def test_verify_pointwise_checks_a_certificate_beyond_dense_reach():
    cert = finite_code_bound(1000, 100).certificate
    w = BallEigenWitness(cert["n"], cert["r"], cert["lambda"], cert["profile"])
    assert w.p == cert["p"]
    assert w.verify_pointwise(tol=1e-9)
    raised = BallEigenWitness(w.n, w.r, w.lam + 1e-6, w.profile)
    assert not raised.verify_pointwise(tol=1e-9)


@pytest.mark.parametrize(
    "n, d", [(9960, 1515), (10000, 1500), (12000, 2000), (16000, 3000), (20000, 4000)]
)
def test_certificates_with_long_double_tails_verify(n, d):
    # the heads end below float64's normal range: unscaled, the first two
    # profiles end in subnormals that fail the check and the others underflow to 0
    cert = finite_code_bound(n, d).certificate
    w = BallEigenWitness(cert["n"], cert["r"], cert["lambda"], cert["profile"])
    assert w.p == cert["p"] and w.verify_pointwise(tol=1e-9)
    assert min(w.profile) >= 2**-1022


def test_recurrence_probes_stop_at_weight_r_plus_one(monkeypatch):
    # a probe that ran on to the profile's own sign change would take O(n)
    # steps, which is minutes at n = 10^8
    lengths = []
    inner = ball_spectra._recurrence

    def spy(*args):
        g, first_nonpos = inner(*args)
        lengths.append(len(g))
        return g, first_nonpos

    monkeypatch.setattr(ball_spectra, "_recurrence", spy)
    w = lambda_for_radius_recurrence(10**6, 1)
    assert len(lengths) == 1 and max(lengths) <= 3
    assert w.p == 1 and w.lam == pytest.approx(1000.0, abs=1e-9)


def test_witness_profile_is_each_long_double_value_as_a_float(monkeypatch):
    # one numpy conversion of the head gives the doubles of float() on each value
    heads = []

    def spy(n, r, lam, profile):
        heads.append(profile)
        return BallEigenWitness(n, r, lam, profile)

    monkeypatch.setattr(ball_spectra, "BallEigenWitness", spy)
    for n in range(65):
        for r in range(n + 1):
            heads.clear()
            w = lambda_for_radius_recurrence(n, r)
            (head,) = heads
            assert head.dtype == np.longdouble
            assert [v.hex() for v in w.profile] == [float(v).hex() for v in head], (n, r)


def _eigenvalues_below(squares, x):
    # Sturm count of the symmetrized profile operator: eigenvalues strictly
    # below x from the LDL^T pivot signs; squares[i-1] = i * (n - i + 1)
    count = 0
    d = -x
    if d < 0:
        count += 1
    for sq in squares:
        if d == 0.0:
            d = -1e-300
        d = -x - sq / d
        if d < 0:
            count += 1
    return count


def _bisect(lo, hi, width, above):
    # shrink [lo, hi] to width around the point where above(x) turns False,
    # or until lo and hi are adjacent floats
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo, hi


def _reference_lambda_ball(n, r):
    # Sturm bisection that multiplies out each off-diagonal square per probe
    def below(x):
        count, d = int(-x < 0), -x
        for i in range(1, r + 1):
            if d == 0.0:
                d = -1e-300
            d = -x - (i * (n - i + 1)) / d
            count += d < 0
        return count

    if r == 0:
        return 0.0
    lo, hi = _bisect(0.0, n + 1.0, 1e-10, lambda x: below(x) <= r)
    return 0.5 * (lo + hi)


def test_lambda_ball_exact_is_within_1e9_of_the_reference_bisection():
    for n in range(81):
        for r in range(n + 1):
            assert abs(lambda_ball_exact(n, r) - _reference_lambda_ball(n, r)) <= 1e-9, (n, r)


def test_lambda_ball_exact_passes_the_exact_sturm_bracket():
    # exact integer sign counts: B(r) reaches lam - tol and, below n, not lam + tol
    tol = 1e-9
    for n in range(41):
        for r in range(n + 1):
            lam = lambda_ball_exact(n, r)
            assert min_radius_for_lambda(n, lam - tol) <= r, (n, r)
            if lam + tol <= n:
                assert r < min_radius_for_lambda(n, lam + tol), (n, r)


def _reference_witness(n, r):
    # the unbracketed bisection: every midpoint runs the long-double probe
    def probe(lam):
        return ball_spectra._recurrence(n, lam, r + 1)[1] <= r + 1

    lam = float(n) if probe(float(n)) else _bisect(0.0, float(n), 1e-12, probe)[0]
    g, first_nonpos = ball_spectra._recurrence(n, lam, r + 1)
    return lam.hex(), tuple(float(v).hex() for v in g[:first_nonpos])


def _bound_query_radii(count, seed):
    # bound-queries' draw: n log-uniform in [100, 10^4], d/n uniform in (0, 1/2]
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n = int(round(math.exp(gen.uniform(math.log(100), math.log(10_000)))))
        d = max(1, int((0.5 - gen.uniform(0.0, 0.5)) * n))
        yield n, min_radius_for_lambda(n, max(n - 2 * d + 1, 0))


def _counting_runs(monkeypatch):
    # patches _recurrence to record each run; returns the list and the original
    inner, runs = ball_spectra._recurrence, []

    def counted(*args):
        runs.append(args)
        return inner(*args)

    monkeypatch.setattr(ball_spectra, "_recurrence", counted)
    return runs, inner


def test_witness_is_one_sound_run_within_4_ulp_of_the_bisection(monkeypatch):
    pairs = [(n, r) for n in range(65) for r in range(n + 1)]
    pairs += list(_bound_query_radii(200, seed=7))
    runs, probe = _counting_runs(monkeypatch)
    for n, r in pairs:
        runs.clear()
        w = lambda_for_radius_recurrence(n, r)
        assert len(runs) == 1, (n, r, len(runs))
        assert w.verify_pointwise(tol=1e-9), (n, r)
        oracle = float.fromhex(_reference_witness(n, r)[0])
        assert oracle - 4 * math.ulp(oracle) <= w.lam <= lambda_ball_exact(n, r) + 1e-9, (n, r)
        if r < n:  # the top eigenvalue lies within 1e-9 of lambda_ball_exact
            x = lambda_ball_exact(n, r)
            assert probe(n, x - 1e-9, r + 1)[1] <= r + 1 < probe(n, x + 1e-9, r + 1)[1], (n, r)
            y = ball_spectra._ball_top(n, r)  # and the start 4 ulp below y is feasible
            assert probe(n, max(y - 4 * math.ulp(y), 0.0), r + 1)[1] <= r + 1, (n, r)


@pytest.mark.parametrize("offset", [1e-9, 1.0, -1.0])
def test_a_wrong_bracket_falls_back_to_the_full_bisection(monkeypatch, offset):
    # a Newton eigenvalue off by offset still gives a sound witness: one too
    # high steps down by doubling steps, one too low only loosens lam
    top = ball_spectra._ball_top
    monkeypatch.setattr(ball_spectra, "_ball_top", lambda n, r: top(n, r) + offset)
    runs, _ = _counting_runs(monkeypatch)
    pairs = [(n, r) for n in range(13) for r in range(n + 1)]
    pairs += list(_bound_query_radii(10, seed=8))
    for n, r in pairs:
        runs.clear()
        w = lambda_for_radius_recurrence(n, r)
        assert w.verify_pointwise(tol=1e-9), (n, r, offset)
        assert len(runs) <= 60, (n, r, len(runs))
        assert w.lam >= lambda_ball_exact(n, r) - 2 * abs(offset) - 1e-9, (n, r, offset)


@pytest.mark.parametrize("n", [7, 64])
def test_full_radius_witness_takes_one_recurrence_run(monkeypatch, n):
    # at r = n every rate is feasible, so lam = n with no Newton eigenvalue:
    # the one recurrence run is the witness, g = 1
    runs, _ = _counting_runs(monkeypatch)
    tops, top = [], ball_spectra._ball_top

    def counted_top(*args):
        tops.append(args)
        return top(*args)

    monkeypatch.setattr(ball_spectra, "_ball_top", counted_top)
    w = lambda_for_radius_recurrence(n, n)
    assert (len(runs), tops) == (1, [])
    assert (w.lam, w.profile) == (float(n), (1.0,) * (n + 1))


def test_bracket_cuts_the_long_double_probes(monkeypatch):
    # the unbracketed bisection runs the recurrence 52 times at (1000, 215),
    # the +-1e-9 bracket 15 and the Newton-refined bracket 5; a start 4 ulp
    # below the Newton eigenvalue is feasible, so the witness is one run
    calls, _ = _counting_runs(monkeypatch)
    lambda_for_radius_recurrence(1000, 215)
    assert len(calls) == 1


def test_ball_top_checks_its_start_at_most_three_times(monkeypatch):
    # the Airy start lies close to the top eigenvalue of a bound radius, so
    # few starts are rejected, each for one O(r) pivot pass
    checks, inner = [], ball_spectra._above_spectrum

    def counted(squares, y):
        checks.append(y)
        return inner(squares, y)

    monkeypatch.setattr(ball_spectra, "_above_spectrum", counted)
    for n, r in _bound_query_radii(300, seed=9):
        checks.clear()
        ball_spectra._ball_top(n, r)
        assert 1 <= len(checks) <= 3, (n, r, len(checks))
