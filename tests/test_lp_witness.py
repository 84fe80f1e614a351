import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import even_weight_code, hamming_7_4, naive_covered_counts
from cube_spectra import (
    Code,
    LinearCode,
    SubsetGraph,
    VerificationError,
    adjacency_apply,
    build_covering_witness,
    check_covering,
    check_prop_ineq,
    convolve,
    covered_fraction,
    dual_distance,
    enumerate_linear_codes,
    essential_support_size,
    exhaustive_verify,
    hamming_weights,
    int_wht,
    lambda_for_radius_recurrence,
    min_distance,
    moments,
    phi_from_code,
    random_code,
    wht,
)
from cube_spectra import lp_witness
from cube_spectra.codes import _echelon_rows, linear_weight_spectra, weight_spectra
from cube_spectra.lp_witness import (
    _LINEAR_CHUNK_ENTRIES,
    PROP_COVERING,
    PROP_SIZE,
    VERDICT_HOLDS,
    _ball_moments,
    _ball_table,
    _covered_counts,
    _indicators,
    _linear_chunks,
)


def test_build_covering_witness_delta_case():
    c = Code(3, (0,))
    w = lambda_for_radius_recurrence(3, 0)
    F = build_covering_witness(c, w)
    want = np.zeros(8)
    want[0] = 1 / 8
    np.testing.assert_allclose(F.values, want, atol=1e-15)


def test_build_covering_witness_two_balls():
    c = Code(4, (0b0000, 0b1111))
    w = lambda_for_radius_recurrence(4, 1)
    F = build_covering_witness(c, w)
    assert (F.values >= -1e-15).all()
    assert int(np.count_nonzero(F.values > 1e-12)) == 10  # two disjoint balls


def test_build_covering_witness_full_cube_gives_constant():
    c = Code(3, tuple(range(8)))
    w = lambda_for_radius_recurrence(3, 1)
    F = build_covering_witness(c, w)
    mean_f = float(w.lift().values.mean())
    np.testing.assert_allclose(F.values, np.full(8, mean_f), atol=1e-12)


def test_build_covering_witness_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        build_covering_witness(Code(3, (0,)), lambda_for_radius_recurrence(4, 1))


def test_phi_self_dual_example():
    phi = phi_from_code(Code(2, (0, 3)))
    np.testing.assert_allclose(
        phi.values, [math.sqrt(2), 0.0, 0.0, math.sqrt(2)], atol=1e-12
    )


def test_phi_single_point():
    phi = phi_from_code(Code(3, (5,)))
    mean, second = moments(phi)
    assert second / mean**2 == pytest.approx(1.0, abs=1e-9)


def test_phi_linear_is_multiple_of_dual_indicator():
    from cube_spectra import LinearCode, dual_code

    lc = LinearCode.from_spanning(5, [0b10101, 0b01111])
    phi = phi_from_code(lc.expand())
    dual_pts = set(dual_code(lc).expand().points)
    scale = phi.values[0]
    assert scale > 0
    for x in range(32):
        want = scale if x in dual_pts else 0.0
        assert abs(phi.values[x] - want) < 1e-9


def test_phi_properties_on_random_codes(rng):
    for trial in range(40):
        n = int(rng.integers(2, 11))
        c = random_code(n, int(rng.integers(1, n + 1)), seed=trial)
        phi = phi_from_code(c)
        mean, second = moments(phi)
        assert second / mean**2 == pytest.approx(c.size, abs=1e-9)
        auto = convolve(phi, phi).values
        assert (auto >= -1e-12).all()


def test_check_covering_two_word_code_ball():
    c = Code(4, (0b0000, 0b1111))
    assert dual_distance(c) == 2
    rep = check_covering(c, r=1)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.premise_ok and rep.d == 2
    assert rep.lam == pytest.approx(2.0, abs=1e-9)
    assert rep.covered == 10
    assert rep.bound_lhs == 10 and rep.bound_rhs == 4.0


def test_check_covering_subset_edge_equality():
    c = Code(4, (0b0000, 0b1111))
    rep = check_covering(c, subset=SubsetGraph(4, (0b0000, 0b0001)))
    assert rep.verdict == VERDICT_HOLDS
    assert rep.lam == pytest.approx(1.0, abs=1e-9)
    assert rep.covered == 4  # exactly 2^4 / 4: the tight case
    assert rep.r is None


def test_check_covering_whole_cube():
    c = Code(4, tuple(range(16)))
    assert dual_distance(c) == 5
    # dual distance 5 > n/2: a single point reaches n - 2d + 1 = -5, and the
    # chain runs with m = 2d = 10, so 2^4 / 10 points must be covered
    rep = check_covering(c, r=1)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.covered == 16
    rep0 = check_covering(c, r=0)
    assert rep0.verdict == VERDICT_HOLDS and rep0.premise_ok
    assert rep0.d == 5 and rep0.covered == 16 and rep0.bound_rhs == 1.6


def test_check_prop_ineq_even_weight_edge_equality():
    c = even_weight_code(4)
    rep = check_prop_ineq(c, subset=SubsetGraph(4, (0b0000, 0b0001)))
    assert rep.verdict == VERDICT_HOLDS
    assert rep.d == 2
    assert rep.lam == pytest.approx(1.0, abs=1e-9)
    assert rep.bound_lhs == 8 and rep.bound_rhs == 8  # tight


def test_check_prop_ineq_antipodal_pair_beyond_half_distance():
    # distance 5 > n/2: a single point reaches n - 2d + 1 = -4, and the chain
    # runs with m = 2d = 10 in place of n
    c = Code(5, (0, 0b11111))
    rep = check_prop_ineq(c, ball_r=0)
    assert rep.verdict == VERDICT_HOLDS and rep.premise_ok
    assert rep.d == 5 and rep.bound_lhs == 2 and rep.bound_rhs == 10


def test_check_prop_ineq_even_weight_code_of_length_three_is_tight():
    # lambda_B = 0 = n - 2d + 1 for B = {0}; |C| = 4 exceeds n |B| = 3 but
    # meets m |B| = 2d |B| = 4, with ef_sq = m * ef2
    c = even_weight_code(3)
    for rep in (check_prop_ineq(c, ball_r=0), check_prop_ineq(c, subset=SubsetGraph(3, (0,)))):
        assert rep.verdict == VERDICT_HOLDS and rep.premise_ok and rep.d == 2
        assert rep.bound_lhs == rep.bound_rhs == 4
        assert rep.ef_sq == pytest.approx(4 * rep.ef2, rel=1e-12)


def test_check_prop_ineq_hamming_code_ball():
    c = hamming_7_4()
    rep = check_prop_ineq(c, ball_r=1)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.d == 3
    assert rep.lam == pytest.approx(math.sqrt(7), abs=1e-9)
    assert rep.bound_lhs == 16 and rep.bound_rhs == 7 * 8
    assert rep.phi_ratio == pytest.approx(16.0, abs=1e-9)


def test_check_requires_exactly_one_route():
    c = Code(3, (0, 7))
    with pytest.raises(ValueError, match="exactly one"):
        check_prop_ineq(c)
    with pytest.raises(ValueError, match="exactly one"):
        check_covering(c, r=1, subset=SubsetGraph(3, (0,)))
    with pytest.raises(ValueError, match="mismatch"):
        check_covering(c, subset=SubsetGraph(4, (0,)))


def test_report_json_fields():
    rep = check_covering(Code(4, (0b0000, 0b1111)), r=1)
    d = rep.to_json_dict()
    for key in (
        "proposition", "n", "d", "r", "lambda", "premise_ok",
        "ef2", "ef_sq", "covered", "bound_lhs", "bound_rhs", "verdict",
    ):
        assert key in d
    json.dumps(d)  # serializable
    assert d["proposition"] == PROP_COVERING
    assert d["lambda"] == rep.lam


def test_covered_fraction_examples():
    c = Code(4, (0b0000, 0b1111))
    assert covered_fraction(c, 1) == 10 / 16
    assert covered_fraction(c, 0) == 2 / 16
    assert covered_fraction(c, 4) == 1.0


def test_covered_fraction_cap(monkeypatch):
    monkeypatch.setenv("CUBE_SPECTRA_MAX_N", "3")
    with pytest.raises(ValueError, match="capped"):
        covered_fraction(Code(4, (0,)), 1)


def test_single_code_checks_share_the_sweep_cap():
    # both checks on both routes refuse n = 25 at once; past the cap they
    # would allocate gigabytes, so a child process bounds time and memory
    code = (
        "import json, time\n"
        "from cube_spectra import Code, SubsetGraph, check_covering, check_prop_ineq\n"
        "c, out = Code(25, (0, 1)), []\n"
        "for check in (check_covering, check_prop_ineq):\n"
        "    for route in ((1,), (None, SubsetGraph(25, (0, 1)))):\n"
        "        t = time.perf_counter()\n"
        "        try:\n"
        "            check(c, *route)\n"
        "        except ValueError as exc:\n"
        "            out.append([str(exc), time.perf_counter() - t])\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        check=True,
    )
    results = json.loads(proc.stdout)
    assert len(results) == 4
    for message, seconds in results:
        assert message == "exact sweep capped at n=24, got n=25" and seconds < 1.0


@pytest.mark.filterwarnings("ignore::cube_spectra.SingletonDistanceWarning")
def test_covered_counts_match_the_nearest_codeword_oracle():
    # n < 6 packs into one partial word, bits 0..5 flip inside a word and
    # bits 6.. swap words
    rng = np.random.default_rng(17)
    by_n = {
        n: [lc.expand() for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        for n in range(1, 6)
    }
    for t in range(200):
        n = int(rng.integers(1, 13))
        by_n.setdefault(n, []).append(random_code(n, int(rng.integers(1, n + 2)), seed=t))
    assert set(by_n) == set(range(1, 13))
    for n, codes in by_n.items():
        got = _covered_counts(_indicators(codes, n), n, n)
        for c, row in zip(codes, got.tolist()):
            assert row == naive_covered_counts(c.points, n), (n, c.points)


def test_covered_counts_stop_once_every_row_covers_the_cube():
    # rows fill at radii 0..4 < n, so the dilations stop after radius 4 and
    # radii 5..7 are filled in; a singleton row (radius 7) runs them all
    n = 7
    codes = [Code(n, tuple(range(1 << n))), hamming_7_4(), LinearCode(n, (121, 2, 4)).expand(),
             Code(n, (0, 127)), Code(n, (0, 31))]
    want = [naive_covered_counts(c.points, n) for c in codes]
    assert [row.index(1 << n) for row in want] == [0, 1, 2, 3, 4]
    singleton = Code(n, (0,))
    for stack in (codes, codes + [singleton], *([c] for c in codes)):
        mask = _indicators(stack, n)
        oracle = [naive_covered_counts(c.points, n) for c in stack]
        for r_max in range(n + 1):
            got = _covered_counts(mask, n, r_max)
            assert got.dtype == np.int64
            assert got.tolist() == [row[: r_max + 1] for row in oracle], (stack, r_max)


def test_linear_weight_spectra_match_the_transform_on_every_chunk():
    # n = 8 costs seconds through the butterfly: there only the first and
    # last chunk of each dimension
    for n in range(1, 9):
        step = max(1, _LINEAR_CHUNK_ENTRIES >> n)
        per_k = np.array([-(-len(_echelon_rows(n, k)) // step) for k in range(1, n + 1)])
        ends = np.cumsum(per_k)
        wanted = set((ends - 1).tolist()) | set((ends - per_k).tolist())
        checked = codes = 0
        for i, (mask, (pairs, sums), inv, _) in enumerate(_linear_chunks(n, step)):
            codes += len(mask)
            # one row per distinct weight profile: A = P / |C|, |C| = P_0
            profiles = pairs // pairs[:, :1]
            assert len(np.unique(profiles, axis=0)) == len(profiles) == inv.max() + 1
            np.testing.assert_array_equal(linear_weight_spectra(profiles), (pairs, sums))
            if n == 8 and i not in wanted:
                continue
            for got, want in zip((pairs[inv], sums[inv]), weight_spectra(mask)):
                assert got.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(got, want)
            checked += 1
        assert checked == (len(wanted) if n == 8 else ends[-1])
    assert codes == 417_198  # every nonzero subspace of F2^8: the n = 8 sweep's codes


def test_linear_chunks_span_every_code_in_family_order():
    for n in range(1, 8):
        codes = [(lc.expand(), k)
                 for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        chunks = list(_linear_chunks(n, 7))  # chunk boundaries inside each dimension
        masks = np.concatenate([mask for mask, *_ in chunks])
        np.testing.assert_array_equal(masks, _indicators([c for c, _ in codes], n))
        if n <= 4:
            members = [member(i) for mask, *_, member in chunks for i in range(len(mask))]
            assert members == [(c, {"mode": "all-linear", "k": k}) for c, k in codes]


def test_weight_counts_fit_the_seven_bit_profile_key():
    # _linear_chunks packs A_w <= C(n, w) into 7 bits a weight, n <= 8; the
    # largest counts must give the exact key, with no int64 overflow
    for n in range(1, 9):
        top = [math.comb(n, w) for w in range(n + 1)]
        assert max(top) < 1 << 7
        key = np.array(top) @ (1 << 7 * np.arange(n + 1))
        assert key == sum(a << 7 * w for w, a in enumerate(top))


def test_witness_convolution_eigen_inequality():
    # AF >= lambda F pointwise, F the indicator-convolved witness
    for n, r in ((5, 2), (8, 3)):
        c = random_code(n, 2, seed=n)
        w = lambda_for_radius_recurrence(n, r)
        F = build_covering_witness(c, w)
        AF = adjacency_apply(F)
        assert (AF.values >= (w.lam - 1e-9) * F.values - 1e-9).all()


def test_spectral_cutoff_identity(rng):
    # <AF, F> equals the weight-cut spectral sum of the squared transform
    n = 6
    c = random_code(n, 3, seed=11)
    w = lambda_for_radius_recurrence(n, 2)
    F = build_covering_witness(c, w)
    AF = adjacency_apply(F)
    lhs = float((AF.values * F.values).mean())
    fhat = wht(F).values
    weights = hamming_weights(n).astype(np.float64)
    rhs = float(((n - 2 * weights) * fhat * fhat).sum())
    assert abs(lhs - rhs) < 1e-9


def test_witness_transform_vanishes_below_dual_distance():
    c = even_weight_code(5)
    d = dual_distance(c)
    assert d == 5
    t = int_wht(c.int_indicator()).values
    w = hamming_weights(5)
    assert (t[(w > 0) & (w < d)] == 0).all()
    fhat = wht(lambda_for_radius_recurrence(5, 2).lift()).values
    product = t.astype(np.float64) / 32 * fhat
    assert (product[(w > 0) & (w < d)] == 0).all()  # exact zeros


def test_essential_support_of_witness_meets_covering_threshold():
    c = Code(4, (0b0000, 0b1111))
    w = lambda_for_radius_recurrence(4, 1)
    F = build_covering_witness(c, w)
    assert essential_support_size(F) >= 16 / 4 - 1e-9


def test_exhaustive_all_linear_small():
    s = exhaustive_verify(4, "all-linear")
    assert s["violations"] == 0
    assert s["codes"] == 66
    assert s["holds"] + s["premise_unmet"] == 2 * 66 * 5  # both props, all radii


def test_exhaustive_vacuous_n1():
    s = exhaustive_verify(1, "all-linear")
    assert s["violations"] == 0 and s["codes"] == 1


def test_exhaustive_random_mode():
    s = exhaustive_verify(6, "random-general", trials=50, seed=3)
    assert s["violations"] == 0
    assert s["codes"] == 50
    assert s["trials"] == 50


def test_exhaustive_threads_deterministic():
    a = exhaustive_verify(5, "all-linear", threads=1)
    b = exhaustive_verify(5, "all-linear", threads=3)
    assert a == b


def test_exhaustive_counts_match_public_checks():
    n = 3
    from cube_spectra import enumerate_linear_codes

    holds = unmet = 0
    for k in range(1, n + 1):
        for lc in enumerate_linear_codes(n, k):
            c = lc.expand()
            for r in range(n + 1):
                for rep in (check_prop_ineq(c, ball_r=r), check_covering(c, r=r)):
                    if rep.verdict == VERDICT_HOLDS:
                        holds += 1
                    else:
                        unmet += 1
    s = exhaustive_verify(n, "all-linear")
    assert s["holds"] == holds and s["premise_unmet"] == unmet


@pytest.mark.parametrize(
    "n, mode, trials, seed, holds, unmet",
    [
        (1, "all-linear", 1000, 0, 4, 0),
        (2, "all-linear", 1000, 0, 19, 5),
        (3, "all-linear", 1000, 0, 82, 38),
        (4, "all-linear", 1000, 0, 458, 202),
        (5, "all-linear", 1000, 0, 2931, 1545),
        (6, "all-linear", 1000, 0, 25821, 13715),
        (7, "all-linear", 1000, 0, 302010, 165366),
        (8, "all-linear", 1000, 0, 4432895, 3076669),
        (8, "random-general", 200, 1, 2571, 1029),
    ],
    # the ids leave the counts out, so a changed pin keeps the test's name
    ids=[*(f"{n}-all-linear" for n in range(1, 9)), "8-random-general"],
)
def test_exhaustive_verdict_counts_pinned(n, mode, trials, seed, holds, unmet):
    s = exhaustive_verify(n, mode, trials=trials, seed=seed)
    assert (s["holds"], s["premise_unmet"], s["violations"]) == (holds, unmet, 0)


def test_exhaustive_raises_the_first_violation_in_family_order():
    # a negative tolerance makes tight inequalities fail, which exercises the
    # violation path: the first failing (code, radius, proposition) in the
    # order of the family, with the report the single checks give
    tol = -0.5
    first = None
    for k in range(1, 4):
        for lc in enumerate_linear_codes(3, k):
            c = lc.expand()
            for r in range(4):
                for rep in (check_prop_ineq(c, r, tol=tol), check_covering(c, r, tol=tol)):
                    if first is None and rep.verdict == "violated":
                        first = (c, k, rep)
    assert first is not None
    with pytest.raises(VerificationError) as info:
        exhaustive_verify(3, "all-linear", tol=tol)
    c, k, rep = first
    got = info.value.report
    assert info.value.code == c
    assert info.value.context == {"seed": 0, "mode": "all-linear", "k": k}
    assert (got.proposition, got.r, got.d, got.verdict, got.failures) == (
        rep.proposition, rep.r, rep.d, rep.verdict, rep.failures
    )
    assert got.ef_sq == pytest.approx(rep.ef_sq, rel=1e-12)


def dense_moments(c, witness):
    """Both witnesses' moments from dense 2^n arrays, for one code and radius."""
    f = witness.lift()
    phi = phi_from_code(c)
    ef_size, sq_size = moments(convolve(phi, f))
    ef_cover, sq_cover = moments(build_covering_witness(c, witness))
    phi_mean, phi_second = moments(phi)
    return {
        "ef": (ef_size, ef_cover),
        "ef2": (ef_size**2, ef_cover**2),
        "ef_sq": (sq_size, sq_cover),
        "ess_f": essential_support_size(f),
        "phi_ratio": phi_second / phi_mean**2,
    }


@pytest.mark.filterwarnings("ignore::cube_spectra.SingletonDistanceWarning")
def test_sharp_inequality_holds_on_every_premise_met_row():
    # (lambda - n + 2d) ef_sq <= 2d ef2 for every d: the chain behind m = max(n, 2d).
    # Equality is reached (minimum slack 0), so the check allows rounding.
    for n in range(1, 7):
        codes = [lc.expand() for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        d, ef, ef_sq, _ = _ball_moments(weight_spectra(_indicators(codes, n)), n, n)
        lam = _ball_table(n)[0][None, :, None]  # (code, r, prop)
        d = d[:, None, :]
        met = lam >= n - 2 * d + 1 - 1e-9
        lhs, rhs = (lam - n + 2 * d) * ef_sq, 2 * d * ef * ef
        assert met.sum() > 0
        assert (lhs <= rhs * (1 + 1e-12))[met].all(), n


@pytest.mark.filterwarnings("ignore::cube_spectra.SingletonDistanceWarning")
def test_weight_space_moments_match_dense_oracle():
    rng = np.random.default_rng(99)
    by_n = {
        n: [lc.expand() for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        for n in range(1, 6)
    }
    for t in range(200):
        n = int(rng.integers(1, 11))
        by_n.setdefault(n, []).append(random_code(n, int(rng.integers(1, n + 2)), seed=t))

    def close(got, want):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    checked = 0
    for n, codes in by_n.items():
        d, ef, ef_sq, phi_ratio = _ball_moments(weight_spectra(_indicators(codes, n)), n, n)
        ess_f = _ball_table(n)[1]
        witnesses = [lambda_for_radius_recurrence(n, r) for r in range(n + 1)]
        for i, c in enumerate(codes):
            assert (d[i, 0], d[i, 1]) == (min_distance(c), dual_distance(c))
            for r, w in enumerate(witnesses):
                want = dense_moments(c, w)
                for k in range(2):
                    close(ef[i, r, k], want["ef"][k])
                    close(ef[i, r, k] ** 2, want["ef2"][k])
                    close(ef_sq[i, r, k], want["ef_sq"][k])
                close(ess_f[r], want["ess_f"])
                close(phi_ratio[i], want["phi_ratio"])
                checked += 1
    assert checked > 2000


def test_exhaustive_mode_validation():
    with pytest.raises(ValueError, match="all-linear mode"):
        exhaustive_verify(9, "all-linear")
    with pytest.raises(ValueError, match="random-general mode"):
        exhaustive_verify(13, "random-general")
    with pytest.raises(ValueError, match="unknown mode"):
        exhaustive_verify(4, "everything")
    with pytest.raises(ValueError, match="trials must be >= 0"):
        exhaustive_verify(6, "random-general", trials=-5)
    assert exhaustive_verify(6, "random-general", trials=0)["codes"] == 0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_is_rejected(tol):
    # nan fails every comparison (all premises unmet), inf passes or fails all
    for mode, kwargs in (("all-linear", {}), ("random-general", {"trials": 0})):
        with pytest.raises(ValueError, match="tol must be finite"):
            exhaustive_verify(3, mode, tol=tol, **kwargs)
    c = Code(3, (0, 7))
    for check in (check_prop_ineq, check_covering):
        with pytest.raises(ValueError, match="tol must be finite"):
            check(c, 1, tol=tol)


def first_violation(n, mode, **kwargs):
    with pytest.raises(VerificationError) as info:
        exhaustive_verify(n, mode, tol=-1e-6, **kwargs)
    e = info.value
    return e.code, e.context, e.report.r, e.report.proposition, str(e)


@pytest.mark.parametrize("n, mode, kwargs", [
    (6, "all-linear", {}),
    (7, "all-linear", {}),
    (8, "random-general", {"trials": 150, "seed": 1}),
])
def test_results_do_not_depend_on_chunk_boundaries(monkeypatch, n, mode, kwargs):
    summary = exhaustive_verify(n, mode, **kwargs)
    violation = first_violation(n, mode, **kwargs)
    for codes_per_chunk in (1, 7):
        with monkeypatch.context() as m:
            for name in ("_CHUNK_ENTRIES", "_LINEAR_CHUNK_ENTRIES"):
                m.setattr(lp_witness, name, codes_per_chunk << n)
            # one-code chunks cost 13 s over the 29,211 codes of n = 7
            if (n, codes_per_chunk) != (7, 1):
                assert exhaustive_verify(n, mode, **kwargs) == summary
            assert first_violation(n, mode, **kwargs) == violation


def test_all_linear_sweep_memory_stays_small():
    # a sweep's peak shows in the benchmark's peak RSS: 2,048 codes per chunk
    # at n = 7, checked once per distinct weight profile, trace about 1.5 MiB
    exhaustive_verify(7, "all-linear")
    tracemalloc.start()
    try:
        exhaustive_verify(7, "all-linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_verification_error_carries_reproduction_dump():
    c = Code(3, (0, 7))
    rep = check_prop_ineq(c, ball_r=1)
    err = VerificationError(rep, c, {"seed": 0, "mode": "manual"})
    text = str(err)
    assert "reproduction dump" in text
    assert '"codewords"' in text and "000" in text
    payload = json.loads(text.split("dump:\n", 1)[1])
    assert payload["report"]["n"] == 3
