import json
import math

import numpy as np
import pytest

from conftest import even_weight_code, hamming_7_4, naive_covered_counts
from cube_spectra import (
    Code,
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
from cube_spectra.lp_witness import (
    PROP_COVERING,
    PROP_SIZE,
    VERDICT_HOLDS,
    VERDICT_PREMISE_UNMET,
    _ball_moments,
    _ball_table,
    _covered_counts,
    _indicators,
    _linear_chunks,
    effective_distance,
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
    # dual distance exceeds n/2, so the certified premise needs the
    # effective distance; radius 1 reaches it and the union is everything
    rep = check_covering(c, r=1)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.covered == 16
    rep0 = check_covering(c, r=0)
    assert rep0.verdict == VERDICT_PREMISE_UNMET


def test_check_prop_ineq_even_weight_edge_equality():
    c = even_weight_code(4)
    rep = check_prop_ineq(c, subset=SubsetGraph(4, (0b0000, 0b0001)))
    assert rep.verdict == VERDICT_HOLDS
    assert rep.d == 2
    assert rep.lam == pytest.approx(1.0, abs=1e-9)
    assert rep.bound_lhs == 8 and rep.bound_rhs == 8  # tight


def test_check_prop_ineq_antipodal_pair_is_outside_certified_domain():
    # distance n exceeds n/2: the raw premise would pass with a single
    # point but the inequality chain is not certified there (see module
    # docstring); the verdict records the unmet premise instead
    c = Code(5, (0, 0b11111))
    rep = check_prop_ineq(c, ball_r=0)
    assert rep.verdict == VERDICT_PREMISE_UNMET
    assert rep.d == 5 and effective_distance(5, 5) == 2


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


def test_linear_chunks_span_every_code_in_family_order():
    for n in range(1, 8):
        codes = [(lc.expand(), k)
                 for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        chunks = list(_linear_chunks(n, 7))  # chunk boundaries inside each dimension
        masks = np.concatenate([mask for mask, _ in chunks])
        np.testing.assert_array_equal(masks, _indicators([c for c, _ in codes], n))
        if n <= 4:
            members = [member(i) for mask, member in chunks for i in range(len(mask))]
            assert members == [(c, {"mode": "all-linear", "k": k}) for c, k in codes]


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
        (1, "all-linear", 1000, 0, 0, 4),
        (2, "all-linear", 1000, 0, 16, 8),
        (3, "all-linear", 1000, 0, 60, 60),
        (4, "all-linear", 1000, 0, 447, 213),
        (5, "all-linear", 1000, 0, 2868, 1608),
        (6, "all-linear", 1000, 0, 25746, 13790),
        (7, "all-linear", 1000, 0, 301261, 166115),
        (8, "random-general", 200, 1, 2441, 1159),
    ],
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
        d, ef, ef_sq, phi_ratio = _ball_moments(_indicators(codes, n), n, n)
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
        exhaustive_verify(8, "all-linear")
    with pytest.raises(ValueError, match="random-general mode"):
        exhaustive_verify(13, "random-general")
    with pytest.raises(ValueError, match="unknown mode"):
        exhaustive_verify(4, "everything")


def test_verification_error_carries_reproduction_dump():
    c = Code(3, (0, 7))
    rep = check_prop_ineq(c, ball_r=1)
    err = VerificationError(rep, c, {"seed": 0, "mode": "manual"})
    text = str(err)
    assert "reproduction dump" in text
    assert '"codewords"' in text and "000" in text
    payload = json.loads(text.split("dump:\n", 1)[1])
    assert payload["report"]["n"] == 3
