import itertools
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
    hamming_ball,
    hamming_weights,
    int_wht,
    lambda_for_radius_recurrence,
    min_distance,
    min_radius_for_lambda,
    moments,
    phi_from_code,
    random_code,
    wht,
)
from cube_spectra import ball_spectra, bounds, cube_fourier, lp_witness
from cube_spectra import codes as codes_module
from cube_spectra.codes import _echelon_rows, linear_weight_spectra, weight_spectra
from cube_spectra.lp_witness import (
    _CHUNK_ENTRIES,
    PROP_COVERING,
    PROP_SIZE,
    VERDICT_HOLDS,
    _ball_moments,
    _ball_table,
    _coset_keys,
    _covered_counts,
    _family,
    _indicators,
    _linear_chunks,
    _pack,
    _premise_ok,
    _random_chunks,
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
        got = _covered_counts(_pack(_indicators(codes, n)), n, n)
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
        words = _pack(_indicators(stack, n))
        oracle = [naive_covered_counts(c.points, n) for c in stack]
        for r_max in range(n + 1):
            got = _covered_counts(words, n, r_max)
            assert got.dtype == np.int64
            assert got.tolist() == [row[: r_max + 1] for row in oracle], (stack, r_max)


def packed_weight_counts(words, n):
    """Weight counts of packed indicators: popcounts of the words masked by each weight."""
    by_weight = _pack(hamming_weights(n) == np.arange(n + 1)[:, None])
    return np.stack([np.bitwise_count(words & w).sum(axis=1) for w in by_weight], axis=1)


def nearest_codeword_counts(codes, n):
    """naive_covered_counts of codes, a slice of the codes of one size at a time."""
    cube = np.arange(1 << n, dtype=np.uint64)
    counts = np.empty((len(codes), n + 1), dtype=np.int64)
    for size in {c.size for c in codes}:
        rows = [i for i, c in enumerate(codes) if c.size == size]
        points = np.array([codes[i].points for i in rows], dtype=np.uint64)
        step = max(1, (1 << 18) // (size << n))
        for i in range(0, len(rows), step):
            nearest = np.bitwise_count(points[i : i + step, :, None] ^ cube).min(axis=1)
            counts[rows[i : i + step]] = (nearest[:, :, None] <= np.arange(n + 1)).sum(axis=1)
    return counts


def linear_chunks_with_codes():
    """(n, chunk, [(code, k)]) for the chunks of _linear_chunks, in family order.

    Chunks span dimensions, so each is placed by the global offset of its
    first code.  n <= 7: every chunk, at the sweep's budget and, for n <= 6,
    at one parent block a chunk.  n = 8, at the sweep's budget: the first
    chunk (which holds every k = 1 code, 128 cosets each, the fullest byte
    lane), the last, and every chunk that holds the first code of a dimension.
    """
    for n in range(1, 8):
        codes = [(lc.expand(), k) for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        for budget in (1, _CHUNK_ENTRIES)[n // 7 :]:
            start = 0
            for chunk in _linear_chunks(n, budget):
                part = codes[start : start + len(chunk[0])]
                yield n, chunk, part
                start += len(part)
            assert start == len(codes), (n, budget)
    # the n = 8 codes are those of enumerate_linear_codes, built as it builds
    # them from the echelon rows (whose order test_codes pins at n = 8):
    # running the generator up to each chunk would cost seconds
    rows = [_echelon_rows(8, k) for k in range(1, 9)]
    begins = np.cumsum([0] + [len(r) for r in rows])  # global offset of each dimension's first code
    assert begins[-1] == 417_198  # every nonzero subspace of F2^8
    start = 0
    for chunk in _linear_chunks(8, _CHUNK_ENTRIES):
        end = start + len(chunk[0])
        assert start < end
        if end == begins[-1] or ((start <= begins[:-1]) & (begins[:-1] < end)).any():
            assert start > 0 or end >= begins[1]  # the first chunk holds all of k = 1
            yield 8, chunk, [(LinearCode(8, tuple(g)).expand(), k)
                             for k, b, part in zip(range(1, 9), begins, rows)
                             for g in part[max(start - b, 0) : max(end - b, 0)].tolist()]
        start = end
    assert start == begins[-1]


def test_linear_weight_spectra_match_the_transform_on_every_chunk():
    checked = 0
    for n, (_, (pairs, sums), inv), part in linear_chunks_with_codes():
        # one row per distinct weight profile: A = P / |C|, |C| = P_0
        profiles = pairs // pairs[:, :1]
        assert len(np.unique(profiles, axis=0)) == len(profiles) == inv.max() + 1
        np.testing.assert_array_equal(linear_weight_spectra(profiles), (pairs, sums))
        assert len(inv) == len(part)
        mask = _indicators([c for c, _ in part], n)
        np.testing.assert_array_equal(profiles[inv], packed_weight_counts(_pack(mask), n))
        for got, want in zip((pairs[inv], sums[inv]), weight_spectra(mask)):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        checked += n == 8
    assert checked == 6


def test_linear_chunks_span_every_code_in_family_order():
    # covered counts against the packed path and the nearest-codeword oracle
    checked = 0
    for n, (covered, _, inv), part in linear_chunks_with_codes():
        codes = [c for c, _ in part]
        assert len(covered) == len(inv) == len(codes)
        assert covered.dtype == np.int64
        assert covered.tolist() == _covered_counts(_pack(_indicators(codes, n)), n, n).tolist()
        np.testing.assert_array_equal(covered, nearest_codeword_counts(codes, n))
        if n <= 6:
            assert covered.tolist() == [naive_covered_counts(c.points, n) for c in codes]
        checked += n == 8
    assert checked == 6


def replayed_random_family(n, trials, seed):
    """(code, context) per trial, by a direct replay of the seeded draws: min_d, then code_seed."""
    rng, family = np.random.default_rng(seed), []
    for t in range(trials):
        min_d, code_seed = int(rng.integers(1, n + 1)), int(rng.integers(0, 2**63))
        context = {"mode": "random-general", "trial": t, "min_d": min_d, "code_seed": code_seed}
        family.append((random_code(n, min_d, code_seed), context))
    return family


@pytest.mark.filterwarnings("ignore::cube_spectra.SingletonDistanceWarning")
def test_family_yields_the_chunks_codes_and_contexts_in_order():
    # the sweep rebuilds a failing code as item (codes in earlier chunks + i)
    # of _family, so its items must be the chunks' codes, in chunk order
    for n in range(1, 6):
        want = [(lc.expand(), {"mode": "all-linear", "k": k})
                for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        assert [(build(), ctx) for build, ctx in _family(n, "all-linear", 5, 1)] == want
        for budget in (1, 7 << n, _CHUNK_ENTRIES):
            family = _family(n, "all-linear", 0, 0)
            for covered, (pairs, sums), inv in _linear_chunks(n, budget):
                codes = [build() for build, _ in itertools.islice(family, len(inv))]
                assert len(codes) == len(inv)
                np.testing.assert_array_equal(covered, nearest_codeword_counts(codes, n))
                spectra = weight_spectra(_indicators(codes, n))
                np.testing.assert_array_equal(np.stack([pairs[inv], sums[inv]]), spectra)
            assert next(family, None) is None, (n, budget)
        for seed in (1, 2):
            want = replayed_random_family(n, 9, seed)
            family = list(_family(n, "random-general", 9, seed))
            assert [(build(), ctx) for build, ctx in family] == want
            chunks = list(_random_chunks(iter(family), n, 4))
            assert [len(inv) for _, _, inv in chunks] == [4, 4, 1]
            covered = np.concatenate([c for c, _, _ in chunks])
            codes = [c for c, _ in want]
            np.testing.assert_array_equal(covered, nearest_codeword_counts(codes, n))


def test_coset_keys_match_brute_force_cosets():
    # every coset of every code with n <= 5: the weight counts of z + C, with
    # z on the non-pivot columns (bit j on the j-th lowest), and its leader
    # weight as the sweep reads it off the key
    for n in range(1, 6):
        for k in range(n + 1):
            family = [LinearCode(n, ())] if k == 0 else list(enumerate_linear_codes(n, k))
            keys = _coset_keys(n, k)
            assert keys.shape == (len(family), 1 << (n - k)) and keys.dtype == np.int64
            lead = np.bitwise_count((keys & -keys) - 1) // 7
            for lc, row, row_lead in zip(family, keys.tolist(), lead.tolist()):
                words = lc.expand().points
                pivots = {(g & -g).bit_length() - 1 for g in lc.generators}
                free = [i for i in range(n) if i not in pivots]
                for z in range(1 << (n - k)):
                    v = sum(1 << col for j, col in enumerate(free) if z >> j & 1)
                    weights = [bin(v ^ c).count("1") for c in words]
                    counts = [weights.count(w) for w in range(n + 1)]
                    assert row[z] == sum(a << 7 * w for w, a in enumerate(counts)), (n, k, z)
                    assert row_lead[z] == min(weights), (n, k, z)


def reversed_indicators(codes, n):
    """_indicators of the codes with their coordinates reversed: x at rev_n(x)."""
    x = np.arange(1 << n)
    rev = sum((x >> i & 1) << (n - 1 - i) for i in range(n))
    return np.ascontiguousarray(_indicators(codes, n)[:, rev])


def test_covered_and_weight_counts_survive_coordinate_reversal():
    # reversing the coordinates, an isometry of the cube, changes no count of the packed path
    rng = np.random.default_rng(14)
    codes = [lc.expand() for n in range(1, 6) for k in range(1, n + 1)
             for lc in enumerate_linear_codes(n, k)]
    for seed in range(200):
        n = int(rng.integers(1, 13))
        codes.append(random_code(n, int(rng.integers(1, n + 1)), seed))
    for n in range(1, 13):
        stack = [c for c in codes if c.n == n]
        assert stack, n
        counts = []
        for words in (_pack(_indicators(stack, n)), _pack(reversed_indicators(stack, n))):
            weights = packed_weight_counts(words, n)
            counts.append(np.concatenate([_covered_counts(words, n, n), weights], axis=1))
        np.testing.assert_array_equal(*counts)


def test_sweep_memoizes_only_the_shorter_coset_tables():
    # a memoized n = 8 top level would stay resident, about 60 MB
    _coset_keys.cache_clear()
    try:
        exhaustive_verify(8, "all-linear")
        info = _coset_keys.cache_info()  # each (n', k'), n' <= 7, built once; none of length 8
        assert info.currsize == info.misses == sum(range(1, 9))
        for k in range(8):
            _coset_keys(7, k)
        assert _coset_keys.cache_info().hits == info.hits + 8
        assert _coset_keys.cache_info().misses == info.misses
    finally:
        _coset_keys.cache_clear()


def test_all_linear_sweep_of_length_8_memory_stays_small():
    # a cold sweep builds the coset tables of length 7, about 3 MB, and cuts
    # those of length 8 from them a chunk at a time
    _coset_keys.cache_clear()
    _ball_table.cache_clear()
    tracemalloc.start()
    try:
        exhaustive_verify(8, "all-linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_weight_counts_fit_the_seven_bit_profile_key():
    # _coset_keys packs A_w <= C(n, w) into 7 bits a weight, n <= 8; the
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


def test_float_premise_agrees_with_the_exact_minimal_radius():
    # the sweep's premise lambda_r >= n - 2d + 1 - tol, read at the raw d
    # (n + 1 for a one-word code), holds exactly from the exact r* on
    triples = 0
    for n in range(1, 25):
        lam = _ball_table(n)[0]
        for d in range(1, n + 2):
            r_star = min_radius_for_lambda(n, max(n - 2 * d + 1, 0))
            met = _premise_ok(n, d, lam, 1e-9)
            assert met.tolist() == [r >= r_star for r in range(n + 1)], (n, d)
            triples += n + 1
    assert triples == 5524


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
    (8, "all-linear", {}),
])
def test_results_do_not_depend_on_chunk_boundaries(monkeypatch, n, mode, kwargs):
    summary = exhaustive_verify(n, mode, **kwargs)
    violation = first_violation(n, mode, **kwargs)
    build, spans = lp_witness._linear_chunk, []

    def chunk(n, keys, sums):  # notes whether the chunk holds codes of two sizes
        counts = np.concatenate(keys)[:, None] >> 7 * np.arange(n + 1) & 127
        spans.append(len(np.unique(counts.sum(axis=1))) > 1)  # a code's counts sum to 2^k
        return build(n, keys, sums)

    for codes_per_chunk in (1, 7):
        with monkeypatch.context() as m:
            m.setattr(lp_witness, "_CHUNK_ENTRIES", codes_per_chunk << n)
            m.setattr(lp_witness, "_linear_chunk", chunk)
            assert exhaustive_verify(n, mode, **kwargs) == summary
            assert any(spans) == (mode == "all-linear")  # linear chunks span dimensions
            assert first_violation(n, mode, **kwargs) == violation
            spans.clear()


def test_a_failing_code_is_rebuilt_by_its_place_in_the_family(monkeypatch):
    # zeroed covered counts make the exact headline fail for one code deep in
    # the family, past many chunks; the dump must name that code
    n = 6
    linear = [(lc.expand(), {"mode": "all-linear", "k": k})
              for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
    random = replayed_random_family(n, 40, 3)
    monkeypatch.setattr(lp_witness, "_CHUNK_ENTRIES", 7 << n)
    for name, mode, family in (("_linear_chunks", "all-linear", linear),
                               ("_random_chunks", "random-general", random)):
        chunks = getattr(lp_witness, name)
        for target in (1, len(family) // 2, len(family) - 1):
            def zeroed(*args, target=target, chunks=chunks):
                start = 0
                for covered, spectra, inv in chunks(*args):
                    if start <= target < start + len(inv):
                        covered[target - start] = 0
                    start += len(inv)
                    yield covered, spectra, inv

            monkeypatch.setattr(lp_witness, name, zeroed)
            with pytest.raises(VerificationError) as info:
                exhaustive_verify(n, mode, trials=40, seed=3)
            code, context = family[target]
            assert (info.value.code, info.value.context) == (code, {"seed": 3, **context})
            assert info.value.report.proposition == PROP_COVERING


def test_all_linear_sweep_memory_stays_small():
    # a sweep's peak shows in the benchmark's peak RSS: chunks of 8,192 codes
    # of any dimensions at n = 7, checked once per distinct weight profile,
    # trace about 1.0 MiB warm
    exhaustive_verify(7, "all-linear")
    tracemalloc.start()
    try:
        exhaustive_verify(7, "all-linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_cold_all_linear_sweep_memory_stays_small():
    # the benchmark clears every functools cache of the library before each
    # sweep, so its peak RSS sees the cold peak: the coset tables of lengths
    # up to 6 and the chunks of 8,192 codes built from them
    for mod in (cube_fourier, codes_module, ball_spectra, bounds, lp_witness):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()
    tracemalloc.start()
    try:
        exhaustive_verify(7, "all-linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20


def test_verification_error_carries_reproduction_dump():
    c = Code(3, (0, 7))
    rep = check_prop_ineq(c, ball_r=1)
    err = VerificationError(rep, c, {"seed": 0, "mode": "manual"})
    text = str(err)
    assert "reproduction dump" in text
    assert '"codewords"' in text and "000" in text
    payload = json.loads(text.split("dump:\n", 1)[1])
    assert payload["report"]["n"] == 3


def test_radius_checks_refuse_a_radius_outside_zero_to_n():
    code = Code(4, (0, 15))
    calls = [
        lambda r: check_prop_ineq(code, ball_r=r),
        lambda r: check_covering(code, r=r),
        lambda r: hamming_ball(4, r),
        lambda r: lambda_for_radius_recurrence(4, r),
    ]
    for call in calls:
        for r in (-1, 5):
            with pytest.raises(ValueError, match=r"radius must be in \[0, n\]"):
                call(r)
