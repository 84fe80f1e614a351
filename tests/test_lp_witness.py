import functools
import itertools
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import even_weight_code, hamming_7_4, naive_adjacency, naive_covered_counts
from cube_spectra import (
    Code,
    LinearCode,
    SubsetGraph,
    VerificationError,
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
    random_code,
    wht,
)
from cube_spectra import ball_spectra, bounds, cube_fourier, lp_witness
from cube_spectra import codes as codes_module
from cube_spectra.cli import main
from cube_spectra.codes import (
    _echelon_rows,
    first_positive_weight,
    linear_weight_spectra,
    weight_spectra,
)
from cube_spectra.lp_witness import (
    PROP_COVERING,
    PROP_SIZE,
    VERDICT_HOLDS,
    _ball_moments,
    _ball_table,
    _coset_keys,
    _covered_counts,
    _family,
    _indicators,
    _linear_entries,
    _premise_ok,
    _random_chunks,
)
from oracles import build_covering_witness, phi_from_code


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
    from cube_spectra import LinearCode
    from oracles import dual_code

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
    monkeypatch.setattr(cube_fourier, "SWEEP_DIMENSION_CAP", 3)
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


def indicator_weight_counts(mask, n):
    """Weight counts of boolean indicator rows: the points of each weight in each row."""
    return mask.astype(np.int64) @ (hamming_weights(n)[:, None] == np.arange(n + 1))


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


@functools.lru_cache(maxsize=None)
def linear_entries_by_code(n):
    """(entry of each code, _linear_entries(n)): every code of the family mapped to its entry.

    The codes of a parent block E(n - 1, k - head) are (parent i, translate
    t) for t < per, in family order, with per = 1 for a tail.  A code's entry
    is found here without the sweep's sort: it is the entry named by the
    first code of the block whose parent row has the same bytes, with the
    same t.
    """
    entries = _linear_entries(n)
    of_first = {f: e for e, f in enumerate(entries[4].tolist())}
    index, start = [], 0
    for k in range(1, n + 1):
        for head in (True, False) if k < n else (True,):
            parents = _coset_keys(n - 1, k - head)
            per, seen = (parents.shape[1] if head else 1), {}
            for i, row in enumerate(parents):
                i0 = seen.setdefault(row.tobytes(), i)
                index.extend(of_first[start + i0 * per + t] for t in range(per))
            start += len(parents) * per
    return np.array(index), entries


def linear_codes(n):
    """(global indices, codes) of the all-linear family of length n.

    n <= 7: every code.  n = 8: the first and last 300 codes of each
    dimension and every 97th code, built as enumerate_linear_codes builds
    them from the echelon rows (whose order test_codes pins at n = 8):
    building a LinearCode for all 417,198 codes would cost seconds.
    """
    rows = [list(_echelon_rows(n, k)) for k in range(1, n + 1)]
    begins = np.cumsum([0] + [len(r) for r in rows])  # global index of each dimension's first code
    picks = np.arange(begins[-1])
    if n == 8:
        near_ends = [np.r_[b : b + 300, e - 300 : e] for b, e in zip(begins, begins[1:])]
        picks = np.unique(np.concatenate([picks[::97], *near_ends]).clip(0, begins[-1] - 1))
    dims = np.searchsorted(begins, picks, side="right") - 1
    return picks, [LinearCode(n, rows[d][i - begins[d]]).expand()
                   for d, i in zip(dims.tolist(), picks.tolist())]


def test_linear_weight_spectra_match_the_transform_on_every_chunk():
    # the sweep has no chunks: every code reads its weight profile off its
    # entry, and the profile's spectra must be the transform's
    for n in range(1, 9):
        index, (_, (pairs, sums), inv, _, _) = linear_entries_by_code(n)
        # one row per distinct weight profile: A = P / |C|, |C| = P_0
        profiles = pairs // pairs[:, :1]
        assert len(np.unique(profiles, axis=0)) == len(profiles) == inv.max() + 1
        np.testing.assert_array_equal(linear_weight_spectra(profiles), (pairs, sums))
        picks, codes = linear_codes(n)
        mask, of_code = _indicators(codes, n), inv[index[picks]]
        np.testing.assert_array_equal(profiles[of_code], indicator_weight_counts(mask, n))
        for got, want in zip((pairs[of_code], sums[of_code]), weight_spectra(mask)):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def test_linear_chunks_span_every_code_in_family_order():
    # every code of the family falls in one entry, which counts it once
    # (mult), is named by its least code (first) and holds its covered
    # counts, against the packed path and the nearest-codeword oracle
    sizes = [1, 4, 15, 66, 373, 2824, 29211, 417198]  # nonzero subspaces of F2^n
    for n in range(1, 9):
        index, (covered, _, _, mult, first) = linear_entries_by_code(n)
        assert len(index) == mult.sum() == sizes[n - 1]
        np.testing.assert_array_equal(np.bincount(index, minlength=len(mult)), mult)
        np.testing.assert_array_equal(index[first], np.arange(len(first)))
        assert (first[index] <= np.arange(len(index))).all()
        picks, codes = linear_codes(n)
        assert np.issubdtype(covered.dtype, np.integer)
        got = covered[index[picks]]
        assert got.tolist() == _covered_counts(_indicators(codes, n), n, n).tolist()
        np.testing.assert_array_equal(got, nearest_codeword_counts(codes, n))
        if n <= 6:
            assert got.tolist() == [naive_covered_counts(c.points, n) for c in codes]


def test_parent_row_classes_are_exact():
    # entries come from classes of equal coset-table rows, found by one sort
    # of the rows' bytes a table: E(n - 1, j) is sorted once and serves the
    # tails of dimension j and the heads of j + 1.  In every parent block
    # with n <= 8 the class rows, indexed by each parent's class, must give
    # back the parents' table, the classes must be distinct and named by
    # their first parent, and the entries' multiplicities must add up to
    # the block's code count
    for n in range(1, 9):
        _, _, _, mult, first = _linear_entries(n)
        start = 0
        for k in range(1, n + 1):
            for head in (True, False) if k < n else (True,):
                parents = _coset_keys(n - 1, k - head)
                per = parents.shape[1] if head else 1
                block = (start <= first) & (first < start + len(parents) * per)
                at, t = np.divmod(first[block] - start, per)
                rows = parents[at[t == 0]]  # one a class
                classes = {row.tobytes(): c for c, row in enumerate(rows)}
                assert len(classes) == len(rows), (n, k, head)
                cls = np.array([classes[row.tobytes()] for row in parents])
                np.testing.assert_array_equal(rows[cls], parents)
                np.testing.assert_array_equal(np.unique(cls, return_index=True)[1], at[t == 0])
                assert sorted(t.tolist()) == sorted(list(range(per)) * len(rows))
                np.testing.assert_array_equal(mult[block][t == 0], np.bincount(cls))
                assert mult[block].sum() == len(parents) * per
                start += len(parents) * per
        assert start == mult.sum()


def test_each_coset_table_is_sorted_once(monkeypatch):
    # the n tables of length n - 1 are sorted once each, then the profiles
    # once: 8 sorts at n = 7, where one sort a parent block made 14
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    _linear_entries(7)
    assert len(calls) == 8


def test_essential_covering_radius_is_within_the_witness_radius():
    # the paper's claim, per linear code of dual distance d': the essential
    # covering radius rho_e (m = max(n, 2d')) is at most the witness radius
    # r* = min_radius_for_lambda(n, max(n - 2d' + 1, 0)), while the true
    # covering radius rho can exceed it.  The table holds, per (n, d'),
    # (max rho, max rho_e, r*) over the sweep's entries; covered(r) grows
    # with r, so the least r with a property is the count of r without it
    table = {}
    for n in range(1, 9):
        covered, (_, sums), inv, _, _ = _linear_entries(n)
        dual = first_positive_weight(sums)[inv]
        rho = (covered < 1 << n).sum(axis=1)
        rho_e = (covered * np.maximum(n, 2 * dual)[:, None] < 1 << n).sum(axis=1)
        for d in np.unique(dual).tolist():
            r_star = min_radius_for_lambda(n, max(n - 2 * d + 1, 0))
            assert (rho_e[dual == d] <= r_star).all(), (n, d)
            table[n, d] = int(rho[dual == d].max()), int(rho_e[dual == d].max()), r_star
    assert [table[8, d] for d in range(1, 5)] == [(7, 2, 5), (4, 2, 3), (3, 1, 2), (2, 1, 1)]
    for n in range(1, 7):  # max rho against the packed path on every code
        mask = _indicators(linear_codes(n)[1], n)
        dual = first_positive_weight(weight_spectra(mask)[1])
        rho = (_covered_counts(mask, n, n) < 1 << n).sum(axis=1)
        want = {d: int(rho[dual == d].max()) for d in np.unique(dual).tolist()}
        assert {d: row[0] for (m, d), row in table.items() if m == n} == want, n


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
    # the sweep rebuilds a failing code as item first of _family, so its
    # items must be the entries' codes (all-linear) and the chunks' codes
    # (random-general), in order
    for n in range(1, 6):
        want = [(lc.expand(), {"mode": "all-linear", "k": k})
                for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
        assert [(build(), ctx) for build, ctx in _family(n, "all-linear", 5, 1)] == want
        index, (covered, (pairs, sums), inv, _, _) = linear_entries_by_code(n)
        codes = [c for c, _ in want]
        np.testing.assert_array_equal(covered[index], nearest_codeword_counts(codes, n))
        spectra = weight_spectra(_indicators(codes, n))
        np.testing.assert_array_equal(np.stack([pairs[inv[index]], sums[inv[index]]]), spectra)
        for seed in (1, 2):
            want = replayed_random_family(n, 9, seed)
            family = list(_family(n, "random-general", 9, seed))
            assert [(build(), ctx) for build, ctx in family] == want
            chunks = list(_random_chunks(iter(family), n, 4))
            assert [len(inv) for _, _, inv, _, _ in chunks] == [4, 4, 1]
            assert np.concatenate([first for *_, first in chunks]).tolist() == list(range(9))
            assert all((mult == 1).all() for _, _, _, mult, _ in chunks)
            covered = np.concatenate([c for c, *_ in chunks])
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
        for mask in (_indicators(stack, n), reversed_indicators(stack, n)):
            weights = indicator_weight_counts(mask, n)
            counts.append(np.concatenate([_covered_counts(mask, n, n), weights], axis=1))
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
    # a cold sweep builds the coset tables of length 7, about 3 MB, and takes
    # the 38,857 entries of length 8 from their classes, gathering at most
    # 2^13 cosets at a time (or one class): about 6.9 MiB in all
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
        AF = naive_adjacency(F.values, n)
        assert (AF >= (w.lam - 1e-9) * F.values - 1e-9).all()


def test_spectral_cutoff_identity(rng):
    # <AF, F> equals the weight-cut spectral sum of the squared transform
    n = 6
    c = random_code(n, 3, seed=11)
    w = lambda_for_radius_recurrence(n, 2)
    F = build_covering_witness(c, w)
    AF = naive_adjacency(F.values, n)
    lhs = float((AF * F.values).mean())
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


def test_a_tolerance_that_breaks_the_premise_is_rejected(capsys):
    # at tol = 1 the premise admits balls whose eigenvalue is below its
    # target, and the full cube of length 2 would read as a violation
    with pytest.raises(ValueError, match="tol must be finite and at most 1e-6"):
        check_prop_ineq(Code(2, (0, 1, 2, 3)), ball_r=0, tol=1.0)
    with pytest.raises(ValueError, match="tol must be finite and at most 1e-6"):
        exhaustive_verify(2, "all-linear", tol=1.0)
    assert main(["verify", "--n", "2", "--all-linear", "--tol", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tol must be finite" in err
    assert exhaustive_verify(2, "all-linear", tol=1e-6)["violations"] == 0


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
    if mode == "all-linear":
        # no chunks: a code takes the covered row and the profile of its
        # entry, shared by every code of its block with an equal parent row
        # and translate, so they must be the code's own (at n = 8, a sample)
        index, (covered, (pairs, _), inv, _, _) = linear_entries_by_code(n)
        picks, codes = linear_codes(n)
        mask, of_code = _indicators(codes, n), index[picks]
        np.testing.assert_array_equal(covered[of_code], _covered_counts(mask, n, n))
        profiles = pairs[inv[of_code]] // pairs[inv[of_code], :1]
        np.testing.assert_array_equal(profiles, indicator_weight_counts(mask, n))
        return
    summary = exhaustive_verify(n, mode, **kwargs)
    violation = first_violation(n, mode, **kwargs)
    for codes_per_chunk in (1, 7):
        with monkeypatch.context() as m:
            m.setattr(lp_witness, "_CHUNK_ENTRIES", codes_per_chunk << n)
            assert exhaustive_verify(n, mode, **kwargs) == summary
            assert first_violation(n, mode, **kwargs) == violation


def test_a_failing_code_is_rebuilt_by_its_place_in_the_family(monkeypatch):
    # zeroed covered rows make the exact headline fail for entries deep in
    # the family, or for one random code past many chunks; the dump must
    # name the least first code of the failing entries, or that code
    n = 6
    linear = [(lc.expand(), {"mode": "all-linear", "k": k})
              for k in range(1, n + 1) for lc in enumerate_linear_codes(n, k)]
    entries, (_, _, _, mult, first) = lp_witness._linear_entries, _linear_entries(n)
    deep = first >= len(linear) // 2
    most = int(np.argmax(np.where(deep, mult, 0)))  # the most codes, past half the family
    assert mult[most] > 1  # the dump names its first code, not another
    # two entries whose order in the sweep is not the order of their codes
    least_on = np.minimum.accumulate(first[::-1])[::-1]
    late = int(np.flatnonzero(first[:-1] > least_on[1:])[-1])
    early = late + 1 + int(np.argmin(first[late + 1 :]))
    past_half = int(np.argmin(np.where(deep, first, len(linear))))
    last = int(np.argmax(first))  # the last code, the whole space
    for e in ([most], [past_half], [last], [late, early]):
        def zeroed(n, e=e):
            covered, *rest = entries(n)
            covered[e] = 0
            return covered, *rest

        monkeypatch.setattr(lp_witness, "_linear_entries", zeroed)
        with pytest.raises(VerificationError) as info:
            exhaustive_verify(n, "all-linear")
        code, context = linear[first[e].min()]
        assert (info.value.code, info.value.context) == (code, {"seed": 0, **context})
        assert info.value.report.proposition == PROP_COVERING
    random, chunks = replayed_random_family(n, 40, 3), lp_witness._random_chunks
    monkeypatch.setattr(lp_witness, "_CHUNK_ENTRIES", 7 << n)
    for target in (1, 20, 39):
        def zeroed(*args, target=target):
            for covered, spectra, inv, mult, first in chunks(*args):
                covered[first == target] = 0
                yield covered, spectra, inv, mult, first

        monkeypatch.setattr(lp_witness, "_random_chunks", zeroed)
        with pytest.raises(VerificationError) as info:
            exhaustive_verify(n, "random-general", trials=40, seed=3)
        code, context = random[target]
        assert (info.value.code, info.value.context) == (code, {"seed": 3, **context})
        assert info.value.report.proposition == PROP_COVERING


def test_all_linear_sweep_memory_stays_small():
    # a sweep's peak shows in the benchmark's peak RSS: the 4,707 entries of
    # n = 7, checked once per distinct weight profile, trace about 0.5 MiB warm
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
    # up to 6 and the entries built from their classes, about 0.7 MiB
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
    assert peak < 1.2 * 2**20


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
