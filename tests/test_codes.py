import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    even_weight_code,
    hamming_7_4,
    naive_enumerate_linear_codes,
    naive_min_distance,
    naive_pair_distance_counts,
    naive_random_code,
)
from cube_spectra import (
    Code,
    CodeFileError,
    LinearCode,
    SingletonDistanceWarning,
    autocorrelation,
    dual_code,
    dual_distance,
    enumerate_linear_codes,
    hamming_weights,
    int_wht,
    max_code_size_exact,
    min_distance,
    parse_code_text,
    random_code,
)
from cube_spectra.codes import (
    _echelon_rows,
    _exact_shift,
    first_positive_weight,
    format_code_text,
    min_distance_autocorrelation,
    read_code_file,
    weight_spectra,
    write_code_file,
)


def gaussian_binomial(n, k):
    num = den = 1
    for i in range(k):
        num *= 2**n - 2**i
        den *= 2**k - 2**i
    return num // den


def test_code_canonicalization_and_equality():
    a = Code(3, (5, 1, 5, 3))
    b = Code(3, (1, 3, 5))
    assert a == b and a.points == (1, 3, 5) and a.size == 3


def test_code_validation():
    with pytest.raises(ValueError, match="at least one"):
        Code(2, ())
    with pytest.raises(ValueError, match="lie in"):
        Code(2, (4,))
    with pytest.raises(ValueError, match="lie in"):
        Code(2, (-1,))


def test_int_indicator_checks_the_transform_cap_before_allocating():
    with pytest.raises(ValueError, match=r"dimension must be in \[1, 28\], got 100"):
        Code(100, (0, 1)).int_indicator()


def test_linear_code_validation():
    LinearCode(3, (0b101, 0b110))  # valid rref
    with pytest.raises(ValueError, match="reduced"):
        LinearCode(3, (0b011, 0b110))  # first row contains the second's pivot
    with pytest.raises(ValueError, match="pivot"):
        LinearCode(3, (0b110, 0b101))  # pivots out of order
    with pytest.raises(ValueError, match="out of range"):
        LinearCode(2, (0b100,))


def test_from_spanning_reduces_to_canonical():
    rows = [0b111, 0b011, 0b100]  # redundant spanning set of a 2-dim space
    lc = LinearCode.from_spanning(3, rows)
    assert lc.dim == 2
    span = lc.expand()
    direct = {0}
    for r in rows:
        direct |= {x ^ r for x in direct}
    assert set(span.points) == direct


def test_expand_contains_zero_and_has_power_of_two_size():
    lc = LinearCode(4, (0b0011, 0b1100))
    c = lc.expand()
    assert 0 in c.points and c.size == 4


def test_min_distance_two_points():
    assert min_distance(Code(5, (0, 0b11111))) == 5


def test_min_distance_even_weight_code():
    c = even_weight_code(4)
    assert c.size == 8
    assert min_distance(c) == naive_min_distance(c.points) == 2


def test_min_distance_hamming_code():
    c = hamming_7_4()
    assert c.size == 16
    assert min_distance(c) == naive_min_distance(c.points) == 3


def test_min_distance_singleton_flagged():
    with pytest.warns(SingletonDistanceWarning):
        assert min_distance(Code(4, (7,))) == 5


def test_min_distance_agrees_with_autocorrelation_route(rng):
    for trial in range(30):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(2, min(40, 1 << n) + 1))
        pts = rng.choice(1 << n, size=k, replace=False)
        c = Code(n, tuple(int(p) for p in pts))
        assert min_distance(c) == min_distance_autocorrelation(c)


def test_autocorrelation_examples():
    got = autocorrelation(Code(2, (0, 3))).values
    assert got.tolist() == [0.5, 0.0, 0.0, 0.5]
    full = Code(2, (0, 1, 2, 3))
    assert autocorrelation(full).values.tolist() == [1.0] * 4


def test_autocorrelation_vanishes_below_distance(rng):
    for trial in range(10):
        n = int(rng.integers(3, 9))
        c = random_code(n, 3, seed=trial)
        if c.size < 2:
            continue
        d = min_distance(c)
        vals = autocorrelation(c).values
        w = hamming_weights(n)
        assert (vals[(w > 0) & (w < d)] == 0).all()
        assert (vals >= 0).all()
        assert vals[0] == c.size / (1 << n)


def test_dual_code_repetition():
    dual = dual_code(LinearCode(3, (0b111,)))
    assert dual.dim == 2
    assert set(dual.expand().points) == {0, 3, 5, 6}  # even-weight words


def test_dual_code_full_space_and_self_dual():
    full = LinearCode.from_spanning(3, [1, 2, 4])
    assert dual_code(full).dim == 0
    assert dual_code(full).expand().points == (0,)
    half = LinearCode(2, (0b11,))
    assert dual_code(half) == half


def test_dual_code_involution_and_size_product():
    for n in range(2, 9):
        for k in range(1, n + 1):
            for lc in itertools.islice(enumerate_linear_codes(n, k), 25):
                dual = dual_code(lc)
                assert dual_code(dual) == lc
                assert (1 << lc.dim) * (1 << dual.dim) == 1 << n


def test_dual_distance_examples():
    assert dual_distance(even_weight_code(4)) == 4
    assert dual_distance(Code(4, (0,))) == 1
    assert dual_distance(Code(3, tuple(range(8)))) == 4  # whole cube: n+1


def test_dual_distance_equals_dual_min_distance_exhaustive_small():
    for n in range(2, 7):
        for k in range(1, n):  # k = n dualizes to {0}: no distance
            for lc in enumerate_linear_codes(n, k):
                c = lc.expand()
                want = min_distance(dual_code(lc).expand())
                assert dual_distance(c) == want


def test_dual_distance_equals_dual_min_distance_sampled_n7_n8(rng):
    for n in (7, 8):
        for k in range(1, n):
            total = gaussian_binomial(n, k)
            picks = set(
                int(i) for i in rng.choice(total, size=min(40, total), replace=False)
            )
            for i, lc in enumerate(enumerate_linear_codes(n, k)):
                if i not in picks:
                    continue
                assert dual_distance(lc.expand()) == min_distance(
                    dual_code(lc).expand()
                )


def test_linear_indicator_transform_is_scaled_dual_indicator():
    # unnormalized integer transform of 1_C equals |C| on the dual, 0 elsewhere
    for n in range(2, 7):
        for k in range(1, n + 1):
            for lc in itertools.islice(enumerate_linear_codes(n, k), 20):
                c = lc.expand()
                t = int_wht(c.int_indicator()).values
                dual_pts = set(dual_code(lc).expand().points)
                for s in range(1 << n):
                    assert t[s] == (c.size if s in dual_pts else 0)


def naive_dual_weight_sums(points, n):
    """T[s] = sum over |S| = s of (sum over codewords x of (-1)^<x,S>)^2."""
    sums = [0] * (n + 1)
    for s in range(1 << n):
        t = sum((-1) ** bin(x & s).count("1") for x in points)
        sums[bin(s).count("1")] += t * t
    return sums


def test_weight_spectra_matches_pair_and_character_sums(rng):
    codes = [Code(1, (0,)), even_weight_code(4), hamming_7_4()]
    codes += [random_code(n, int(rng.integers(1, n + 1)), seed=n) for n in range(2, 9)]
    for c in codes:
        pairs, sums = weight_spectra(c.int_indicator().values)
        assert pairs.tolist() == naive_pair_distance_counts(c.points, c.n)
        assert sums.tolist() == naive_dual_weight_sums(c.points, c.n)
    # a stack of codes gives the same rows as one code at a time
    same_n = [random_code(6, d, seed=d) for d in range(1, 7)]
    pairs, sums = weight_spectra(np.stack([c.int_indicator().values for c in same_n]))
    for c, p_row, t_row in zip(same_n, pairs, sums):
        p_one, t_one = weight_spectra(c.int_indicator().values)
        assert p_row.tolist() == p_one.tolist() and t_row.tolist() == t_one.tolist()


def test_weight_spectra_exact_above_the_int64_range():
    # n = 21 takes the Python-integer path for K T
    n = 21
    c = Code(n, (0, (1 << n) - 1, 0b101, 0b1110 << 10))
    pairs, sums = weight_spectra(c.int_indicator().values)
    assert pairs.dtype == object
    assert [int(x) for x in pairs] == naive_pair_distance_counts(c.points, n)
    assert int(sum(sums)) == c.size << n  # Parseval
    assert first_positive_weight(pairs) == min_distance(c) == 2
    assert first_positive_weight(sums) == dual_distance(c)


def test_exact_shift_raises_on_a_remainder():
    assert _exact_shift(np.array([8, -16]), 3).tolist() == [1, -2]
    with pytest.raises(ArithmeticError, match="not divisible"):
        _exact_shift(np.array([8, 12]), 3)


def test_enumerate_linear_codes_counts():
    assert sorted(lc.generators for lc in enumerate_linear_codes(2, 1)) == [
        (1,),
        (2,),
        (3,),
    ]
    assert len(list(enumerate_linear_codes(3, 2))) == 7
    assert len(list(enumerate_linear_codes(4, 4))) == 1
    for n, k in ((4, 2), (5, 3), (6, 2)):
        codes = list(enumerate_linear_codes(n, k))
        assert len(codes) == gaussian_binomial(n, k)
        assert len(set(codes)) == len(codes)  # canonical forms are distinct


def test_enumerate_linear_codes_matches_the_per_code_enumerator():
    # the array-built echelon rows keep the per-code enumeration order; the
    # LinearCode objects are compared below n = 8 (417,199 of them at n = 8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            want = list(naive_enumerate_linear_codes(n, k))
            assert [tuple(g) for g in _echelon_rows(n, k).tolist()] == want, (n, k)
            if n < 8:
                assert [lc.generators for lc in enumerate_linear_codes(n, k)] == want


def test_enumerate_linear_codes_range_errors():
    with pytest.raises(ValueError):
        list(enumerate_linear_codes(9, 1))
    with pytest.raises(ValueError):
        list(enumerate_linear_codes(4, 0))
    with pytest.raises(ValueError):
        list(enumerate_linear_codes(4, 5))


def test_random_code_degenerate_and_full():
    assert random_code(4, 5, seed=3).size == 1  # no pair can coexist
    assert random_code(5, 1, seed=9).size == 32


def test_random_code_min_distance_and_maximality():
    for seed in range(5):
        c = random_code(5, 3, seed=seed)
        assert 2 <= c.size <= max_code_size_exact(5, 3)
        assert naive_min_distance(c.points) >= 3
        outside = set(range(32)) - set(c.points)
        for x in outside:
            assert any(bin(x ^ p).count("1") < 3 for p in c.points)


def test_random_code_matches_the_pairwise_greedy():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        min_d = int(rng.integers(1, n + 2))
        seed = int(rng.integers(2**32))
        assert random_code(n, min_d, seed) == naive_random_code(n, min_d, seed), (
            n, min_d, seed)


def test_random_code_deterministic():
    assert random_code(8, 3, seed=7) == random_code(8, 3, seed=7)
    assert random_code(8, 3, seed=7) != random_code(8, 3, seed=8)


def test_random_code_refuses_a_length_past_the_transform_cap_before_allocating():
    # the permutation of 2^29 points would take 4 GiB; under a 2 GiB address
    # space the cap's ValueError must come first, not a MemoryError
    code = (
        "import json, resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from cube_spectra import random_code\n"
        "t = time.perf_counter()\n"
        "try:\n"
        "    random_code(29, 2)\n"
        "except ValueError as exc:\n"
        "    print(json.dumps([str(exc), time.perf_counter() - t]))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("CUBE_SPECTRA_MAX_N", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        check=True, env=env,
    )
    message, seconds = json.loads(proc.stdout)
    assert message == "dimension must be at most 28, got 29" and seconds < 1.0


def test_max_code_size_known_values():
    known = {
        (4, 2): 8, (5, 3): 4, (6, 3): 8, (6, 4): 4,
        (7, 3): 16, (7, 4): 8, (7, 5): 2, (7, 2): 64,
    }
    for (n, d), want in known.items():
        assert max_code_size_exact(n, d) == want
    assert max_code_size_exact(6, 1) == 64


def test_max_code_size_exact_refuses_8_3_within_a_second():
    # the search does not finish (8, 3) in minutes; a child process bounds
    # the time, so a regression fails here instead of stalling the suite
    code = (
        "import json, time; from cube_spectra import max_code_size_exact as f\n"
        "t = time.perf_counter()\n"
        "try:\n    f(8, 3)\nexcept ValueError as exc:\n"
        "    print(json.dumps([str(exc), time.perf_counter() - t]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
        check=True,
    )
    message, seconds = json.loads(proc.stdout)
    assert "n=8 d=3" in message and seconds < 1.0


def test_code_file_binary_form():
    c = parse_code_text("# a comment\n0000\n1111\n")
    assert c == Code(4, (0, 15))
    assert format_code_text(c) == "0000\n1111\n"


def test_code_file_hex_form():
    c = parse_code_text("n=7\n0x00\n0x5a\n0x7f  # trailing comment\n")
    assert c == Code(7, (0, 0x5A, 0x7F))


def test_code_file_errors():
    with pytest.raises(CodeFileError, match="length"):
        parse_code_text("000\n1111\n")
    with pytest.raises(CodeFileError, match="header"):
        parse_code_text("0x1f\n")
    with pytest.raises(CodeFileError, match="no codewords"):
        parse_code_text("# nothing here\n")
    with pytest.raises(CodeFileError, match="not a 0/1"):
        parse_code_text("01a1\n")
    with pytest.raises(CodeFileError, match="n=2"):
        parse_code_text("n=2\n0101\n")
    with pytest.raises(CodeFileError, match="lie in"):
        parse_code_text("n=2\n0x7\n")


def test_code_file_round_trip(tmp_path):
    c = random_code(6, 2, seed=4)
    path = tmp_path / "code.txt"
    write_code_file(c, path)
    assert read_code_file(path) == c
