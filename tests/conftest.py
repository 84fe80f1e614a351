"""Shared brute-force oracles: direct-definition implementations used to
derive expected values, independent of the library's fast paths."""

import itertools

import numpy as np
import pytest

from cube_spectra import Code, LinearCode


def naive_wht(values):
    """O(4^n) transform straight from the character-sum definition."""
    m = len(values)
    out = np.zeros(m)
    for s in range(m):
        acc = 0.0
        for x in range(m):
            acc += values[x] * (-1) ** bin(x & s).count("1")
        out[s] = acc / m
    return out


def naive_convolve(f, g):
    """Double summation (f * g)(x) = mean_y f(y) g(x XOR y)."""
    m = len(f)
    out = np.zeros(m)
    for x in range(m):
        out[x] = sum(f[y] * g[x ^ y] for y in range(m)) / m
    return out


def naive_adjacency(values, n):
    """Per-point neighbor sum, bits in ascending order."""
    out = np.zeros(len(values))
    for x in range(len(values)):
        acc = 0.0
        for i in range(n):
            acc += values[x ^ (1 << i)]
        out[x] = acc
    return out


def naive_min_distance(points):
    return min(
        bin(a ^ b).count("1")
        for i, a in enumerate(points)
        for b in points[i + 1 :]
    )


def naive_pair_distance_counts(points, n):
    """counts[w] = ordered pairs at distance w, by double loop."""
    counts = [0] * (n + 1)
    for a in points:
        for b in points:
            counts[bin(a ^ b).count("1")] += 1
    return counts


def naive_random_code(n, min_d, seed):
    """Pairwise greedy over the seeded permutation: keep a point when its
    distance to every kept word is at least min_d."""
    kept = []
    for p in np.random.default_rng(seed).permutation(1 << n).tolist():
        if all(bin(p ^ q).count("1") >= min_d for q in kept):
            kept.append(p)
    return Code(n, tuple(kept))


def naive_enumerate_linear_codes(n, k):
    """Generator tuples of every k-dimensional subspace, one at a time: for
    each pivot set, fill the free positions (non-pivot columns right of
    each pivot) from the bits of a counter."""
    for pivots in itertools.combinations(range(n), k):
        free = [[col for col in range(n) if col not in pivots and col > p] for p in pivots]
        for bits in range(1 << sum(len(f) for f in free)):
            rows, t = [], 0
            for p, cols in zip(pivots, free):
                row = 1 << p
                for col in cols:
                    if (bits >> t) & 1:
                        row |= 1 << col
                    t += 1
                rows.append(row)
            yield tuple(rows)


def naive_covered_counts(points, n):
    """counts[r] = points of the cube whose nearest codeword (by popcount of
    the XOR) lies within distance r, for r = 0..n."""
    cube = np.arange(1 << n, dtype=np.uint64)
    nearest = np.full(1 << n, n + 1)
    for p in points:
        nearest = np.minimum(nearest, np.bitwise_count(cube ^ np.uint64(p)))
    return [int((nearest <= r).sum()) for r in range(n + 1)]


def dense_ball_lambda(n, r):
    """Top eigenvalue of the induced ball subgraph via a dense eigensolve."""
    pts = [x for x in range(1 << n) if bin(x).count("1") <= r]
    if len(pts) == 1:
        return 0.0
    idx = {p: i for i, p in enumerate(pts)}
    mat = np.zeros((len(pts), len(pts)))
    for p in pts:
        for i in range(n):
            q = p ^ (1 << i)
            if q in idx:
                mat[idx[p], idx[q]] = 1.0
    return float(np.linalg.eigvalsh(mat)[-1])


def hamming_7_4() -> Code:
    """[7,4] single-error-correcting code: data bits 0..3, parities 4..6."""
    parity = {0: (1, 1, 0), 1: (1, 0, 1), 2: (0, 1, 1), 3: (1, 1, 1)}
    rows = []
    for i, bits in parity.items():
        row = 1 << i
        for j, bit in enumerate(bits):
            if bit:
                row |= 1 << (4 + j)
        rows.append(row)
    return LinearCode.from_spanning(7, rows).expand()


def even_weight_code(n: int) -> Code:
    return Code(n, tuple(x for x in range(1 << n) if bin(x).count("1") % 2 == 0))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
