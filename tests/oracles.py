"""Exact and closed-form references that only the tests use.

Each function states a fact the library's fast paths must agree with: the
optimum code size by exhaustive search, the dual of a linear code, the
adjacency operator as a convolution kernel, the asymptotic covering radii
that the finite bounds are compared against, and the paper's two dense
witnesses, phi (with F = phi * f for the size bound) and F = 1_C * f for
the covering bound, whose moments the library reads off weight space.
"""

import math
from functools import lru_cache

import numpy as np

from cube_spectra import (
    BallEigenWitness,
    Code,
    CubeFunction,
    LinearCode,
    autocorrelation,
    convolve,
    hamming_weights,
    inverse_wht,
    min_radius_for_lambda,
)


@lru_cache(maxsize=None)
def max_code_size_exact(n: int, d: int) -> int:
    """Exact maximum size of a length-n code with minimal distance d.

    Branch-and-bound maximum clique on the distance->=d graph over all 2^n
    points, with candidate sets as Python-int bitsets and a greedy-coloring
    bound.  Supports n <= 8 except (8, 3), which the search does not finish
    in minutes, so it raises ValueError at once.  d = 1 is the complete graph
    (whole cube).
    """
    if not (1 <= d <= n <= 8):
        raise ValueError(f"exact search supports 1 <= d <= n <= 8, got n={n} d={d}")
    if (n, d) == (8, 3):
        raise ValueError("exact search does not finish for n=8 d=3")
    if d == 1:
        return 1 << n
    size = 1 << n
    full = (1 << size) - 1
    adj = []
    for v in range(size):
        row = 0
        for u in range(size):
            if u != v and (u ^ v).bit_count() >= d:
                row |= 1 << u
        adj.append(row)

    # greedy clique in index order seeds the incumbent
    best = 0
    cand = full
    while cand:
        v = (cand & -cand).bit_length() - 1
        best += 1
        cand &= adj[v]

    def color_order(pool: int):
        order, bounds = [], []
        color = 0
        while pool:
            color += 1
            avail = pool
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                bounds.append(color)
                avail &= ~(1 << v) & ~adj[v]
                pool &= ~(1 << v)
        return order, bounds

    def expand(pool: int, depth: int):
        nonlocal best
        order, bounds = color_order(pool)
        for i in range(len(order) - 1, -1, -1):
            if depth + bounds[i] <= best:
                return
            v = order[i]
            if depth + 1 > best:
                best = depth + 1
            nxt = pool & adj[v]
            if nxt:
                expand(nxt, depth + 1)
            pool &= ~(1 << v)

    expand(full, 0)
    return best


def dual_code(c: LinearCode) -> LinearCode:
    """Generator of the orthogonal subspace over F2."""
    pivots = sum(g & -g for g in c.generators)
    # a free column, plus the pivot of every row that holds it
    basis = [(1 << col) | sum(g & -g for g in c.generators if g >> col & 1)
             for col in range(c.n) if not pivots >> col & 1]
    dual = LinearCode.from_spanning(c.n, basis)
    if c.dim + dual.dim != c.n:
        raise ArithmeticError(f"dual has dimension {dual.dim}, not {c.n - c.dim}")
    return dual


def adjacency_kernel(n: int) -> CubeFunction:
    """Kernel L with L(x) = 2^n at |x| = 1 and 0 elsewhere.

    Convolving with it applies the adjacency operator, and its transform is
    n - 2|S|.
    """
    vals = np.where(hamming_weights(n) == 1, float(1 << n), 0.0)
    return CubeFunction(n, vals)


def phi_from_code(c: Code) -> CubeFunction:
    """Function whose squared transform is the autocorrelation of the code.

    The nonnegative square root is taken at every point, which keeps phi
    real, makes phi * phi nonnegative, and for a linear code reproduces a
    positive multiple of the dual indicator exactly.  The defining ratio
    mean(phi^2) / mean(phi)^2 equals |C|.
    """
    return inverse_wht(CubeFunction(c.n, np.sqrt(autocorrelation(c).values)))


def build_covering_witness(cprime: Code, w: BallEigenWitness) -> CubeFunction:
    """F = indicator of C' convolved with the lifted ball eigenfunction.

    Nonnegative, and supported on the union of witness-support translates
    centered at the codewords.
    """
    if w.n != cprime.n:
        raise ValueError(f"dimension mismatch: code n={cprime.n}, witness n={w.n}")
    return convolve(cprime.indicator(), w.lift())


def essential_covering_radius_bound(n: int, d: int) -> tuple[int, float]:
    """Radius certified to cover a 1/n fraction around any dual-distance-d code.

    Returns (r_finite, r_asymptotic): the rigorous finite radius (smallest
    ball eigenvalue reaching n - 2d + 1) and the closed form
    n/2 - sqrt(d (n - d)), reported as a real and never floored.  The finite
    value exceeds the asymptote rho0 n by about
    |a_1| n^(1/3) (rho0 (1 - rho0) / (1 - 2 rho0))^(1/3), a_1 = -2.33811 the
    first Airy zero: the ball's top eigenvalue near its truncation at r is
    about 2b - |a_1| (n - 2r)^(2/3) b^(-1/3), b = sqrt(r(n - r)).  Tests
    check that law to 0.05 n^(1/3) at n = 16,000 and 64,000.
    """
    if not (1 <= d and 2 * d <= n):
        raise ValueError(f"asymptotic form needs 1 <= d <= n/2, got n={n} d={d}")
    r_finite = min_radius_for_lambda(n, max(n - 2 * d + 1, 0))
    r_asymptotic = n / 2.0 - math.sqrt(d * (n - d))
    return r_finite, r_asymptotic


def tietavainen_bound(n: int, d: int) -> float:
    """Asymptotic comparator n/2 - sqrt((d/2)(n - d/2)) (Tietavainen 1990).

    The covering radius of a code with dual distance d is at most this value
    only asymptotically, as n grows with d/n fixed; at finite n it is no
    bound: the [8, 4] code with generators (209, 178, 116, 8) has dual
    distance 3 and covering radius 3, against 0.878 here.  For d <= n/2 the
    value exceeds the asymptotic essential bound n/2 - sqrt(d(n - d)).
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got n={n} d={d}")
    half = d / 2.0
    return n / 2.0 - math.sqrt(half * (n - half))
