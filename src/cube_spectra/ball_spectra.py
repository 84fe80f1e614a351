"""Top adjacency eigenvalues of Hamming balls and small induced subgraphs.

Every ball question reduces to the (r+1)-point weight profile operator
g(i) -> i g(i-1) + (n-i) g(i+1) of the radius-r ball; the reduction is valid
because the induced ball subgraph is connected and level-transitive, so its
Perron eigenvector is a function of Hamming weight.

* :func:`lambda_ball_exact` symmetrizes the operator (off-diagonal
  sqrt((i+1)(n-i))) and runs Sturm bisection.
* :func:`lambda_for_radius_recurrence` binary-searches the largest rate
  lambda for which the profile recurrence started at g(0)=1 stays positive
  through weight r, and packages the truncated profile as a certificate
  with f >= 0 and Af >= lambda f, checked on its n+1 weights.
* :func:`min_radius_for_lambda` runs the same recurrence once, in integers,
  at a rational target: the smallest sufficient radius sits just before its
  first sign change.
* :func:`lambda_subset_bruteforce` is the verification oracle: shifted power
  iteration on the explicitly induced adjacency matrix of any small subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cube_fourier import CubeFunction, hamming_weights

_RECURRENCE_OVERFLOW = 1e280


@dataclass(frozen=True)
class SymmetricProfile:
    """Function of Hamming weight only: values for weights 0..m, zero above."""

    n: int
    values: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("profile dimension must be at least 1")
        vals = tuple(float(v) for v in self.values)
        if not 1 <= len(vals) <= self.n + 1:
            raise ValueError(f"profile length must be in [1, n+1], got {len(vals)}")
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", vals)

    def lift(self) -> CubeFunction:
        """Cube function taking value values[|x|] (zero above the cutoff)."""
        table = np.zeros(self.n + 1)
        table[: len(self.values)] = self.values
        return CubeFunction(self.n, table[hamming_weights(self.n)])


@dataclass(frozen=True)
class BallEigenWitness:
    """Certificate that the ball B(r) in {0,1}^n has top eigenvalue >= lam.

    The profile g is positive on weights 0..p with p <= r and implicitly zero
    above, and the lifted function f satisfies f >= 0 and Af >= lam * f at
    every point:  strictly below p the profile recurrence holds with equality,
    at p dropping the (nonpositive) continuation g(p+1) only helps, and above
    p the left side is a sum of nonnegative terms.
    """

    n: int
    r: int
    lam: float
    profile: SymmetricProfile
    p: int

    def __post_init__(self):
        if not 0 <= self.r <= self.n:
            raise ValueError(f"radius must be in [0, n], got {self.r}")
        if not 0 <= self.p <= self.r:
            raise ValueError(f"truncation weight must be in [0, r], got {self.p}")
        if len(self.profile.values) != self.p + 1:
            raise ValueError("profile must carry exactly weights 0..p")
        if any(v <= 0 for v in self.profile.values):
            raise ValueError("witness profile must be strictly positive")

    def lift(self) -> CubeFunction:
        return self.profile.lift()

    def verify_pointwise(self, tol: float = 1e-9) -> bool:
        """Check f >= 0 and Af >= (lam - tol) f at every point of the cube.

        f depends only on weight, so Af at weight i is i g(i-1) + (n-i) g(i+1)
        and the 2^n point checks collapse to one per weight.  Weights 0..p,
        where f > 0 by construction, are checked with g(p+1) = 0; above p,
        f = 0 <= Af holds term by term.
        """
        g = self.profile.values + (0.0,)
        n, floor = self.n, self.lam - tol
        return all(
            i * g[i - 1] + (n - i) * g[i + 1] >= floor * g[i]
            for i in range(self.p + 1)
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "lambda": self.lam,
            "p": self.p,
            "profile": list(self.profile.values),
        }


@dataclass(frozen=True)
class SubsetGraph:
    """Subset of {0,1}^n carrying the induced Hamming-distance-1 adjacency."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        pts = tuple(sorted(set(int(p) for p in self.members)))
        if not pts:
            raise ValueError("subset must be nonempty")
        if pts[0] < 0 or pts[-1] >= (1 << self.n):
            raise ValueError(f"members must lie in [0, 2^{self.n})")
        object.__setattr__(self, "members", pts)

    @property
    def size(self) -> int:
        return len(self.members)


def hamming_ball(n: int, r: int) -> SubsetGraph:
    """All points of weight at most r, as a SubsetGraph."""
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, n], got r={r} n={n}")
    if n == 0:
        return SubsetGraph(0, (0,))
    w = hamming_weights(n)
    return SubsetGraph(n, tuple(int(x) for x in np.nonzero(w <= r)[0]))


def _eigenvalues_below(n: int, r: int, x: float) -> int:
    """Sturm count for the symmetrized profile operator of size r+1.

    Counts eigenvalues strictly below x via the LDL^T pivot signs; the
    diagonal is zero and the off-diagonal between weights i-1 and i squares
    to i * (n - i + 1).
    """
    count = 0
    d = -x
    if d < 0:
        count += 1
    for i in range(1, r + 1):
        if d == 0.0:
            d = -1e-300
        d = -x - (i * (n - i + 1)) / d
        if d < 0:
            count += 1
    return count


def _bisect(lo: float, hi: float, width: float, above) -> tuple[float, float]:
    """Shrink [lo, hi] to width around the point where above(x) turns False.

    Also stops once lo and hi are adjacent floats, which comes first where
    floats are spaced wider than width (from 2^13 at 1e-12, 2^19 at 1e-10).
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo, hi


def lambda_ball_exact(n: int, r: int) -> float:
    """Top eigenvalue of the subgraph induced by the ball B(r) in {0,1}^n.

    Sturm bisection on [0, n+1] to absolute width 1e-10 (or to adjacent
    floats, above 2^19), well below the documented 1e-9.
    """
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, n], got r={r} n={n}")
    if r == 0:
        return 0.0
    lo, hi = _bisect(0.0, n + 1.0, 1e-10, lambda x: _eigenvalues_below(n, r, x) <= r)
    return 0.5 * (lo + hi)


def _recurrence(n: int, lam: float) -> tuple[list, int]:
    """Extended-precision g(0), g(1), ... up to the first index where g <= 0.

    Returns the values and that index, or n+1 if g stays positive through
    weight n.  If magnitudes overflow the loop stops and the tail counts as
    sign-change-free.
    """
    lam_x = np.longdouble(lam)
    g = [np.longdouble(1.0)]
    for i in range(n):
        nxt = (lam_x * g[i] - i * g[i - 1]) / (n - i)
        if abs(nxt) > _RECURRENCE_OVERFLOW:
            break
        g.append(nxt)
        if nxt <= 0:
            return g, i + 1
    return g, n + 1


def eigen_recurrence(n: int, lam: float) -> tuple[SymmetricProfile, int]:
    """Profile g with g(0)=1 propagated by lam*g(i) = i*g(i-1) + (n-i)*g(i+1).

    Returns the profile together with the smallest index where g <= 0, or
    n+1 if g stays positive through weight n.  The recurrence stops at that
    first nonpositive weight, so the profile then carries weights
    0..first_nonpos only.  The forward recurrence is numerically unstable
    once lam sits near a truncation eigenvalue, so it runs in extended
    precision; if magnitudes overflow the loop stops and the tail counts as
    sign-change-free (the profile is truncated there).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 <= lam <= n:
        raise ValueError(f"rate must lie in [0, n], got {lam}")
    g, first_nonpos = _recurrence(n, lam)
    return SymmetricProfile(n, tuple(float(v) for v in g)), first_nonpos


def lambda_for_radius_recurrence(n: int, r: int) -> BallEigenWitness:
    """Largest recurrence rate whose profile stays positive through weight r.

    The predicate "first nonpositive index <= r+1" is monotone in lam (the
    sign change moves outward as lam grows), so bisection on [0, n] converges
    to the top eigenvalue of the radius-r truncation (width 1e-12, or adjacent
    floats above 2^13); the witness keeps the positive head g(0..p) of the
    profile evaluated on the feasible side.
    """
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, n], got r={r} n={n}")

    def feasible(lam: float) -> bool:
        return _recurrence(n, lam)[1] <= r + 1

    lo = float(n) if feasible(float(n)) else _bisect(0.0, float(n), 1e-12, feasible)[0]
    g, first_nonpos = eigen_recurrence(n, lo)
    p = first_nonpos - 1 if first_nonpos <= n else n
    profile = SymmetricProfile(n, g.values[: p + 1])
    return BallEigenWitness(n=n, r=r, lam=lo, profile=profile, p=p)


def _induced_edges(b: SubsetGraph) -> tuple[np.ndarray, np.ndarray]:
    members = np.array(b.members, dtype=np.int64)
    src, dst = [], []
    for i in range(b.n):
        nb = members ^ (1 << i)
        pos = np.searchsorted(members, nb)
        pos = np.minimum(pos, len(members) - 1)
        ok = members[pos] == nb
        src.append(np.nonzero(ok)[0])
        dst.append(pos[ok])
    if not src:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(src), np.concatenate(dst)


def subset_top_eigenpair(
    b: SubsetGraph, tol: float = 1e-10, max_iter: int = 200_000
) -> tuple[float, np.ndarray]:
    """Top eigenvalue and a nonnegative eigenvector of the induced adjacency.

    Power iteration on A + nI (the shift makes the spectrum nonnegative, so
    the iteration cannot oscillate between +/- lambda).  Converges when the
    residual ||(A + nI)v - rho v|| certifies the Rayleigh quotient to tol.
    The returned vector is aligned with ``b.members`` and nonnegative, so it
    lifts to a valid witness function supported on the subset.
    """
    m = b.size
    if m == 1:
        return 0.0, np.ones(1)
    src, dst = _induced_edges(b)
    shift = float(b.n)
    v = np.full(m, 1.0 / math.sqrt(m))
    rho = shift
    for _ in range(max_iter):
        w = np.bincount(src, weights=v[dst], minlength=m) + shift * v
        rho = float(v @ w)
        residual = float(np.linalg.norm(w - rho * v))
        v = w / np.linalg.norm(w)
        if residual <= tol * max(1.0, rho):
            return rho - shift, v
    raise ArithmeticError(
        f"power iteration did not reach residual {tol} in {max_iter} steps"
    )


def lambda_subset_bruteforce(b: SubsetGraph) -> float:
    """Verification oracle: top induced eigenvalue of an explicit subset."""
    if b.size > 1 << 16:
        raise ValueError(f"oracle capped at 2^16 members, got {b.size}")
    return subset_top_eigenpair(b)[0]


def min_radius_for_lambda(n: int, target: float) -> int:
    """Smallest r with lambda_ball_exact(n, r) >= target, decided exactly.

    With target = a/b, Q_k = b^k det(target - T_k) for the radius-(k-1)
    profile operator T_k obeys Q_0 = 1, Q_1 = a and
    Q_{k+1} = a Q_k - b^2 k (n-k+1) Q_{k-1} in integers (it is the
    recurrence of :func:`eigen_recurrence` at lam = target, scaled by
    b^k n!/(n-k)!).  By Sturm, T_k's top eigenvalue reaches the target
    exactly when Q_k <= 0 first, so r* = k - 1.  No ball suffices when
    target > n (the cube is n-regular).
    """
    if target > n:
        raise ValueError(f"no ball of dimension {n} reaches eigenvalue {target}")
    a, b = float(target).as_integer_ratio()
    prev, cur = 1, a
    for k in range(1, n + 1):
        if cur <= 0:
            return k - 1
        prev, cur = cur, a * cur - b * b * k * (n - k + 1) * prev
    return n
