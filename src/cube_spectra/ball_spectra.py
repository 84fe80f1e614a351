"""Top adjacency eigenvalues of Hamming balls and small induced subgraphs.

Every ball question reduces to the (r+1)-point weight profile operator
g(i) -> i g(i-1) + (n-i) g(i+1) of the radius-r ball; the reduction is valid
because the induced ball subgraph is connected and level-transitive, so its
Perron eigenvector is a function of Hamming weight.

* :func:`lambda_ball_exact` symmetrizes the operator (off-diagonal
  sqrt((i+1)(n-i))), starts above its top eigenvalue at an Airy estimate
  whose LDL^T pivots are all positive, and descends by one Laguerre step
  and Newton steps, with no bisection.
* :func:`lambda_for_radius_recurrence` runs the profile recurrence started
  at g(0)=1 once, in long double, at a rate lambda 4 ulp below that
  eigenvalue, and returns the positive head g(0..p) of that run as a
  :class:`BallEigenWitness` (n, r, lam, profile):
  f(x) = g(|x|) has f >= 0 and Af >= lambda f, checked on its n+1 weights.
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

_POWER_TOL = 1e-10
_POWER_MAX_ITER = 200_000


@dataclass(frozen=True)
class BallEigenWitness:
    """Certificate that the ball B(r) in {0,1}^n has top eigenvalue >= lam.

    ``profile`` holds g(0..p), p = len(profile) - 1 <= r, stored as a tuple
    of floats; g is positive there and implicitly zero above.  Any positive
    multiple of g is the same certificate, so a profile may be scaled by a
    power of two to keep its values clear of the subnormal range.  The lifted
    function f(x) = g(|x|) satisfies f >= 0 and Af >= lam * f at every point:
    strictly below p the profile recurrence holds with equality, at p
    dropping the (nonpositive) continuation g(p+1) only helps, and above p
    the left side is a sum of nonnegative terms.
    """

    n: int
    r: int
    lam: float
    profile: tuple[float, ...]

    def __post_init__(self):
        if not 0 <= self.r <= self.n:
            raise ValueError(f"radius must be in [0, n], got {self.r}")
        g = tuple(np.asarray(self.profile, dtype=np.float64).tolist())
        if not 1 <= len(g) <= self.r + 1:
            raise ValueError(f"profile length must be in [1, r+1], got {len(g)}")
        if not all(0 < v < math.inf for v in g):
            raise ValueError("witness profile must be positive and finite")
        object.__setattr__(self, "profile", g)

    @property
    def p(self) -> int:
        return len(self.profile) - 1

    def lift(self) -> CubeFunction:
        """Cube function taking value profile[|x|] (zero above weight p)."""
        table = np.zeros(self.n + 1)
        table[: len(self.profile)] = self.profile
        return CubeFunction(self.n, table[hamming_weights(self.n)])

    def verify_pointwise(self, tol: float = 1e-9) -> bool:
        """Check f >= 0 and Af >= (lam - tol) f at every point of the cube.

        f depends only on weight, so Af at weight i is i g(i-1) + (n-i) g(i+1)
        and the 2^n point checks collapse to one per weight.  Weights 0..p,
        where f > 0 by construction, are checked with g(p+1) = 0; above p,
        f = 0 <= Af holds term by term.  ``tol`` must be finite.
        """
        if not math.isfinite(tol):
            raise ValueError(f"tol must be finite, got {tol}")
        g = self.profile + (0.0,)
        n, floor = self.n, self.lam - tol
        return all(
            i * g[i - 1] + (n - i) * g[i + 1] >= floor * g[i]
            for i in range(len(self.profile))
        )


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
    w = hamming_weights(n)
    return SubsetGraph(n, tuple(int(x) for x in np.nonzero(w <= r)[0]))


def _above_spectrum(squares: list[float], y: float) -> bool:
    """Whether y lies above every eigenvalue of the profile operator T.

    By Sylvester's law of inertia, exactly when every LDL^T pivot of y - T,
    u_0 = y and u_k = y - sq_k/u_{k-1}, is positive; ``squares[k-1]`` is the
    square k * (n - k + 1) of the off-diagonal between weights k-1 and k.
    """
    u = y
    for sq in squares:
        if u <= 0:
            return False
        u = y - sq / u
    return u > 0


def lambda_ball_exact(n: int, r: int) -> float:
    """Top eigenvalue of the subgraph induced by the ball B(r) in {0,1}^n.

    0 at r = 0, n at r = n (the cube), else :func:`_ball_top`, to a few ulp.
    """
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, n], got r={r} n={n}")
    return 0.0 if r == 0 else float(n) if r == n else _ball_top(n, r)


def _ball_top(n: int, r: int) -> float:
    """The radius-r top eigenvalue y, to a few ulp, for r < n.

    The Airy estimate 2b - 0.75c, b = sqrt(max(r(n-r+1), 1)) and
    c = |a_1| max(n-2r, 1)^(2/3) b^(-1/3) with a_1 the first Airy zero
    (extreme Krawtchouk zeros have such asymptotics), capped at n + 1, is only
    a start: y counts as above the spectrum once :func:`_above_spectrum`
    accepts it, and each rejection raises y by 0.25c, 0.5c, ... up to n + 1,
    where every pivot is at least y/2.  Then one Laguerre step of degree
    r+1 on det(y - T) = prod u_k, which stays above the top root, with
    G = sum u'_k/u_k and H = -G' from u'_k = 1 + sq_k u'_{k-1}/u_{k-1}^2 and
    its derivative (u'_0 = 1, u''_0 = 0), and Newton steps of 1/G until one
    is at most 1e-13 max(1, y) or a pivot turns nonpositive.
    """
    squares = [float(i * (n - i + 1)) for i in range(1, r + 1)]
    b = math.sqrt(max(r * (n - r + 1), 1))
    c = 2.33811 * max(n - 2 * r, 1) ** (2 / 3) / b ** (1 / 3)
    y, rise = min(2 * b - 0.75 * c, n + 1.0), 0.25 * c
    while not _above_spectrum(squares, y):
        y, rise = min(y + rise, n + 1.0), 2 * rise
    u, du, ddu, g, h = y, 1.0, 0.0, 1.0 / y, 1.0 / (y * y)
    for sq in squares:
        w = sq / (u * u)
        du, ddu, u = 1.0 + w * du, w * (ddu - 2.0 * du * du / u), y - sq / u
        q = du / u
        g, h = g + q, h + q * q - ddu / u
    y -= (r + 1) / (g + math.sqrt(max(r * ((r + 1) * h - g * g), 0.0)))
    step = y
    while y > 0 and step > 1e-13 * max(1.0, y):
        u, du, total = y, 1.0, 1.0 / y
        for sq in squares:
            du, u = 1.0 + sq * du / (u * u), y - sq / u
            if u <= 0:
                break
            total += du / u
        step = 1.0 / total if u > 0 else 0.0
        y -= step
    return y


def _recurrence(n: int, lam: float, last: int) -> tuple[list, int]:
    """Extended-precision g(0), g(1), ... up to the first index where g <= 0.

    Stops at weight last at the latest.  Returns the values and that index,
    or n+1 if g stays positive through weight min(last, n).  The forward
    recurrence is numerically unstable once lam sits near a truncation
    eigenvalue, hence the extended precision.  For 0 <= lam <= n it cannot
    overflow: (n-i) g(i+1) = lam g(i) - i g(i-1) <= (n-i) g(i) while g is
    positive, so every value is at most g(0) = 1.
    """
    lam_x = np.longdouble(lam)
    g = [np.longdouble(1.0)]
    for i in range(min(n, last)):
        nxt = (lam_x * g[i] - i * g[i - 1]) / (n - i)
        g.append(nxt)
        if nxt <= 0:
            return g, i + 1
    return g, n + 1


def eigen_recurrence(n: int, lam: float) -> tuple[tuple[float, ...], int]:
    """Profile g with g(0)=1 propagated by lam*g(i) = i*g(i-1) + (n-i)*g(i+1).

    Returns the values of :func:`_recurrence` as floats, which stop at the
    first nonpositive weight, and that weight (n+1 if there is none).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 <= lam <= n:
        raise ValueError(f"rate must lie in [0, n], got {lam}")
    g, first_nonpos = _recurrence(n, lam, n)
    return tuple(float(v) for v in g), first_nonpos


def lambda_for_radius_recurrence(n: int, r: int) -> BallEigenWitness:
    """A rate just below the radius-r top eigenvalue, with its witness profile.

    One long-double recurrence run at lam = max(y - 4 ulp(y), 0), where y is
    :func:`_ball_top`'s Newton eigenvalue, stopped at weight r+1.  When the
    profile turns nonpositive by then (lam is at most the top eigenvalue of
    the radius-r truncation), the run's positive head g(0..p), p <= r, is the
    witness and lam the lower bound it proves.  Should the profile stay
    positive through weight r+1 instead, lam steps down from y by doubling
    steps, clamped at 0, where g(1) = 0 ends the run at once.  At r = n every
    rate is feasible (the profile stays positive through weight n), so lam
    is n with no Newton call, and the one run there is g = 1, exactly in
    long double.

    A head whose smallest value is below 2^-1022 is scaled up by an exact
    power of two, at most 2^1023, so that no value of the float profile is
    subnormal; the certificate f >= 0, Af >= lam f does not depend on scale.
    """
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, n], got r={r} n={n}")
    y, ulps = (_ball_top(n, r), 4) if r < n else (float(n), 0)
    while True:
        lam = max(y - ulps * math.ulp(y), 0.0)
        g, first_nonpos = _recurrence(n, lam, r + 1)
        if first_nonpos <= r + 1:
            break
        ulps *= 2
    head = np.array(g[:first_nonpos])
    low = np.frexp(head.min())[1] - 1  # floor(log2) of the smallest value
    if low < -1022:
        head = np.ldexp(head, min(-1022 - low, 1023))
    return BallEigenWitness(n, r, lam, head)


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
    return np.concatenate(src), np.concatenate(dst)


def subset_top_eigenpair(b: SubsetGraph) -> tuple[float, np.ndarray]:
    """Top eigenvalue and a nonnegative eigenvector of the induced adjacency.

    Power iteration on A + nI (the shift makes the spectrum nonnegative, so
    the iteration cannot oscillate between +/- lambda).  Converges when the
    residual ||(A + nI)v - rho v|| certifies the Rayleigh quotient to
    _POWER_TOL (relative above 1), within _POWER_MAX_ITER steps.  The returned
    vector is aligned with ``b.members`` and nonnegative, so it lifts to a
    valid witness function supported on the subset.
    """
    m = b.size
    if m == 1:
        return 0.0, np.ones(1)
    src, dst = _induced_edges(b)
    shift = float(b.n)
    v = np.full(m, 1.0 / math.sqrt(m))
    rho = shift
    for _ in range(_POWER_MAX_ITER):
        w = np.bincount(src, weights=v[dst], minlength=m) + shift * v
        rho = float(v @ w)
        residual = float(np.linalg.norm(w - rho * v))
        v = w / np.linalg.norm(w)
        if residual <= _POWER_TOL * max(1.0, rho):
            return rho - shift, v
    raise ArithmeticError(
        f"power iteration did not reach residual {_POWER_TOL} in {_POWER_MAX_ITER} steps"
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
    target > n (the cube is n-regular), and r = 0 meets every target <= 0.
    """
    if math.isnan(target):
        raise ValueError(f"target eigenvalue must be a number, got {target}")
    if target > n:
        raise ValueError(f"no ball of dimension {n} reaches eigenvalue {target}")
    a, b = float(max(target, 0.0)).as_integer_ratio()
    prev, cur = 1, a
    for k in range(1, n + 1):
        if cur <= 0:
            return k - 1
        prev, cur = cur, a * cur - b * b * k * (n - k + 1) * prev
    return n
