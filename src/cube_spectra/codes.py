"""Binary codes as bitmask sets: distances, duals, enumeration, and file i/o.

A code is a nonempty subset of {0,1}^n stored as a sorted tuple of bitmasks;
a linear code is stored by its reduced row-echelon generator matrix over F2,
one bitmask per row, with the pivot of each row at its lowest set bit.  Both
are frozen values with structural equality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cube_fourier import (
    CubeFunction,
    IntCubeFunction,
    _butterfly,
    hamming_weights,
    int_wht,
    krawtchouk,
    transform_dimension_cap,
)


class CodeFileError(ValueError):
    """Malformed code file."""


class SingletonDistanceWarning(UserWarning):
    """Minimal distance requested for a one-word code (reported as n+1)."""


@dataclass(frozen=True)
class Code:
    """Nonempty subset of {0,1}^n; points are deduplicated and sorted."""

    n: int
    points: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be at least 1")
        pts = tuple(sorted(set(int(p) for p in self.points)))
        if not pts:
            raise ValueError("a code must contain at least one word")
        if pts[0] < 0 or pts[-1] >= (1 << self.n):
            raise ValueError(f"codewords must lie in [0, 2^{self.n})")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)

    def indicator(self) -> CubeFunction:
        return CubeFunction(self.n, self.int_indicator().values)

    def int_indicator(self) -> IntCubeFunction:
        if self.n > (cap := transform_dimension_cap()):  # before allocating 2^n
            raise ValueError(f"dimension must be in [1, {cap}], got {self.n}")
        vals = np.zeros(1 << self.n, dtype=np.int64)
        vals[list(self.points)] = 1
        return IntCubeFunction(self.n, vals)


@dataclass(frozen=True)
class LinearCode:
    """F2-subspace given by generator rows in reduced row-echelon form.

    Row pivots (lowest set bits) are strictly increasing and each pivot
    column is zero in every other row, so the representation is canonical:
    two equal subspaces compare equal.  Zero rows are rejected; the trivial
    subspace {0} is the empty generator tuple.
    """

    n: int
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be at least 1")
        gens = tuple(int(g) for g in self.generators)
        pivots = []
        for g in gens:
            if not 0 < g < (1 << self.n):
                raise ValueError(f"generator {g} out of range for n={self.n}")
            pivots.append((g & -g).bit_length() - 1)
        if sorted(pivots) != pivots or len(set(pivots)) != len(pivots):
            raise ValueError("generator pivots must be strictly increasing")
        for i, g in enumerate(gens):
            for j, p in enumerate(pivots):
                if i != j and (g >> p) & 1:
                    raise ValueError("generators are not fully reduced")
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return len(self.generators)

    @classmethod
    def from_spanning(cls, n: int, rows) -> "LinearCode":
        """Reduce an arbitrary spanning set to canonical echelon form."""
        return cls(n, _rref(rows))

    def expand(self) -> Code:
        span = [0]
        for g in self.generators:
            span += [x ^ g for x in span]
        return Code(self.n, tuple(span))


def _rref(rows) -> tuple[int, ...]:
    by_pivot: dict[int, int] = {}
    for row in rows:
        cur = int(row)
        # one pass suffices: stored rows carry no pivot bits but their own
        for q, other in by_pivot.items():
            if (cur >> q) & 1:
                cur ^= other
        if not cur:
            continue
        p = (cur & -cur).bit_length() - 1
        for q, other in by_pivot.items():
            if (other >> p) & 1:
                by_pivot[q] = other ^ cur
        by_pivot[p] = cur
    return tuple(by_pivot[p] for p in sorted(by_pivot))


def min_distance(c: Code) -> int:
    """Smallest Hamming distance between distinct codewords.

    A singleton code has no pairs; by convention it reports n+1 and emits
    :class:`SingletonDistanceWarning` so callers can reject it explicitly.
    """
    if c.size == 1:
        warnings.warn(
            f"minimal distance of a one-word code is undefined; reporting {c.n + 1}",
            SingletonDistanceWarning,
            stacklevel=2,
        )
        return c.n + 1
    pts = np.array(c.points, dtype=np.uint64)
    best = c.n
    for i in range(len(pts) - 1):
        d = int(np.bitwise_count(pts[i] ^ pts[i + 1 :]).min())
        if d < best:
            best = d
            if best == 1:
                break
    return best


def _exact_shift(a: np.ndarray, n: int) -> np.ndarray:
    """a / 2^n for integer entries that must all be multiples of 2^n."""
    if (a & ((1 << n) - 1)).any():
        raise ArithmeticError(f"integer transform not divisible by 2^{n}")
    return a >> n


def autocorrelation(c: Code) -> CubeFunction:
    """The function x -> mean_y 1_C(y) 1_C(x XOR y); exact and nonnegative.

    Transforming the squared integer transform of 1_C back gives 4^n times
    it: 2^n times the exact number of ordered pairs with u XOR v = x.
    """
    t = int_wht(c.int_indicator()).values
    return CubeFunction(c.n, _exact_shift(_butterfly(t * t), c.n) / float(1 << c.n))


def weight_spectra(indicators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (P, T) of a stack of code indicators (last axis 2^n, 0/1).

    With t the integer transform of an indicator, T[s] = sum over |S| = s of
    t(S)^2 and P[w], the ordered codeword pairs at distance w, is
    (K T)[w] / 2^n by MacWilliams, K the Krawtchouk matrix; P[0] = |C|.
    |K[w, s]| < 2^n and sum(T) = 2^n |C| <= 4^n keep K T below 2^(3n):
    int64 through n = 20, Python integers above.  This transforms all 2^n
    points of every code; for linear codes :func:`linear_weight_spectra`
    gives the same arrays from n+1 weight counts.
    """
    n = indicators.shape[-1].bit_length() - 1
    t = _butterfly(indicators.astype(np.int64))
    w = hamming_weights(n)
    order = np.argsort(w, kind="stable")
    levels = np.searchsorted(w[order], np.arange(n + 1))
    sums = np.add.reduceat((t * t)[..., order], levels, axis=-1)
    k = krawtchouk(n)
    if n > 20:
        sums, k = sums.astype(object), k.astype(object)
    return _exact_shift(sums @ k.T, n), sums


def linear_weight_spectra(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`weight_spectra` of a stack of linear codes, from their weight counts.

    counts is int64 (codes, n+1): A_w, the number of codewords of weight w.
    For a linear code C the pairs at distance w are |C| A_w, and the
    transform of 1_C is |C| times the indicator of the dual, so
    T[s] = |C|^2 A'_s = |C| (A K^T)[s] by MacWilliams.  The counts must come
    from linear codes; nothing checks it.
    """
    size = counts.sum(axis=-1, keepdims=True)
    return size * counts, size * (counts @ krawtchouk(counts.shape[-1] - 1).T)


def first_positive_weight(sums: np.ndarray) -> np.ndarray:
    """First w > 0 with sums[..., w] > 0, else n+1 (distance on P, dual on T)."""
    hit = sums[..., 1:] > 0
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1) + 1, sums.shape[-1])


def min_distance_autocorrelation(c: Code) -> int:
    """Distance via the support of the autocorrelation; exact integer route."""
    return int(first_positive_weight(weight_spectra(c.int_indicator().values)[0]))


def dual_distance(c: Code) -> int:
    """Largest d such that the transform of 1_C vanishes on 0 < |S| < d.

    Computed on the unnormalized integer transform so the vanishing test is
    exact.  Returns n+1 when the transform vanishes at every S != 0 (the
    whole cube), and 1 when some weight-1 coefficient is nonzero.
    """
    t = int_wht(c.int_indicator()).values
    w = hamming_weights(c.n)
    return int(w[(t != 0) & (w > 0)].min(initial=c.n + 1))


def dual_code(c: LinearCode) -> LinearCode:
    """Generator of the orthogonal subspace over F2."""
    pivots = [(g & -g).bit_length() - 1 for g in c.generators]
    pivot_set = set(pivots)
    basis = []
    for col in range(c.n):
        if col in pivot_set:
            continue
        v = 1 << col
        for g, p in zip(c.generators, pivots):
            if (g >> col) & 1:
                v |= 1 << p
        basis.append(v)
    dual = LinearCode.from_spanning(c.n, basis)
    if c.dim + dual.dim != c.n:
        raise ArithmeticError(f"dual has dimension {dual.dim}, not {c.n - c.dim}")
    return dual


def _echelon_rows(n: int, k: int) -> np.ndarray:
    """Read-only (count, k) uint8 echelon generator rows of every k-dim subspace of F2^n.

    For each pivot set in combinations order, the free positions (non-pivot
    columns right of each pivot, row by row) take the bits of 0 .. 2^free - 1
    in turn; the count per pivot set is the Gaussian binomial coefficient.
    Built by :func:`_echelon_recursion`.
    """
    if not (1 <= k <= n <= 8):
        raise ValueError(f"enumeration supports 1 <= k <= n <= 8, got n={n} k={k}")
    return _echelon_recursion(n, k)


@lru_cache(maxsize=None)
def _echelon_recursion(n: int, k: int) -> np.ndarray:
    """E(n, k) = :func:`_echelon_rows` by [n,k]_2 = 2^(n-k) [n-1,k-1]_2 + [n-1,k]_2.

    The recursion is on column 0.  The pivot sets holding it come first: for
    each row block e of E(n-1, k-1) in turn, shifted up a column, row 0 is
    1 | s << 1 for every submask s of e's non-pivot columns in increasing
    order (row 0's free positions are the low bits of the free-position
    count).  The pivot sets without column 0 follow: E(n-1, k), shifted.
    E(n, 0) is one empty block and E(n, k > n) is empty.  Memoized, so a
    sweep builds each E(n', k') once.
    """
    if k == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    if k > n:
        return np.zeros((0, k), dtype=np.uint8)
    sub = _echelon_recursion(n - 1, k - 1)
    pivots = np.bitwise_or.reduce(sub & -sub, axis=1).astype(np.int64)  # lowest set bits
    block, s = np.nonzero(np.arange(1 << (n - 1)) & pivots[:, None] == 0)
    head = np.concatenate([(1 | s << 1).astype(np.uint8)[:, None], sub[block] << 1], axis=1)
    rows = np.concatenate([head, _echelon_recursion(n - 1, k) << 1])
    rows.flags.writeable = False
    return rows


def enumerate_linear_codes(n: int, k: int):
    """Yield every k-dim subspace of F2^n once, in the order of :func:`_echelon_rows`."""
    for row in _echelon_rows(n, k).tolist():
        yield LinearCode(n, tuple(row))


def random_code(n: int, min_d: int, seed: int = 0) -> Code:
    """Greedy random code with pairwise distance >= min_d.

    Scans a seeded permutation of the cube, keeping every point compatible
    with all previously kept ones; the result is maximal by inclusion and
    deterministic for a fixed seed.  A kept word blocks its radius-(min_d-1)
    ball, so compatibility is one lookup per point.  min_d larger than n
    leaves no room for a second word, so the result degenerates to a single
    random point.
    """
    if min_d < 1:
        raise ValueError(f"need min_d >= 1, got {min_d}")
    ball = np.flatnonzero(hamming_weights(n) < min_d)  # checks the cap before the 2^n draw
    perm = np.random.default_rng(seed).permutation(1 << n)
    blocked = np.zeros(1 << n, dtype=bool)
    chosen = []
    for p in perm.tolist():
        if not blocked[p]:
            chosen.append(p)
            blocked[ball ^ p] = True
    return Code(n, tuple(chosen))


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


# --- code files ---------------------------------------------------------------
#
# UTF-8 text, one codeword per line.  Either 0/1 strings, all of the same
# length n (leftmost character is coordinate n-1), or 0x-prefixed hex words
# together with an explicit "n=<int>" header line.  '#' starts a comment.

def parse_code_text(text: str) -> Code:
    n_header = None
    words: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        compact = line.replace(" ", "")
        if compact.lower().startswith("n="):
            try:
                n_header = int(compact[2:])
            except ValueError:
                raise CodeFileError(f"line {lineno}: bad header {line!r}") from None
            if n_header < 1:
                raise CodeFileError(f"line {lineno}: n must be positive")
            continue
        words.append((lineno, line))
    if not words:
        raise CodeFileError("no codewords found")

    bit_lengths = set()
    masks = []
    for lineno, word in words:
        if word.lower().startswith("0x"):
            if n_header is None:
                raise CodeFileError(
                    f"line {lineno}: hex codewords require an n=<int> header"
                )
            try:
                masks.append(int(word, 16))
            except ValueError:
                raise CodeFileError(f"line {lineno}: bad hex word {word!r}") from None
        elif set(word) <= {"0", "1"}:
            bit_lengths.add(len(word))
            if len(bit_lengths) > 1:
                raise CodeFileError(
                    f"line {lineno}: codeword length {len(word)} differs from "
                    f"{bit_lengths - {len(word)}}"
                )
            masks.append(int(word, 2))
        else:
            raise CodeFileError(f"line {lineno}: not a 0/1 or 0x word: {word!r}")

    if bit_lengths:
        n_bits = bit_lengths.pop()
        if n_header is not None and n_header != n_bits:
            raise CodeFileError(
                f"header says n={n_header} but codewords have length {n_bits}"
            )
        n = n_bits
    else:
        n = n_header
    try:
        return Code(n, tuple(masks))
    except ValueError as exc:
        raise CodeFileError(str(exc)) from None


def format_code_text(c: Code) -> str:
    return "".join(format(p, f"0{c.n}b") + "\n" for p in c.points)


def read_code_file(path) -> Code:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_text(fh.read())


def write_code_file(c: Code, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code_text(c))
