"""Binary codes as bitmask sets: distances, enumeration, and file i/o.

A code is a nonempty subset of {0,1}^n stored as a sorted tuple of bitmasks;
a linear code is stored by its reduced row-echelon generator matrix over F2,
one bitmask per row, with the pivot of each row at its lowest set bit.  Both
are frozen values with structural equality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import cube_fourier
from .cube_fourier import (
    CubeFunction,
    IntCubeFunction,
    _butterfly,
    hamming_weights,
    int_wht,
    krawtchouk,
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
        if self.n > (cap := cube_fourier.TRANSFORM_DIMENSION_CAP):  # before allocating 2^n
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
        if bad := [g for g in gens if not 0 < g < (1 << self.n)]:
            raise ValueError(f"generator {bad[0]} out of range for n={self.n}")
        pivots = 0  # the pivot bits so far
        for g in gens:
            if g & -g <= pivots:
                raise ValueError("generator pivots must be strictly increasing")
            pivots |= g & -g
        if any(g & pivots != g & -g for g in gens):
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


def dual_distance(c: Code) -> int:
    """Largest d such that the transform of 1_C vanishes on 0 < |S| < d.

    Computed on the unnormalized integer transform so the vanishing test is
    exact.  Returns n+1 when the transform vanishes at every S != 0 (the
    whole cube), and 1 when some weight-1 coefficient is nonzero.
    """
    t = int_wht(c.int_indicator()).values
    w = hamming_weights(c.n)
    return int(w[(t != 0) & (w > 0)].min(initial=c.n + 1))


def _echelon_rows(n: int, k: int):
    """Yield E(n, k), the echelon generator rows of every k-dim subspace of F2^n.

    The recursion [n,k]_2 = 2^(n-k) [n-1,k-1]_2 + [n-1,k]_2 on column 0: for
    each row tuple e of E(n-1, k-1), shifted up a column, row 0 is 1 | s << 1
    for every submask s of e's non-pivot columns in increasing order; then
    E(n-1, k), shifted.  E(n, 0) is one empty tuple and E(n, k > n) is empty.
    """
    if k == 0:
        yield ()
    elif k <= n:
        for sub in _echelon_rows(n - 1, k - 1):
            free = (1 << (n - 1)) - 1 - sum(g & -g for g in sub)  # e's non-pivot columns
            rest, s = [g << 1 for g in sub], 0
            yield (1, *rest)
            while s := (s - free) & free:  # the next submask of free
                yield (1 | s << 1, *rest)
        for sub in _echelon_rows(n - 1, k):
            yield tuple(g << 1 for g in sub)


def enumerate_linear_codes(n: int, k: int):
    """Yield every k-dim subspace of F2^n once, 1 <= k <= n <= 8.

    Pivot sets come in combinations order; for each, the free positions
    (non-pivot columns right of each pivot, row by row) take the bits of
    0 .. 2^free - 1 in turn.  :func:`_echelon_rows` is the recursion that
    produces this order.
    """
    if not (1 <= k <= n <= 8):
        raise ValueError(f"enumeration supports 1 <= k <= n <= 8, got n={n} k={k}")
    for rows in _echelon_rows(n, k):
        yield LinearCode(n, rows)


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


# --- code files ---------------------------------------------------------------
#
# UTF-8 text, one codeword per line; '#' starts a comment and blank lines are
# skipped.  A word is either a 0/1 string (leftmost character is coordinate
# n-1), all of one length, or a 0x-prefixed hex word.  An "n=<int>" header
# line may come anywhere in the file, spaces inside it are ignored, and it
# may be repeated only with the same value.  Hex words need the header; 0/1
# and hex words may be mixed only when the header equals the 0/1 length.

def _ascii_int(s: str, base: int) -> int:
    """int(s, base) of ASCII letters and digits only: no sign, _, space or other script."""
    if not (s.isascii() and s.isalnum()):
        raise ValueError(f"not an ASCII base-{base} number: {s!r}")
    return int(s, base)


def parse_code_text(text: str) -> Code:
    n_header, words = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        compact = line.replace(" ", "")
        if compact.lower().startswith("n="):
            try:
                value = _ascii_int(compact[2:], 10)
            except ValueError:
                raise CodeFileError(f"line {lineno}: bad header {line!r}") from None
            if value < 1:
                raise CodeFileError(f"line {lineno}: n must be positive")
            if n_header not in (None, value):
                raise CodeFileError(f"line {lineno}: n={value} conflicts with n={n_header}")
            n_header = value
        elif line:
            words.append((lineno, line))
    if not words:
        raise CodeFileError("no codewords found")

    n_bits, masks = None, []
    for lineno, word in words:
        if set(word) <= {"0", "1"}:
            if n_bits not in (None, len(word)):
                raise CodeFileError(f"line {lineno}: codeword length {len(word)} "
                                    f"differs from {{{n_bits}}}")
            n_bits = len(word)
            masks.append(int(word, 2))
        elif not word.lower().startswith("0x"):
            raise CodeFileError(f"line {lineno}: not a 0/1 or 0x word: {word!r}")
        elif n_header is None:
            raise CodeFileError(f"line {lineno}: hex codewords require an n=<int> header")
        else:
            try:
                masks.append(_ascii_int(word[2:], 16))
            except ValueError:
                raise CodeFileError(f"line {lineno}: bad hex word {word!r}") from None
    if n_bits and n_header and n_header != n_bits:
        raise CodeFileError(f"header says n={n_header} but codewords have length {n_bits}")
    try:
        return Code(n_bits or n_header, tuple(masks))
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
