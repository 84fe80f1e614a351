"""Function-space machinery on the Hamming cube {0,1}^n.

Real-valued functions are stored densely: an array of 2^n values indexed by
bitmask, so index x stands for the point whose i-th coordinate is bit i of x.
The Walsh-Hadamard transform uses the probabilistic normalization: the
forward transform carries the 1/2^n factor (so the transform at S is the
inner product with the character W_S under the uniform measure) and the
inverse is a plain signed sum.  With that convention

    convolve(f, g)(x) = mean over y of f(y) g(x XOR y)

transforms to the pointwise product, and the graph adjacency operator is
convolution with the kernel that is 2^n at weight 1 and 0 elsewhere.

All values are immutable once constructed and safe to share across threads.
An exact integer variant (:class:`IntCubeFunction`, :func:`int_wht`) exists
for zero tests on transforms of indicator functions, where floating point
cannot be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

TRANSFORM_DIMENSION_CAP = 28  # largest dimension for dense transforms; read at call time
SWEEP_DIMENSION_CAP = 24


def sweep_dimension_cap() -> int:
    """Largest dimension accepted for exact point sweeps."""
    return SWEEP_DIMENSION_CAP


def hamming_weights(n: int) -> np.ndarray:
    """Read-only array of popcounts for every index in [0, 2^n), n within the cap."""
    if n > TRANSFORM_DIMENSION_CAP:
        raise ValueError(f"dimension must be at most {TRANSFORM_DIMENSION_CAP}, got {n}")
    return _hamming_weights(n)


@lru_cache(maxsize=64)
def _hamming_weights(n: int) -> np.ndarray:
    w = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    w.flags.writeable = False
    return w


@lru_cache(maxsize=64)
def krawtchouk(n: int) -> np.ndarray:
    """Read-only int64 K[i, w] = sum over |x| = i of (-1)^<x,S>, any |S| = w.

    If f(x) = g(|x|), then 2^n (wht f)(S) = sum_i g(i) K[i, |S|].  K[i, 0]
    is C(n, i), and |K[i, w]| <= C(n, i).
    """
    k = np.array([[sum((-1) ** j * comb(w, j) * comb(n - w, i - j) for j in range(i + 1))
                   for w in range(n + 1)] for i in range(n + 1)], dtype=np.int64)
    k.flags.writeable = False
    return k


def _checked_values(n: int, values, dtype) -> np.ndarray:
    """Frozen flat copy of 2^n values; n must be within the transform cap."""
    if not 1 <= n <= TRANSFORM_DIMENSION_CAP:
        raise ValueError(f"dimension must be in [1, {TRANSFORM_DIMENSION_CAP}], got {n}")
    out = np.array(values, dtype=dtype, copy=True).reshape(-1)
    if out.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} values for n={n}, got {out.shape[0]}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class CubeFunction:
    """Real-valued function on {0,1}^n, dense over bitmask indices."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = _checked_values(self.n, self.values, np.float64)
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class IntCubeFunction:
    """Exact integer-valued function on {0,1}^n.

    Carrier for unnormalized transforms of 0/1-valued functions: every entry
    of the transform of an indicator is an integer, so zero tests are exact.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = _checked_values(self.n, self.values, np.int64)
        if (vals != np.asarray(self.values).reshape(-1)).any():
            raise ValueError("values must be integers that fit in int64")
        object.__setattr__(self, "values", vals)


def _butterfly(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly along the last axis, in place.

    ``a`` must be C-contiguous; a stack of functions is transformed row by
    row.  Works for float64 and int64 buffers alike; self-inverse up to 2^n.
    """
    m = a.shape[-1]
    h = 1
    while h < m:
        view = a.reshape(a.shape[:-1] + (-1, 2, h))
        top = view[..., 0, :].copy()
        bot = view[..., 1, :]
        view[..., 0, :] = top + bot
        view[..., 1, :] = top - bot
        h <<= 1
    return a


def wht(f: CubeFunction) -> CubeFunction:
    """Normalized transform: (wht f)(S) = 2^-n sum_x f(x) (-1)^<x,S>."""
    out = _butterfly(f.values.copy())
    out /= float(1 << f.n)
    return CubeFunction(f.n, out)


def inverse_wht(fhat: CubeFunction) -> CubeFunction:
    """Inverse of :func:`wht`: f(x) = sum_S fhat(S) (-1)^<x,S>."""
    return CubeFunction(fhat.n, _butterfly(fhat.values.copy()))


def int_wht(f: IntCubeFunction) -> IntCubeFunction:
    """Unnormalized exact transform: 2^n times the normalized one.

    For an indicator of a set of size m every intermediate value is bounded
    by 2^n * m, so int64 never overflows within the dimension cap.
    """
    return IntCubeFunction(f.n, _butterfly(f.values.copy()))


def convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """(f * g)(x) = mean over y of f(y) g(x XOR y), via transform-multiply."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    prod = _butterfly(f.values.copy()) * _butterfly(g.values.copy())
    out = _butterfly(prod)
    out /= float(1 << f.n) ** 2
    return CubeFunction(f.n, out)


def moments(f: CubeFunction) -> tuple[float, float]:
    """Mean and second moment of f under the uniform measure."""
    mean = float(f.values.mean())
    second = float((f.values * f.values).mean())
    return mean, second


def essential_support_size(f: CubeFunction) -> float:
    """2^n * mean(f)^2 / mean(f^2): a lower bound on |supp(f)|.

    Cauchy-Schwarz makes it at most the number of nonzero entries, with
    equality exactly for (multiples of) indicators.
    """
    mean, second = moments(f)
    if second == 0.0:
        raise ValueError("essential support size of the zero function is undefined")
    return float(1 << f.n) * mean * mean / second

