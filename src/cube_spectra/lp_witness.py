"""Executable inequality chains behind the spectral code bounds.

Both checks share one engine.  Given a code C and a covering set B whose top
induced eigenvalue lambda reaches n - 2d + 1 (d the relevant distance), the
witness F is a convolution of a nonnegative eigenfunction f supported on B
with either the code indicator (covering check) or the square-root-spectrum
function phi of the code (size check).  Comparing <AF, F> computed through
the eigenvalue inequality and through the transform forces

    (lambda - n + 2d) mean(F^2) <= 2d mean(F)^2,

since every weight |S| >= d on the spectral support of F has n - 2|S| <=
n - 2d, whatever the sign; so it holds for every d, d > n/2 included.  The
premise makes the left factor at least 1, so with m = max(n, 2d)

    mean(F^2) <= m * mean(F)^2,

which turns into "the shifted copies of B cover a 1/m fraction" for the
covering check and into |C| <= m |B| for the size check.  In the paper's
domain 2d <= n, m = n.

The moments come from transforms: F's transform is the product of its
factors', phi's squared transform is the pair-count function of C over 2^n
and that of 1_C is t^2 / 4^n (t the integer transform).  For a Hamming ball
the witness profile g makes fhat radial, fhat_w = 2^-n sum_i g_i K_i(w) (K
the Krawtchouk matrix), so the sums run over the n+1 weights against the
exact distance distribution P and the dual weight sums T, P = K T / 2^n by
MacWilliams (:func:`weight_spectra`).  For a linear code the transform of
1_C is |C| times the dual's indicator, so both follow from the n+1 weight
counts A: P = |C| A and T = |C| A K^T (:func:`linear_weight_spectra`, the
all-linear sweep's route, which counts A off the popcounts of the spanned
codewords).  phi's ratio is sum(P) / P_0:

    size:      mean(F) = sqrt(|C|/2^n) fhat_0,  mean(F^2) = 2^-n sum P_w fhat_w^2
    covering:  mean(F) = (|C|/2^n) fhat_0,      mean(F^2) = 4^-n sum T_w fhat_w^2

All radii are one matrix product.  A family runs in chunks of codes (the
linear family spanned per chunk from echelon rows into uint8 codewords,
its indicators and weight counts), the float checks once per distinct
weight profile, the covered-union counts per code as exact dilations of
bit-packed indicators, stopped once every code covers the cube.  An
explicit subset B runs the same sums over all 2^n points.

Reports never silently skip: an unmet premise is a verdict, and a violated
inequality on valid inputs signals an implementation bug and is raised
loudly by the exhaustive driver.

Report JSON keys: ``ef2`` is the squared mean of F and ``ef_sq`` the second
moment, so the main inequality reads ef_sq <= m * ef2, m = max(n, 2d).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Optional

import numpy as np

from .ball_spectra import (
    BallEigenWitness,
    SubsetGraph,
    lambda_ball_exact,  # noqa: F401  unused here; perfbench/spans.py wraps it by name
    lambda_for_radius_recurrence,
    subset_top_eigenpair,
)
from .bounds import ball_size
from .codes import (
    Code,
    _echelon_rows,
    autocorrelation,
    dual_distance,
    enumerate_linear_codes,
    first_positive_weight,
    linear_weight_spectra,
    min_distance,
    random_code,
    weight_spectra,
)
from .cube_fourier import (
    CubeFunction,
    DEFAULT_TOL,
    convolve,
    essential_support_size,
    inverse_wht,
    krawtchouk,
    sweep_dimension_cap,
    transform_dimension_cap,
    wht,
)

VERDICT_HOLDS = "holds"
VERDICT_PREMISE_UNMET = "premise-unmet"
VERDICT_VIOLATED = "violated"

PROP_SIZE = "size_bound"
PROP_COVERING = "covering_bound"


class VerificationError(RuntimeError):
    """A proved inequality failed on valid inputs: an implementation bug."""

    def __init__(self, report: "PropositionReport", code: Code, context: dict):
        self.report = report
        self.code = code
        self.context = context
        dump = {
            "report": report.to_json_dict(),
            "codewords": [format(p, f"0{code.n}b") for p in code.points],
            **context,
        }
        super().__init__(
            "proposition violated; reproduction dump:\n" + json.dumps(dump, indent=2)
        )


@dataclass(frozen=True)
class PropositionReport:
    """Every quantity of one inequality-chain check, plus the verdict."""

    proposition: str
    n: int
    d: int
    r: Optional[int]
    lam: float
    premise_ok: bool
    code_size: int
    b_size: int
    ef: Optional[float]  # mean of F
    ef2: Optional[float]  # squared mean of F
    ef_sq: Optional[float]  # second moment of F
    ess_f: Optional[float]
    phi_ratio: Optional[float]  # second moment over squared mean of phi
    covered: Optional[int]
    bound_lhs: float
    bound_rhs: float
    verdict: str
    failures: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "proposition": self.proposition,
            "n": self.n,
            "d": self.d,
            "r": self.r,
            "lambda": self.lam,
            "premise_ok": self.premise_ok,
            "ef2": self.ef2,
            "ef_sq": self.ef_sq,
            "covered": self.covered,
            "bound_lhs": self.bound_lhs,
            "bound_rhs": self.bound_rhs,
            "verdict": self.verdict,
            "code_size": self.code_size,
            "b_size": self.b_size,
            "ef": self.ef,
            "ess_support_f": self.ess_f,
            "phi_ratio": self.phi_ratio,
            "failures": list(self.failures),
        }


def _premise_ok(n: int, d, lam, tol: float):
    return lam >= n - 2 * d + 1 - tol


# --- witness construction ------------------------------------------------------

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


# --- covered unions -------------------------------------------------------------

def _indicators(codes, n: int) -> np.ndarray:
    """Boolean (len(codes), 2^n) stack of code indicators."""
    if n > (cap := transform_dimension_cap()):
        raise ValueError(f"dimension must be in [1, {cap}], got {n}")
    rows = np.repeat(np.arange(len(codes)), [c.size for c in codes])
    cols = np.fromiter(itertools.chain.from_iterable(c.points for c in codes), np.int64)
    mask = np.zeros((len(codes), 1 << n), dtype=bool)
    mask[rows, cols] = True
    return mask


# _LOW_HALVES[i]: the bits j of a 64-point word whose index bit i is 0.
_LOW_HALVES = np.array([sum(1 << j for j in range(64) if not j >> i & 1) for i in range(6)],
                       dtype=np.uint64)


def _covered_counts(mask: np.ndarray, n: int, r_max: int) -> np.ndarray:
    """covered[c, r]: exact number of points within distance r of code c.

    The indicators are packed 64 points to a little-endian uint64 word, so
    flipping index bit i < 6 is a shift and mask inside every word and
    flipping bit i >= 6 swaps words.  Below n = 6 the one word is partial;
    flips of bits below n never reach its zero padding.  Once every row
    covers the cube, the remaining radii are 2^n without further dilations.
    """
    packed = np.packbits(mask, axis=-1, bitorder="little")
    pad = [(0, 0)] * (mask.ndim - 1) + [(0, -packed.shape[-1] % 8)]
    words = np.pad(packed, pad).view("<u8")
    split = words.shape[:-1] + (-1, 2)
    counts = [np.bitwise_count(words).sum(axis=-1, dtype=np.int64)]
    for _ in range(r_max):
        if (counts[-1] == 1 << n).all():
            counts += counts[-1:] * (r_max + 1 - len(counts))
            break
        out = words.copy()
        for i, low in enumerate(_LOW_HALVES[:n]):
            out |= ((words & low) << (1 << i)) | ((words >> (1 << i)) & low)
        for i in range(6, n):
            out |= words.reshape(split + (1 << (i - 6),))[..., ::-1, :].reshape(words.shape)
        words = out
        counts.append(np.bitwise_count(words).sum(axis=-1, dtype=np.int64))
    return np.stack(counts, axis=-1)


def _covered_union_subset(c: Code, subset: SubsetGraph) -> int:
    members = np.array(subset.members, dtype=np.int64)
    mask = np.zeros(1 << c.n, dtype=bool)
    for z in c.points:
        mask[members ^ z] = True
    return int(mask.sum())


def _check_sweep_cap(n: int) -> None:
    if n > (cap := sweep_dimension_cap()):
        raise ValueError(f"exact sweep capped at n={cap}, got n={n}")


def covered_fraction(c: Code, r: int) -> float:
    """Exact fraction of the cube within distance r of the code."""
    if not 0 <= r <= c.n:
        raise ValueError(f"radius must be in [0, n], got {r}")
    _check_sweep_cap(c.n)
    return _covered_counts(_indicators([c], c.n), c.n, r)[0, r] / float(1 << c.n)


# --- moments and reports ------------------------------------------------------------

@lru_cache(maxsize=64)
def _ball_table(n: int):
    """Ball route by radius r = 0..n: (lambda, ess support of f, |B|, fhat).

    lambda is the recurrence bisection's feasible end (exactly n at r = n),
    not a bracket midpoint, which can overshoot the top eigenvalue.
    fhat[r, w] = 2^-n sum_i g_i K_i(w) for the witness profile g, and
    2^n mean(f)^2 / mean(f^2) comes from sums of g and g^2 against K_i(0) = C(n, i).
    """
    k = krawtchouk(n).astype(np.float64)
    lam, ess_f, fhat = np.zeros(n + 1), np.zeros(n + 1), np.zeros((n + 1, n + 1))
    for r in range(n + 1):
        w = lambda_for_radius_recurrence(n, r)
        g = np.array(w.profile.values)
        lam[r] = w.lam
        fhat[r] = g @ k[: len(g)] / float(1 << n)
        ess_f[r] = (g @ k[: len(g), 0]) ** 2 / ((g * g) @ k[: len(g), 0])
    b_size = np.array([ball_size(n, r) for r in range(n + 1)], dtype=np.int64)
    for a in (lam, ess_f, b_size, fhat):
        a.flags.writeable = False
    return lam, ess_f, b_size, fhat


def _moments(pairs, sq_transform, fhat):
    """(ef, ef_sq, phi_ratio): F's mean and second moment, and phi's ratio.

    Rows of pairs (pair counts / 2^n) and sq_transform (squared transform of
    1_C), per point or per weight, are codes; rows of fhat are witnesses.
    ef and ef_sq are (codes, witnesses, 2) arrays: size, then covering.
    einsum sums every row the same way whatever the row count (a matrix
    product takes a matrix-vector path for one row), so no result depends
    on where a chunk starts or ends.
    """
    f2, frac = (fhat * fhat).T, pairs[:, :1]
    ef = np.stack([np.sqrt(frac) * fhat[:, 0], frac * fhat[:, 0]], axis=-1)
    ef_sq = np.stack([np.einsum("cw,wr->cr", a, f2) for a in (pairs, sq_transform)], axis=-1)
    return ef, ef_sq, pairs.sum(axis=1) / pairs[:, 0]


def _ball_moments(spectra, n: int, r_max: int):
    """(d, ef, ef_sq, phi_ratio) at radii 0..r_max; d is (minimal, dual) distance.

    spectra is the exact (P, T) of a stack of codes or weight profiles, as
    :func:`weight_spectra` or :func:`linear_weight_spectra` gives it.
    """
    pairs, sums = spectra
    d = np.stack([first_positive_weight(pairs), first_positive_weight(sums)], axis=1)
    scale = float(1 << n)
    return d, *_moments(
        pairs.astype(np.float64) / scale, sums.astype(np.float64) / (scale * scale),
        _ball_table(n)[3][: r_max + 1],
    )


def _inequalities(prop, n, m, size, b_size, ess_f, ef, ef_sq, phi_ratio, covered, tol):
    """Each inequality of one proposition by name, True where it holds.

    m = max(n, 2d) is the chain's factor.  Works on scalars and on
    broadcastable arrays alike; a covered of None leaves out the covering
    headline.
    """
    holds = {"second_moment_vs_mean": ef_sq <= m * (ef * ef) + tol}
    if prop == PROP_SIZE:
        holds["support_vs_essential_support"] = b_size >= ess_f - tol
        holds["essential_support_vs_phi_ratio"] = ess_f >= phi_ratio / m - tol
        holds["phi_ratio_vs_code_size"] = abs(phi_ratio - size) <= tol
        holds["headline_size_bound"] = size <= m * b_size
    elif covered is not None:  # exact integer comparison
        holds["headline_covering_bound"] = covered * m >= (1 << n)
    return holds


def _report(k: int, c: Code, i: int, j: int, r, moments, witnesses, covered, tol):
    """Report of proposition k (0 size, 1 covering) for code i and witness j.

    moments is (d, ef, ef_sq, phi_ratio) by code, as :func:`_ball_moments`
    returns it, and witnesses (lambda, ess support of f, |B|) by witness.
    """
    n, prop, size_prop = c.n, (PROP_SIZE, PROP_COVERING)[k], k == 0
    (d, ef, ef_sq, phi_ratio), (lam, ess_f, b_size) = moments, witnesses
    d, lam, ess_f, b_size = int(d[i, k]), float(lam[j]), float(ess_f[j]), int(b_size[j])
    ef, ef_sq, phi_ratio = float(ef[i, j, k]), float(ef_sq[i, j, k]), float(phi_ratio[i])
    premise_ok, m = bool(_premise_ok(n, d, lam, tol)), max(n, 2 * d)
    holds = _inequalities(
        prop, n, m, c.size, b_size, ess_f, ef, ef_sq, phi_ratio, covered, tol
    )
    failures = tuple(name for name, ok in holds.items() if premise_ok and not ok)
    if not premise_ok:
        ef = ef_sq = phi_ratio = None
    return PropositionReport(
        proposition=prop, n=n, d=d, r=r, lam=lam,
        premise_ok=premise_ok, code_size=c.size, b_size=b_size,
        ef=ef, ef2=None if ef is None else ef * ef, ef_sq=ef_sq, ess_f=ess_f,
        phi_ratio=phi_ratio if size_prop else None,
        covered=None if size_prop else covered,
        bound_lhs=c.size if size_prop else covered,
        bound_rhs=m * b_size if size_prop else (1 << n) / m,
        verdict=VERDICT_PREMISE_UNMET if not premise_ok
        else VERDICT_VIOLATED if failures else VERDICT_HOLDS,
        failures=failures,
    )


def _check(k: int, c: Code, r, subset, tol) -> PropositionReport:
    n = c.n
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if (r is None) == (subset is None):
        raise ValueError("pass exactly one of a ball radius or an explicit subset")
    _check_sweep_cap(n)
    if subset is None:
        if not 0 <= r <= n:
            raise ValueError(f"radius must be in [0, n], got {r}")
        mask = _indicators([c], n)
        covered = int(_covered_counts(mask, n, r)[0, r]) if k else None
        moments = _ball_moments(weight_spectra(mask), n, r)
        witnesses, j = _ball_table(n)[:3], r
    else:
        if subset.n != n:
            raise ValueError(f"dimension mismatch: code n={n}, subset n={subset.n}")
        lam, vec = subset_top_eigenpair(subset)
        vals = np.zeros(1 << n)
        vals[list(subset.members)] = vec
        f = CubeFunction(n, vals)
        d = np.array([[0, dual_distance(c)] if k else [min_distance(c), 0]])
        moments = d, *_moments(
            autocorrelation(c).values[None, :], wht(c.indicator()).values[None, :] ** 2,
            wht(f).values[None, :],
        )
        witnesses, j = ([lam], [essential_support_size(f)], [subset.size]), 0
        covered = _covered_union_subset(c, subset) if k else None
    return _report(k, c, 0, j, r, moments, witnesses, covered, tol)


def check_prop_ineq(
    c: Code,
    ball_r: Optional[int] = None,
    subset: Optional[SubsetGraph] = None,
    tol: float = DEFAULT_TOL,
) -> PropositionReport:
    """Check |C| <= m |B|, m = max(n, 2d), and the inequality chain behind it.

    B is a Hamming ball (by radius) or an explicit subset; the premise is
    that its top induced eigenvalue reaches n - 2d + 1, with d the minimal
    distance of the code.  An unmet premise is a verdict, not an error.
    """
    return _check(0, c, ball_r, subset, tol)


def check_covering(
    c: Code,
    r: Optional[int] = None,
    subset: Optional[SubsetGraph] = None,
    tol: float = DEFAULT_TOL,
) -> PropositionReport:
    """Check that shifted copies of B around the code cover a 1/m fraction.

    The premise is that of :func:`check_prop_ineq` with d the dual distance
    of the code, and m = max(n, 2d).  The covered-union cardinality is
    computed exactly and compared exactly; only the moment inequality uses
    the floating tolerance.
    """
    return _check(1, c, r, subset, tol)


# --- exhaustive driver ------------------------------------------------------------

# Codes per chunk times 2^n: bounds the working set of one chunk's arrays.
# The family is generated chunk by chunk, so memory does not grow with it.
# A random-general chunk holds the int64 transform, 8 bytes a point; a linear
# chunk holds no per-point array wider than a byte and its float checks run
# on its distinct weight profiles only, so it takes four times the codes
# (2,048 at n = 7, whose sweep traces about 1.5 MiB).
_CHUNK_ENTRIES = 1 << 16
_LINEAR_CHUNK_ENTRIES = 1 << 18


def _linear_chunks(n: int, step: int):
    """(indicators, profile spectra, profile of each code, member) per chunk.

    Dimension by dimension, up to ``step`` echelon rows at a time of the
    linear codes of length n are spanned once into uint8 codewords (n <= 8).
    The span gives the indicator rows and the weight counts A, one bincount
    of the codewords' popcounts offset by n+1 per code.  The distinct A, one
    exact int64 key each (7 bits a weight: A_w <= C(8, 4) < 2^7), are the
    chunk's profiles, with spectra by :func:`linear_weight_spectra`; inv maps
    codes to profiles, and member(i) rebuilds code i with its context by its
    position in :func:`enumerate_linear_codes`.
    """
    for k in range(1, n + 1):
        rows = _echelon_rows(n, k)
        for start in range(0, len(rows), step):
            part = rows[start : start + step]
            span = np.zeros((len(part), 1), dtype=np.uint8)
            for g in part.T:
                span = np.concatenate([span, span ^ g[:, None]], axis=1)
            mask = np.zeros((len(part), 1 << n), dtype=bool)
            np.put_along_axis(mask, span, True, axis=1)
            offsets = np.arange(0, len(part) * (n + 1), n + 1)[:, None]
            counts = np.bincount((np.bitwise_count(span) + offsets).ravel(),
                                 minlength=len(part) * (n + 1)).reshape(-1, n + 1)
            _, first, inv = np.unique(counts @ (1 << 7 * np.arange(n + 1)),
                                      return_index=True, return_inverse=True)
            spectra = linear_weight_spectra(counts[first])
            yield mask, spectra, inv, partial(_linear_member, n, k, start)


def _linear_member(n: int, k: int, start: int, i: int):
    lc = next(itertools.islice(enumerate_linear_codes(n, k), start + i, None))
    return lc.expand(), {"mode": "all-linear", "k": k}


def _random_chunks(n: int, contexts, step: int):
    """(indicators, spectra, profile of each code, member) per chunk of random codes.

    Each code is its own profile; member(i) draws code i again from its
    context, so a chunk keeps no codes.
    """
    for part in iter(lambda: list(itertools.islice(contexts, step)), []):
        member = partial(_random_member, n, part)
        mask = _indicators([member(i)[0] for i in range(len(part))], n)
        yield mask, weight_spectra(mask), np.arange(len(mask)), member


def _random_member(n: int, contexts: list, i: int):
    return random_code(n, contexts[i]["min_d"], contexts[i]["code_seed"]), contexts[i]


def exhaustive_verify(
    n: int,
    mode: str,
    trials: int = 1000,
    seed: int = 0,
    threads: int = 1,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Run both checks over a code family at every radius; abort on violation.

    mode "all-linear" sweeps every linear code of length n (n <= 8, all
    dimensions), with spectra by MacWilliams from weight counts taken off
    each chunk's span; mode "random-general" draws ``trials`` >= 0 seeded
    greedy random codes with random target distances (n <= 12), with
    spectra from the transform.  Chunk by chunk in one thread, the float
    checks run once per distinct weight profile at every radius, the exact
    covering headline once per code; ``threads`` changes neither the work
    nor the summary.  Returns the verdict counts; the first failing (code,
    radius, proposition) raises :class:`VerificationError` with a
    reproduction dump.  ``tol`` must be finite.
    """
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if mode == "all-linear":
        if not 1 <= n <= 8:
            raise ValueError(f"all-linear mode supports 1 <= n <= 8, got {n}")
        chunks = _linear_chunks(n, max(1, _LINEAR_CHUNK_ENTRIES >> n))
    elif mode == "random-general":
        if not 1 <= n <= 12:
            raise ValueError(f"random-general mode supports 1 <= n <= 12, got {n}")
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        rng = np.random.default_rng(seed)
        contexts = ({"mode": mode, "trial": t, "min_d": int(rng.integers(1, n + 1)),
                     "code_seed": int(rng.integers(0, 2**63))} for t in range(trials))
        chunks = _random_chunks(n, contexts, max(1, _CHUNK_ENTRIES >> n))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    witnesses = lam, ess_f, b_size = _ball_table(n)[:3]
    count = holds = 0
    for mask, spectra, inv, member in chunks:
        count += len(mask)
        moments = d, ef, ef_sq, phi_ratio = _ball_moments(spectra, n, n)
        covered = _covered_counts(mask, n, n)
        premise = _premise_ok(n, d[:, None, :], lam[:, None], tol)  # (profile, r, prop)
        m = np.maximum(n, 2 * d)  # (profile, prop)
        ok = []  # sizes are P_0 = |C|
        for k, prop in enumerate((PROP_SIZE, PROP_COVERING)):
            checks = _inequalities(prop, n, m[:, k, None], spectra[0][:, :1], b_size, ess_f,
                                   ef[..., k], ef_sq[..., k], phi_ratio[:, None], None, tol)
            ok.append(reduce(np.logical_and, checks.values())[inv])
        ok[1] &= covered * m[inv, 1, None] >= 1 << n  # the exact covering headline, by code
        failed = premise[inv] & ~np.stack(ok, axis=-1)  # (code, r, prop)
        if failed.any():
            i, r, k = (int(x) for x in np.unravel_index(failed.argmax(), failed.shape))
            code, context = member(i)
            rep = _report(k, code, inv[i], r, r, moments, witnesses, int(covered[i, r]), tol)
            raise VerificationError(rep, code, {"seed": seed, **context})
        holds += int(np.bincount(inv) @ premise.sum(axis=(1, 2)))

    return {
        "mode": mode,
        "n": n,
        "seed": seed,
        "trials": trials if mode == "random-general" else None,
        "codes": count,
        "holds": holds,
        "premise_unmet": 2 * (n + 1) * count - holds,
        "violations": 0,
    }
