"""Executable inequality chains behind the spectral code bounds.

Both checks share one engine.  Given a code C and a covering set B whose top
induced eigenvalue lambda reaches n - 2d + 1 (d the relevant distance), the
witness F is a convolution of a nonnegative eigenfunction f supported on B
with either the code indicator (covering check) or the square-root-spectrum
function phi of the code (size check).  Comparing <AF, F> computed through
the eigenvalue inequality and through the transform forces

    mean(F^2) <= n * mean(F)^2,

which turns into "the shifted copies of B cover a 1/n fraction" for the
covering check and into |C| <= n |B| for the size check.

The comparison of the two <AF, F> estimates is only valid when n - 2d >= 0
(the low-weight spectrum cutoff must carry a nonnegative coefficient), and
for d > n/2 the raw inequality genuinely fails: the even-weight code in
{0,1}^3 with B a single point satisfies lambda_B = 0 = n - 2d + 1 yet has
mean(F^2) > n mean(F)^2 and size 4 > n |B| = 3.  Since a code of distance d
also has distance min(d, floor(n/2)), the checks run the premise against
that effective distance: every d <= n/2 case is untouched, and the d > n/2
pairings are classified premise-unmet instead of asserting a false claim.

The moments come from transforms: F's transform is the product of its
factors', phi's squared transform is the pair-count function of C over 2^n
and that of 1_C is t^2 / 4^n (t the integer transform).  For a Hamming ball
the witness profile g makes fhat radial, fhat_w = 2^-n sum_i g_i K_i(w) (K
the Krawtchouk matrix), so the sums run over the n+1 weights against the
exact distance distribution P and the dual weight sums T, P = K T / 2^n by
MacWilliams (:func:`weight_spectra`); phi's ratio is sum(P) / P_0:

    size:      mean(F) = sqrt(|C|/2^n) fhat_0,  mean(F^2) = 2^-n sum P_w fhat_w^2
    covering:  mean(F) = (|C|/2^n) fhat_0,      mean(F^2) = 4^-n sum T_w fhat_w^2

All radii are one matrix product, a family runs in chunks of codes (the
linear family spanned from arrays of echelon rows), and the covered-union
counts are exact dilations of bit-packed indicators.  An explicit subset B
runs the same sums over all 2^n points.

Reports never silently skip: an unmet premise is a verdict, and a violated
inequality on valid inputs signals an implementation bug and is raised
loudly by the exhaustive driver.

Report JSON keys: ``ef2`` is the squared mean of F and ``ef_sq`` the second
moment, so the main inequality reads ef_sq <= n * ef2.
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


def effective_distance(n: int, d):
    """Largest distance the inequality chain certifies for a distance-d code.

    The spectrum-cutoff comparison needs n - 2d >= 0; distances are monotone
    (distance d implies distance d'), so clamping to floor(n/2) loses no
    sound case and blocks the d > n/2 counterexamples.  Works elementwise.
    """
    return np.minimum(d, n // 2)


def _premise_ok(n: int, d, lam, tol: float):
    return lam >= n - 2 * effective_distance(n, d) + 1 - tol


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
    cap = transform_dimension_cap()
    if n > cap:
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
    flips of bits below n never reach its zero padding.
    """
    packed = np.packbits(mask, axis=-1, bitorder="little")
    pad = [(0, 0)] * (mask.ndim - 1) + [(0, -packed.shape[-1] % 8)]
    words = np.pad(packed, pad).view("<u8")
    split = words.shape[:-1] + (-1, 2)
    counts = [np.bitwise_count(words).sum(axis=-1, dtype=np.int64)]
    for _ in range(r_max):
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


def covered_fraction(c: Code, r: int) -> float:
    """Exact fraction of the cube within distance r of the code."""
    if not 0 <= r <= c.n:
        raise ValueError(f"radius must be in [0, n], got {r}")
    cap = sweep_dimension_cap()
    if c.n > cap:
        raise ValueError(f"exact sweep capped at n={cap}, got n={c.n}")
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
    """
    f2, frac = (fhat * fhat).T, pairs[:, :1]
    ef = np.stack([np.sqrt(frac) * fhat[:, 0], frac * fhat[:, 0]], axis=-1)
    ef_sq = np.stack([pairs @ f2, sq_transform @ f2], axis=-1)
    return ef, ef_sq, pairs.sum(axis=1) / pairs[:, 0]


def _ball_moments(mask: np.ndarray, n: int, r_max: int):
    """(d, ef, ef_sq, phi_ratio) at radii 0..r_max; d is (minimal, dual) distance."""
    pairs, sums = weight_spectra(mask)
    d = np.stack([first_positive_weight(pairs), first_positive_weight(sums)], axis=1)
    scale = float(1 << n)
    return d, *_moments(
        pairs.astype(np.float64) / scale, sums.astype(np.float64) / (scale * scale),
        _ball_table(n)[3][: r_max + 1],
    )


def _inequalities(prop, n, size, b_size, ess_f, ef, ef_sq, phi_ratio, covered, tol):
    """Each inequality of one proposition by name, True where it holds.

    Works on scalars and on broadcastable arrays alike.
    """
    holds = {"second_moment_vs_mean": ef_sq <= n * (ef * ef) + tol}
    if prop == PROP_SIZE:
        holds["support_vs_essential_support"] = b_size >= ess_f - tol
        holds["essential_support_vs_phi_ratio"] = ess_f >= phi_ratio / n - tol
        holds["phi_ratio_vs_code_size"] = abs(phi_ratio - size) <= tol
        holds["headline_size_bound"] = size <= n * b_size
    else:  # exact integer comparison
        holds["headline_covering_bound"] = covered * n >= (1 << n)
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
    premise_ok = bool(_premise_ok(n, d, lam, tol))
    holds = _inequalities(
        prop, n, c.size, b_size, ess_f, ef, ef_sq, phi_ratio, covered, tol
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
        bound_rhs=n * b_size if size_prop else (1 << n) / n,
        verdict=VERDICT_PREMISE_UNMET if not premise_ok
        else VERDICT_VIOLATED if failures else VERDICT_HOLDS,
        failures=failures,
    )


def _check(k: int, c: Code, r, subset, tol) -> PropositionReport:
    n = c.n
    if (r is None) == (subset is None):
        raise ValueError("pass exactly one of a ball radius or an explicit subset")
    if subset is None:
        if not 0 <= r <= n:
            raise ValueError(f"radius must be in [0, n], got {r}")
        mask = _indicators([c], n)
        covered = int(_covered_counts(mask, n, r)[0, r]) if k else None
        moments, witnesses, j = _ball_moments(mask, n, r), _ball_table(n)[:3], r
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
    """Check |C| <= n |B| and the full inequality chain that proves it.

    B is a Hamming ball (by radius) or an explicit subset; the premise is
    that its top induced eigenvalue reaches n - 2d + 1, with d the minimal
    distance of the code clamped to the certified domain (see
    :func:`effective_distance`).  An unmet premise is a verdict, not an
    error.
    """
    return _check(0, c, ball_r, subset, tol)


def check_covering(
    c: Code,
    r: Optional[int] = None,
    subset: Optional[SubsetGraph] = None,
    tol: float = DEFAULT_TOL,
) -> PropositionReport:
    """Check that shifted copies of B around the code cover a 1/n fraction.

    d is the dual distance of the code (clamped like in
    :func:`check_prop_ineq`).  The covered-union cardinality is computed
    exactly and compared exactly; only the moment inequality uses the
    floating tolerance.
    """
    return _check(1, c, r, subset, tol)


# --- exhaustive driver ------------------------------------------------------------

# Codes per chunk times 2^n: bounds the working set of one chunk's arrays.
# The family is generated chunk by chunk, so memory does not grow with it.
_CHUNK_ENTRIES = 1 << 16


def _linear_chunks(n: int, step: int):
    """(indicators, member) for chunks of every linear code of length n.

    Dimension by dimension, up to ``step`` echelon rows at a time are
    spanned straight into indicator rows; member(i) rebuilds code i of the
    chunk, with its context, by its position in :func:`enumerate_linear_codes`.
    """
    for k in range(1, n + 1):
        rows = _echelon_rows(n, k)
        for start in range(0, len(rows), step):
            part = rows[start : start + step]
            span = np.zeros((len(part), 1), dtype=np.int64)
            for g in part.T:
                span = np.concatenate([span, span ^ g[:, None]], axis=1)
            mask = np.zeros((len(part), 1 << n), dtype=bool)
            np.put_along_axis(mask, span, True, axis=1)
            yield mask, partial(_linear_member, n, k, start)


def _linear_member(n: int, k: int, start: int, i: int):
    lc = next(itertools.islice(enumerate_linear_codes(n, k), start + i, None))
    return lc.expand(), {"mode": "all-linear", "k": k}


def exhaustive_verify(
    n: int,
    mode: str,
    trials: int = 1000,
    seed: int = 0,
    threads: int = 1,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Run both checks over a code family at every radius; abort on violation.

    mode "all-linear" sweeps every linear code of length n (n <= 7, all
    dimensions); mode "random-general" draws ``trials`` seeded greedy random
    codes with random target distances (n <= 12).  Returns a summary of
    verdict counts; any violation raises :class:`VerificationError` with a
    reproduction dump of the first failing (code, radius, proposition).  The
    family runs in chunks of codes in one thread, every radius at once;
    ``threads`` is accepted and changes neither the work nor the summary.
    """
    step = max(1, _CHUNK_ENTRIES >> n)
    if mode == "all-linear":
        if not 1 <= n <= 7:
            raise ValueError(f"all-linear mode supports 1 <= n <= 7, got {n}")
        chunks = _linear_chunks(n, step)
    elif mode == "random-general":
        if not 1 <= n <= 12:
            raise ValueError(f"random-general mode supports 1 <= n <= 12, got {n}")
        rng = np.random.default_rng(seed)
        draws = (
            (t, int(rng.integers(1, n + 1)), int(rng.integers(0, 2**63)))
            for t in range(trials)
        )
        family = (
            (random_code(n, min_d, sub_seed),
             {"mode": mode, "trial": t, "min_d": min_d, "code_seed": sub_seed})
            for t, min_d, sub_seed in draws
        )
        parts = iter(lambda: list(itertools.islice(family, step)), [])
        chunks = ((_indicators([c for c, _ in p], n), p.__getitem__) for p in parts)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    witnesses = lam, ess_f, b_size = _ball_table(n)[:3]
    count = holds = unmet = 0
    for mask, member in chunks:
        count += len(mask)
        sizes = np.count_nonzero(mask, axis=-1)[:, None]
        moments = d, ef, ef_sq, phi_ratio = _ball_moments(mask, n, n)
        covered = _covered_counts(mask, n, n)
        premise = _premise_ok(n, d[:, None, :], lam[:, None], tol)  # (code, r, prop)
        failed = np.stack([premise[..., k] & ~reduce(np.logical_and, _inequalities(
            prop, n, sizes, b_size, ess_f, ef[..., k], ef_sq[..., k],
            phi_ratio[:, None], covered, tol,
        ).values()) for k, prop in enumerate((PROP_SIZE, PROP_COVERING))], axis=-1)
        if failed.any():
            i, r, k = (int(x) for x in np.unravel_index(failed.argmax(), failed.shape))
            code, context = member(i)
            rep = _report(k, code, i, r, r, moments, witnesses, int(covered[i, r]), tol)
            raise VerificationError(rep, code, {"seed": seed, **context})
        holds += int(premise.sum())
        unmet += int(premise.size - premise.sum())

    return {
        "mode": mode,
        "n": n,
        "seed": seed,
        "trials": trials if mode == "random-general" else None,
        "codes": count,
        "holds": holds,
        "premise_unmet": unmet,
        "violations": 0,
    }
