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
all-linear sweep's route, with A from the coset weight counts that the
family recursion carries).  phi's ratio is sum(P) / P_0:

    size:      mean(F) = sqrt(|C|/2^n) fhat_0,  mean(F^2) = 2^-n sum P_w fhat_w^2
    covering:  mean(F) = (|C|/2^n) fhat_0,      mean(F^2) = 4^-n sum T_w fhat_w^2

All radii are one matrix product.  A sweep takes its codes in one order
(:func:`_family`), in chunks of one entry budget: the float checks once per
distinct weight profile, the exact covering count once per code (|C| times
the cosets with a leader within r for a linear code, every r in the bytes of
one word; dilations of the bit-packed indicator for any other).  An explicit
subset B runs the same sums over all 2^n points.

Reports never silently skip: an unmet premise is a verdict, and a violated
inequality on valid inputs signals an implementation bug and is raised
loudly by the exhaustive driver.

Report JSON keys: ``ef2`` is the squared mean of F and ``ef_sq`` the second
moment, so the main inequality reads ef_sq <= m * ef2, m = max(n, 2d).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
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
    """Every quantity of one inequality-chain check and the verdict, in JSON key order."""

    proposition: str
    n: int
    d: int
    r: Optional[int]
    lam: float
    premise_ok: bool
    ef2: Optional[float]  # squared mean of F
    ef_sq: Optional[float]  # second moment of F
    covered: Optional[int]
    bound_lhs: float
    bound_rhs: float
    verdict: str
    code_size: int
    b_size: int
    ef: Optional[float]  # mean of F
    ess_f: Optional[float]
    phi_ratio: Optional[float]  # second moment over squared mean of phi
    failures: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        keys = {"lam": "lambda", "ess_f": "ess_support_f"}
        out = {keys.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        return {**out, "failures": list(self.failures)}


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
    rows = np.repeat(np.arange(len(codes)), [c.size for c in codes])
    cols = np.fromiter(itertools.chain.from_iterable(c.points for c in codes), np.int64)
    mask = np.zeros((len(codes), 1 << n), dtype=bool)
    mask[rows, cols] = True
    return mask


def _pack(mask: np.ndarray) -> np.ndarray:
    """Boolean (codes, 2^n) indicators as (codes, words) little-endian uint64 words.

    64 points a word, point j at bit j % 64 of word j // 64; below n = 6 the
    one word is partial, with zero padding.
    """
    packed = np.packbits(mask, axis=-1, bitorder="little")
    return np.pad(packed, [(0, 0), (0, -packed.shape[-1] % 8)]).view("<u8")


def _flip(words: np.ndarray, i: int) -> np.ndarray:
    """Packed words with index bit i < n of every point flipped."""
    if i < 6:  # shift and mask inside each word; low: the bits j with bit i of j clear
        low = np.uint64((1 << 64) // ((1 << (1 << i)) + 1))
        return ((words & low) << (1 << i)) | ((words >> (1 << i)) & low)
    split = words.shape[:-1] + (-1, 2, 1 << (i - 6))  # swap blocks of whole words
    return words.reshape(split)[..., ::-1, :].reshape(words.shape)


def _covered_counts(words: np.ndarray, n: int, r_max: int) -> np.ndarray:
    """covered[c, r]: exact number of points within distance r of code c.

    words are packed indicators, as by :func:`_pack`; a dilation ORs in each
    :func:`_flip`, and once every row covers the cube the remaining radii are
    2^n.  The all-linear sweep counts coset leaders instead (:func:`_linear_chunks`).
    """
    counts = np.empty((len(words), r_max + 1), dtype=np.int64)
    counts[:, 0] = np.bitwise_count(words).sum(axis=1)
    for r in range(1, r_max + 1):
        if (counts[:, r - 1] == 1 << n).all():
            counts[:, r:] = 1 << n
            break
        out = words.copy()
        for i in range(n):
            out |= _flip(words, i)
        words = out
        counts[:, r] = np.bitwise_count(words).sum(axis=1)
    return counts


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
    return _covered_counts(_pack(_indicators([c], c.n)), c.n, r)[0, r] / float(1 << c.n)


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


def _check(k: int, c: Code, r, subset, tol) -> PropositionReport:
    """Report of proposition k (0 size, 1 covering) for one code.

    B is the ball of radius r, with the witness of :func:`_ball_table`, or
    an explicit subset, with the top eigenvector of its induced adjacency;
    exactly one of r and subset is given.  The exhaustive driver builds its
    violation reports here too, so a dump is the single check's report.
    """
    n, prop, size_prop = c.n, (PROP_SIZE, PROP_COVERING)[k], k == 0
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if (r is None) == (subset is None):
        raise ValueError("pass exactly one of a ball radius or an explicit subset")
    _check_sweep_cap(n)
    if subset is None:
        if not 0 <= r <= n:
            raise ValueError(f"radius must be in [0, n], got {r}")
        mask = _indicators([c], n)
        covered = int(_covered_counts(_pack(mask), n, r)[0, r]) if k else None
        d, ef, ef_sq, phi_ratio = _ball_moments(weight_spectra(mask), n, r)
        d, ef, ef_sq = d[0, k], ef[0, r, k], ef_sq[0, r, k]
        lam, ess_f, b_size = (a[r] for a in _ball_table(n)[:3])
    else:
        if subset.n != n:
            raise ValueError(f"dimension mismatch: code n={n}, subset n={subset.n}")
        lam, vec = subset_top_eigenpair(subset)
        vals = np.zeros(1 << n)
        vals[list(subset.members)] = vec
        f = CubeFunction(n, vals)
        d = dual_distance(c) if k else min_distance(c)
        ef, ef_sq, phi_ratio = _moments(
            autocorrelation(c).values[None, :], wht(c.indicator()).values[None, :] ** 2,
            wht(f).values[None, :],
        )
        ef, ef_sq = ef[0, 0, k], ef_sq[0, 0, k]
        ess_f, b_size = essential_support_size(f), subset.size
        covered = _covered_union_subset(c, subset) if k else None
    d, lam, ess_f, b_size = int(d), float(lam), float(ess_f), int(b_size)
    ef, ef_sq, phi_ratio = float(ef), float(ef_sq), float(phi_ratio[0])
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

# Entries per chunk, the one budget of both families: 2^16 / 2^n random codes,
# drawn as it runs, and their int64 transform, or 2^16 / 8 linear codes of any
# dimensions, 16 bytes each until their int64 covered counts are built, from
# gathers of 2^15 cosets (a cold n = 7 sweep traces about 1.2 MiB).
_CHUNK_ENTRIES = 1 << 16


def _family(n: int, mode: str, trials: int, seed: int):
    """(code builder, context) per code of a sweep, in the one order of its codes.

    all-linear: :func:`enumerate_linear_codes` for k = 1..n; random-general:
    trial t draws min_d, then code_seed, from default_rng(seed).
    """
    if mode == "all-linear":
        for k in range(1, n + 1):
            for lc in enumerate_linear_codes(n, k):
                yield lc.expand, {"mode": mode, "k": k}
        return
    rng = np.random.default_rng(seed)
    for t in range(trials):
        min_d, code_seed = int(rng.integers(1, n + 1)), int(rng.integers(0, 2**63))
        context = {"mode": mode, "trial": t, "min_d": min_d, "code_seed": code_seed}
        yield partial(random_code, n, min_d, code_seed), context


@lru_cache(maxsize=None)
def _coset_keys(n: int, k: int) -> np.ndarray:
    """(codes, 2^(n-k)) int64 coset weight counts of E(n, k), in family order.

    Entry z of a row is sum_w A_w << 7w, A_w the words of weight w in the
    coset z + C (7 bits a weight: A_w <= C(8, 4) < 2^7), z the part of the
    coset on the non-pivot columns, bit j on the j-th lowest; entry 0 counts
    C itself, and its lowest nonzero 7-bit field is the coset's leader
    weight.  As in :func:`codes._echelon_recursion` on column 0: C' of
    E(n-1, k-1) gives C' | C' + t for each submask t of its non-pivot columns
    in increasing order, K[z] = K'[z] + K'[z ^ t] << 7, and C' of E(n-1, k)
    gives C' | 0, column 0 free, K[b | z << 1] = K'[z] << 7b.
    """
    if n == 0:  # the zero code of F2^0: one word, of weight 0
        return np.ones((1, 1), dtype=np.int64)
    parts = []
    if k:
        sub = _coset_keys(n - 1, k - 1)
        z = np.arange(sub.shape[1])
        parts.append((sub[:, None, :] + (sub[:, z ^ z[:, None]] << 7)).reshape(-1, len(z)))
    if k < n:
        sub = _coset_keys(n - 1, k)
        parts.append(np.stack([sub, sub << 7], axis=-1).reshape(len(sub), -1))
    keys = np.concatenate(parts)
    keys.flags.writeable = False
    return keys


def _linear_chunks(n: int, budget: int):
    """(covered counts, profile spectra, profile of each code) per chunk, in family order.

    E(n, k) is never built: its codes come from the parent blocks of
    :func:`_coset_keys` of length n - 1, a head code C' | C' + t (pivot 0)
    with leader weights min(L'[z], 1 + L'[z ^ t]) and key K'[0] + K'[t] << 7,
    a tail code C' | 0 with leader weights L'[z] and 1 + L'[z] and key K'[0].
    A chunk takes whole parent blocks, of any dimension, up to budget / 8
    codes (at least one block), in parts that gather at most budget / 2
    cosets.  Its cosets add up in byte lanes: a leader weight w is
    U = 0x0101010101010101 << 8w, byte r 1 when w <= r, so a head code's
    leader is U[z] | (U << 8)[z ^ t] and a tail code's two are
    U[z] + (U << 8)[z].  Byte r of the sum over a code's cosets counts those
    within r (at most 2^7, so no byte carries), and covered(r) is |C| times
    byte min(r, 7): a nonzero code covers the cube within n - 1.  The
    distinct keys are the chunk's profiles, with spectra by
    :func:`linear_weight_spectra`; inv maps codes to profiles.
    """
    cap, keys, sums, filled = budget >> 3, [], [], 0
    for k in range(1, n + 1):
        q = 1 << (n - k)  # cosets a code
        z, most = np.arange(q), budget // 2 // q  # codes a part, at most budget / 2 cosets
        for head in (True, False) if k < n else (True,):
            parents, per, i = _coset_keys(n - 1, k - head), q if head else 1, 0  # block size
            while i < len(parents):
                if keys and filled + per > cap:  # no room for another parent block
                    yield _linear_chunk(n, keys, sums)
                    keys, sums, filled = [], [], 0
                part = parents[i : (i := i + max(1, min(cap - filled, most) // per))]
                u = np.bitwise_count((part & -part) - 1) // 7 * 8  # 8w, w each leader weight
                u = np.uint64(0x0101010101010101) << u
                keys.append((part[:, :1] + (part << 7)).ravel() if head else part[:, 0])
                sums.append(((u << 8)[:, z ^ z[:, None]] | u[:, None, :] if head
                             else u + (u << 8)).sum(axis=-1).ravel())
                filled += len(keys[-1])
    yield _linear_chunk(n, keys, sums)


def _linear_chunk(n: int, keys: list, sums: list):
    profiles, inv = np.unique(np.concatenate(keys), return_inverse=True)
    spectra = linear_weight_spectra(profiles[:, None] >> 7 * np.arange(n + 1) & 127)
    lanes = np.concatenate(sums).astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    covered = lanes[:, np.minimum(np.arange(n + 1), 7)].astype(np.int64)
    covered *= spectra[0][inv, :1]  # P_0 = |C|
    return covered, spectra, inv


def _random_chunks(family, n: int, step: int):
    """(covered counts, spectra, profile of each code) per step :func:`_family` items.

    Each code is its own profile; a chunk keeps only its arrays, not its codes.
    """
    for part in iter(lambda: list(itertools.islice(family, step)), []):
        mask = _indicators([build() for build, _ in part], n)
        yield _covered_counts(_pack(mask), n, n), weight_spectra(mask), np.arange(len(mask))


def exhaustive_verify(
    n: int,
    mode: str,
    trials: int = 1000,
    seed: int = 0,
    threads: int = 1,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Run both checks over a code family at every radius; abort on violation.

    The codes, in order, are those of :func:`_family`: mode "all-linear" is
    every linear code of length n (n <= 8), spectra by MacWilliams and
    covered counts by coset leaders in byte lanes, both from the coset
    weight counts of :func:`_coset_keys`; mode "random-general" is
    ``trials`` >= 0 seeded greedy random codes with random target distances
    (n <= 12), spectra from the transform and covered counts by dilation.
    Chunks of one entry budget run in one thread: the float checks once per
    distinct weight profile at every radius, the exact covering headline
    once per code; ``threads`` changes neither the work nor the summary.
    Returns the verdict counts; the first failing (code, radius,
    proposition) raises :class:`VerificationError` with the single-code
    check's report, its code rebuilt by its index in a fresh family.
    ``tol`` must be finite.
    """
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if mode == "all-linear":
        if not 1 <= n <= 8:
            raise ValueError(f"all-linear mode supports 1 <= n <= 8, got {n}")
        chunks = _linear_chunks(n, _CHUNK_ENTRIES)
    elif mode == "random-general":
        if not 1 <= n <= 12:
            raise ValueError(f"random-general mode supports 1 <= n <= 12, got {n}")
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        chunks = _random_chunks(_family(n, mode, trials, seed), n, max(1, _CHUNK_ENTRIES >> n))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    lam, ess_f, b_size = _ball_table(n)[:3]
    count = holds = 0
    for covered, spectra, inv in chunks:
        d, ef, ef_sq, phi_ratio = _ball_moments(spectra, n, n)
        premise = _premise_ok(n, d[:, None, :], lam[:, None], tol)  # (profile, r, prop)
        m = np.maximum(n, 2 * d)  # (profile, prop)
        ok = []  # sizes are P_0 = |C|
        for k, prop in enumerate((PROP_SIZE, PROP_COVERING)):
            checks = _inequalities(prop, n, m[:, k, None], spectra[0][:, :1], b_size, ess_f,
                                   ef[..., k], ef_sq[..., k], phi_ratio[:, None], None, tol)
            ok.append(reduce(np.logical_and, checks.values()))
        failed = premise & ~np.stack(ok, axis=-1)  # (profile, r, prop)
        # the exact covering headline, once per code: covered * m < 2^n, with no product
        short = premise[inv, :, 1] & (covered < -(-(1 << n) // m[inv, 1, None]))
        if failed.any() or short.any():
            failed = failed[inv]  # (code, r, prop)
            failed[..., 1] |= short
            i, r, k = (int(x) for x in np.unravel_index(failed.argmax(), failed.shape))
            family = _family(n, mode, trials, seed)
            build, context = next(itertools.islice(family, count + i, None))
            code = build()
            rep = _check(k, code, r, None, tol)
            raise VerificationError(rep, code, {"seed": seed, **context})
        holds += int(np.bincount(inv) @ premise.sum(axis=(1, 2)))
        count += len(inv)  # the next chunk's first global index
        del covered, short  # before the next chunk is built, for the peak RSS

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
