"""Workload inputs, the operation each one runs, and its output checks.

Every input is drawn from the run's seed.  The checks recompute what they
compare against (Gaussian binomials, ball sizes, GF(2) ranks, the weight
recurrence) without calling the library.

Workloads and why they are in the benchmark:

* ``linear-sweep``: ``exhaustive_verify(7, "all-linear")`` over 29,211 codes.
  The check engine on 128-entry arrays, where per-call overhead in
  lp_witness, codes and cube_fourier dominates; ball_spectra is nearly idle
  (8 cached radii).  The seed does not change this input.
* ``random-sweep``: ``exhaustive_verify(12, "random-general")`` with 200
  trials per call, on exhaustive_verify's thread-pool path.  Mostly the greedy
  per-point loop of ``codes.random_code``.
* ``bound-queries``: ``finite_code_bound(n, d)`` with n log-uniform over
  [10^2, 10^4] and d/n uniform over (0, 1/2].  ball_spectra bisections and
  the big-integer ball sizes of bounds; no dense arrays.  Draws in the
  region where the eigenvalue target n - 2d + 1 is at least 8192, where the
  recurrence bisection never ends, are left out (about 0.4% of them) and
  counted, so that no op of a gated run fails.
* ``bound-queries-full``: the same draw with the hang region kept; those
  queries miss their deadline and count as failures.
* ``large-code-checks``: ``check_prop_ineq`` plus ``check_covering`` on a
  random linear code with n in [16, 20] and dimension in [n/3, n/2].
  cube_fourier butterflies and dilations on 2^16..2^20 entries, the same
  layer that linear-sweep drives on 2^7 entries.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

HOLDS = "holds"
PREMISE_UNMET = "premise-unmet"

LINEAR_N = 7
RANDOM_N = 12
RANDOM_TRIALS = 200
BOUND_N_MIN, BOUND_N_MAX = 100, 10_000
LARGE_N_MIN, LARGE_N_MAX = 16, 20
# Eigenvalue targets at or above 2^13 make the recurrence bisection stall:
# ulp(lambda) exceeds its fixed 1e-12 stopping width.
HANG_TARGET = 8192
RECURRENCE_RTOL = 1e-9

SWEEP_CALLS = 64
BOUND_QUERIES = 4000
LARGE_CODES = 200


def radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i in the given base, in [0, 1)."""
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


def gaussian_binomial_sum(n: int) -> int:
    """Number of nonzero subspaces of F2^n: sum over k >= 1 of [n, k]_2."""
    total = 0
    for k in range(1, n + 1):
        num = den = 1
        for i in range(k):
            num *= (1 << (n - i)) - 1
            den *= (1 << (i + 1)) - 1
        total += num // den
    return total


def ball_volume(n: int, r: int) -> int:
    """Points within distance r of a point of {0,1}^n, by running binomials."""
    term = total = 1
    for i in range(1, r + 1):
        term = term * (n - i + 1) // i
        total += term
    return total


def gf2_rank(rows) -> int:
    # Basis kept in decreasing order, so its top bits are distinct and each
    # reduction step clears one top bit without setting a higher one.
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


# --- specs -----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    n: int
    mode: str
    trials: int
    seed: int
    threads: int


@dataclass(frozen=True)
class BoundSpec:
    n: int
    d: int
    draw: int = 0  # position in the Halton stream, from 1

    @property
    def target(self) -> int:
        return self.n - 2 * self.d + 1

    @property
    def in_hang_region(self) -> bool:
        return self.target >= HANG_TARGET


@dataclass(frozen=True)
class LargeSpec:
    n: int
    rows: tuple[int, ...]
    rank: int
    r: int
    code: object = field(repr=False)  # cube_spectra.Code, built during set-up


def linear_specs(seed: int, lib) -> list[SweepSpec]:
    return [SweepSpec(LINEAR_N, "all-linear", 0, 0, 1)] * SWEEP_CALLS


def random_specs(seed: int, lib) -> list[SweepSpec]:
    rng = np.random.default_rng(seed)
    threads = min(2, os.cpu_count() or 1)
    return [
        SweepSpec(RANDOM_N, "random-general", RANDOM_TRIALS,
                  int(rng.integers(0, 2**63)), threads)
        for _ in range(SWEEP_CALLS)
    ]


def bound_specs(seed: int, lib, hang_region: bool = False) -> list[BoundSpec]:
    """Halton points (bases 2 and 3) shifted by seeded offsets.

    Each query is marginally log-uniform in n and uniform in d/n, and every
    prefix of the stream covers the square evenly, so runs with different
    seeds do the same mix of work.  Points in the hang region are skipped
    unless hang_region is true; each spec keeps its position in the stream.
    """
    shift_n, shift_x = np.random.default_rng(seed).random(2)
    span = math.log(BOUND_N_MAX / BOUND_N_MIN)
    specs = []
    draw = 0
    while len(specs) < BOUND_QUERIES:
        draw += 1
        u = (radical_inverse(draw, 2) + shift_n) % 1.0
        v = (radical_inverse(draw, 3) + shift_x) % 1.0
        n = min(BOUND_N_MAX, max(BOUND_N_MIN, round(BOUND_N_MIN * math.exp(u * span))))
        d = max(1, int(0.5 * (1.0 - v) * n))
        spec = BoundSpec(n, d, draw)
        if hang_region or not spec.in_hang_region:
            specs.append(spec)
    return specs


def bound_specs_full(seed: int, lib) -> list[BoundSpec]:
    return bound_specs(seed, lib, hang_region=True)


def large_specs(seed: int, lib) -> list[LargeSpec]:
    """Blocks of five codes, one per n in [16, 20] in seeded order.

    Within each n the radius fraction follows a shifted van der Corput
    sequence over blocks, so short runs still see every size and radius.
    """
    rng = np.random.default_rng(seed)
    dims = range(LARGE_N_MIN, LARGE_N_MAX + 1)
    shifts = {n: float(rng.random()) for n in dims}
    specs = []
    for block in range(LARGE_CODES // len(dims)):
        for n in rng.permutation(np.array(dims)):
            n = int(n)
            k = int(rng.integers(-(-n // 3), n // 2 + 1))
            rows = tuple(int(x) for x in rng.integers(1, 1 << n, size=k))
            frac = (radical_inverse(block + 1, 2) + shifts[n]) % 1.0
            r = min(n, int(frac * (n + 1)))
            code = lib.LinearCode.from_spanning(n, rows).expand()
            specs.append(LargeSpec(n, rows, gf2_rank(rows), r, code))
    return specs


# --- operations ------------------------------------------------------------------
# Each op looks the library function up on its module at call time, so the
# traced run's wrappers see it.


def sweep_op(spec: SweepSpec, lib):
    return lib.lp_witness.exhaustive_verify(
        spec.n, spec.mode, trials=spec.trials, seed=spec.seed, threads=spec.threads
    )


def bound_op(spec: BoundSpec, lib):
    return lib.bounds.finite_code_bound(spec.n, spec.d)


def large_op(spec: LargeSpec, lib):
    lw = lib.lp_witness
    return (
        lw.check_prop_ineq(spec.code, ball_r=spec.r),
        lw.check_covering(spec.code, r=spec.r),
    )


# --- output checks: None when the output is right, else the reason ---------------


def check_sweep(spec: SweepSpec, out: dict) -> Optional[str]:
    codes = gaussian_binomial_sum(spec.n) if spec.mode == "all-linear" else spec.trials
    if out["codes"] != codes:
        return f"codes {out['codes']} != {codes}"
    if out["violations"] != 0:
        return f"{out['violations']} violations"
    if out["holds"] + out["premise_unmet"] != 2 * (spec.n + 1) * codes:
        return "holds + premise_unmet != 2 (n+1) codes"
    return None


def check_bound(spec: BoundSpec, rep) -> Optional[str]:
    n, r = spec.n, rep.r_star
    if r is None or not 0 <= r <= n:
        return f"r* {r} outside [0, n]"
    if rep.value != n * ball_volume(n, r):
        return "value != n * |B(r*)|"
    cert = rep.certificate
    lam, g = cert["lambda"], cert["profile"]
    if cert["n"] != n or cert["r"] != r or len(g) != cert["p"] + 1:
        return "certificate shape"
    if any(not v > 0 for v in g):
        return "certificate profile not positive"
    for i in range(len(g)):
        left = (i * g[i - 1] if i else 0.0) + ((n - i) * g[i + 1] if i + 1 < len(g) else 0.0)
        right = lam * g[i]
        if left < right - RECURRENCE_RTOL * max(abs(left), abs(right)):
            return f"weight recurrence inequality fails at weight {i}"
    target = spec.target
    if 2 * spec.d <= n and lam < target - RECURRENCE_RTOL * target:
        return f"certificate lambda {lam} below target {target}"
    return None


def check_large(spec: LargeSpec, out) -> Optional[str]:
    n, r = spec.n, spec.r
    size = 1 << spec.rank
    b_size = ball_volume(n, r)
    for rep in out:
        if rep.n != n or rep.r != r:
            return "report n or r differs from the query"
        if rep.code_size != size:
            return f"code_size {rep.code_size} != 2^rank {size}"
        if rep.b_size != b_size:
            return f"b_size {rep.b_size} != {b_size}"
        if rep.verdict not in (HOLDS, PREMISE_UNMET):
            return f"verdict {rep.verdict}"
    size_rep, cover_rep = out
    if size_rep.verdict == HOLDS and not size <= n * b_size:
        return "size holds but code_size > n * b_size"
    if cover_rep.verdict == HOLDS and not cover_rep.covered * n >= 1 << n:
        return "covering holds but covered * n < 2^n"
    return None


# --- per-op tallies ----------------------------------------------------------------


def sweep_units(spec: SweepSpec) -> int:
    return gaussian_binomial_sum(spec.n) if spec.mode == "all-linear" else spec.trials


def sweep_checks(out: dict) -> tuple[int, int]:
    return out["holds"] + out["premise_unmet"] + out["violations"], out["holds"]


def large_checks(out) -> tuple[int, int]:
    return len(out), sum(rep.verdict == HOLDS for rep in out)


@dataclass(frozen=True)
class Workload:
    name: str
    make_specs: Callable
    op: Callable
    check: Callable
    units: Callable  # spec -> ops it stands for (codes in a sweep call)
    checks: Callable  # output -> (inequality checks attempted, holds)
    deadline_s: float
    clear_caches_each_op: bool  # else once, when the run starts
    single_thread: bool  # ops use one thread: the run may follow the fastest CPU


WORKLOADS = {
    w.name: w
    for w in (
        Workload("linear-sweep", linear_specs, sweep_op, check_sweep,
                 sweep_units, sweep_checks, 150.0, True, True),
        Workload("random-sweep", random_specs, sweep_op, check_sweep,
                 sweep_units, sweep_checks, 150.0, True, False),
        Workload("bound-queries", bound_specs, bound_op, check_bound,
                 lambda spec: 1, lambda out: (0, 0), 10.0, False, True),
        Workload("bound-queries-full", bound_specs_full, bound_op, check_bound,
                 lambda spec: 1, lambda out: (0, 0), 10.0, False, True),
        # Caches are cleared before every code: each holds ~32 * 2^n bytes
        # per code and nothing is reused across distinct codes.
        Workload("large-code-checks", large_specs, large_op, check_large,
                 lambda spec: 1, large_checks, 30.0, True, True),
    )
}
