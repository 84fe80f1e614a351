"""Closed-form and finite bound evaluation for codes on the Hamming cube.

Finite bounds are exact big integers; asymptotic quantities are plain
floats.  The finite bound for (n, d) picks the smallest ball whose top
eigenvalue reaches n - 2d + 1 and attaches the eigenvalue certificate.  For
2d <= n it multiplies the ball's exact size by n; for 2d > n the radius is 0
and the value is the Plotkin bound that the sharp form of the same
inequality gives at a single point (see :func:`finite_code_bound`).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import Optional, Union

from .ball_spectra import (
    lambda_ball_exact,  # noqa: F401  unused here; perfbench/spans.py wraps it by name
    lambda_for_radius_recurrence,
    min_radius_for_lambda,
)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound plus the inputs and certificate that produced it.

    The certificate holds its profile as a compact array("d"), a quarter of
    the memory of a list of floats; to_json_dict() turns it into a list.
    """

    kind: str  # "finite-code" | "rate"
    n: Optional[int]
    d: Optional[int]
    delta: Optional[float]
    r_star: Optional[int]
    lambda_used: Optional[float]
    value: Union[int, float]
    certificate: Optional[dict]

    def to_json_dict(self) -> dict:
        keys = {"lambda_used": "lambda", "value": "bound"}
        out = {keys.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        if (cert := self.certificate) is not None:
            out["certificate"] = {**cert, "profile": list(cert["profile"])}
        return out


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def ball_size(n: int, r: int) -> int:
    """Exact number of points in a Hamming ball of radius r (big integer)."""
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, n], got r={r} n={n}")
    return sum(math.comb(n, i) for i in range(r + 1))


def first_lp_rate(delta: float) -> float:
    """Asymptotic rate bound H(1/2 - sqrt(delta (1 - delta))).

    Strictly decreasing from 1 at delta = 0 down to 0 at delta = 1/2.
    """
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"relative distance must lie in [0, 1/2], got {delta}")
    return binary_entropy(0.5 - math.sqrt(delta * (1.0 - delta)))


def finite_code_bound(n: int, d: int) -> BoundReport:
    """Certified finite bound on the size of a distance-d code in {0,1}^n.

    r* is the smallest radius whose ball eigenvalue reaches n - 2d + 1.  For
    2d <= n the bound is |C| <= n * |B(r*)|.  For 2d > n the target is
    nonpositive, r* = 0 and lambda = 0, and the factor n is not supported:
    it comes from mean(F^2) <= n * mean(F)^2, which needs 2d <= n.  The
    sharp form (lambda - n + 2d) * mean(F^2) <= 2d * mean(F)^2 holds for
    every d; at r* = 0 the witness F is the code's phi and it reads
    |C| <= 2d / (2d - n), Plotkin's bound.  An odd d is first raised to
    d' = d + 1 by a parity bit (n' = n + 1, same size, still 2d' > n'), the
    value is max(n, floor(2d' / (2d' - n'))), and value == n * |B(r*)|
    holds only when 2d <= n.  lambda is the certificate's: the feasible end
    of the recurrence bisection at r*, a lower bound on lambda(B(r*)) that
    the attached witness profile proves.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got n={n} d={d}")
    r_star = min_radius_for_lambda(n, max(n - 2 * d + 1, 0))
    witness = lambda_for_radius_recurrence(n, r_star)
    if 2 * d <= n:
        value = n * ball_size(n, r_star)
    else:
        n_ext, d_ext = (n + 1, d + 1) if d % 2 else (n, d)
        value = max(n, 2 * d_ext // (2 * d_ext - n_ext))
    return BoundReport(
        kind="finite-code",
        n=n,
        d=d,
        delta=None,
        r_star=r_star,
        lambda_used=witness.lam,
        value=value,
        certificate={"n": n, "r": r_star, "lambda": witness.lam, "p": witness.p,
                     "profile": array("d", witness.profile.values)},
    )


def rate_report(delta: float) -> BoundReport:
    """Asymptotic rate bound packaged as a report (for uniform output)."""
    return BoundReport(
        kind="rate",
        n=None,
        d=None,
        delta=delta,
        r_star=None,
        lambda_used=None,
        value=first_lp_rate(delta),
        certificate=None,
    )


def essential_covering_radius_bound(n: int, d: int) -> tuple[int, float]:
    """Radius certified to cover a 1/n fraction around any dual-distance-d code.

    Returns (r_finite, r_asymptotic): the rigorous finite radius (smallest
    ball eigenvalue reaching n - 2d + 1) and the closed form
    n/2 - sqrt(d (n - d)), reported as a real and never floored.  The finite
    value drifts toward the asymptote as n grows; the gap is monitored in
    tests rather than asserted against an invented constant.
    """
    if not (1 <= d and 2 * d <= n):
        raise ValueError(f"asymptotic form needs 1 <= d <= n/2, got n={n} d={d}")
    r_finite = min_radius_for_lambda(n, max(n - 2 * d + 1, 0))
    r_asymptotic = n / 2.0 - math.sqrt(d * (n - d))
    return r_finite, r_asymptotic


def tietavainen_bound(n: int, d: int) -> float:
    """Comparator covering-radius bound n/2 - sqrt((d/2)(n - d/2)).

    Bounds the true covering radius of a dual-distance-d code, which
    dominates the essential covering radius, so for d <= n/2 this value
    always exceeds the asymptotic essential bound.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got n={n} d={d}")
    half = d / 2.0
    return n / 2.0 - math.sqrt(half * (n - half))


def rate_table(deltas) -> list[tuple[float, float]]:
    """Rows (delta, first_lp_rate(delta)); validates each delta."""
    return [(float(d), first_lp_rate(float(d))) for d in deltas]
