"""Command-line surface.

Every subcommand is a thin wrapper over the library: no numeric logic lives
here.  Output is deterministic byte-for-byte for a fixed invocation: reals
are printed with 9 significant digits, JSON keys are emitted in a fixed
order, and the seed is echoed into json/text headers.

Exit codes: 0 success, 1 proposition violation or internal cross-check
disagreement, 2 usage/domain/parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import lp_witness
from .ball_spectra import (
    hamming_ball,
    lambda_ball_exact,
    lambda_for_radius_recurrence,
    lambda_subset_bruteforce,
)
from .codes import CodeFileError, min_distance, read_code_file
from .cube_fourier import wht


def fmt9(x: float) -> str:
    return f"{x:.9g}"


def _round9(obj):
    if isinstance(obj, float):
        return float(fmt9(obj))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(_round9(obj), separators=(", ", ": ")) + "\n")


def _emit_text(lines) -> None:
    sys.stdout.write("".join(line + "\n" for line in lines))


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-spectra",
        description="Hamming-cube transforms, ball spectra, and spectral code bounds",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("lambda", help="top eigenvalue of a Hamming ball")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    method = p.add_mutually_exclusive_group(required=True)
    method.add_argument("--exact", action="store_const", dest="method", const="exact")
    method.add_argument(
        "--recurrence", action="store_const", dest="method", const="recurrence"
    )
    method.add_argument(
        "--bruteforce", action="store_const", dest="method", const="bruteforce"
    )
    _common_flags(p)

    p = subs.add_parser("bound", help="finite code bound or asymptotic rate")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=float)
    _common_flags(p)

    p = subs.add_parser("verify", help="run the inequality checks")
    p.add_argument("--n", type=int)
    p.add_argument("--all-linear", action="store_true")
    p.add_argument("--random", type=int, metavar="TRIALS")
    p.add_argument("--code", metavar="FILE")
    p.add_argument("--r", type=int)
    p.add_argument("--d", type=int)
    _common_flags(p)

    p = subs.add_parser("wht", help="transform of a code file's indicator")
    p.add_argument("--code", metavar="FILE", required=True)
    _common_flags(p)

    p = subs.add_parser("cover", help="covered fraction at a radius")
    p.add_argument("--code", metavar="FILE", required=True)
    p.add_argument("--r", type=int, required=True)
    _common_flags(p)

    p = subs.add_parser("rate-table", help="tabulate the asymptotic rate bound")
    p.add_argument("--deltas", default=None, help="comma-separated list")
    p.add_argument("--step", type=float, default=None, help="grid step over [0, 1/2]")
    _common_flags(p)

    return parser


def _cmd_lambda(args) -> int:
    n, r, method = args.n, args.r, args.method
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got n={n} r={r}")

    witness = None
    if method == "exact":
        lam = lambda_ball_exact(n, r)
    elif method == "recurrence":
        witness = lambda_for_radius_recurrence(n, r)
        lam = witness.lam
    else:
        if n > 16:
            raise ValueError("bruteforce method capped at n=16")
        lam = lambda_subset_bruteforce(hamming_ball(n, r))

    # bug trap: the independent routes must agree on anything this small
    if 1 <= n <= 12:
        exact = lambda_ball_exact(n, r)
        rec = lambda_for_radius_recurrence(n, r).lam
        tol = max(args.tol, 1e-7)
        if abs(exact - rec) > tol or abs(lam - exact) > tol:
            sys.stderr.write(
                f"internal disagreement: exact={exact!r} recurrence={rec!r} "
                f"{method}={lam!r}\n"
            )
            return 1

    if args.format == "json":
        out = {"seed": args.seed, "n": n, "r": r, "method": method, "lambda": lam}
        if witness is not None:
            out["p"] = witness.p
            out["profile"] = list(witness.profile.values)
        _emit_json(out)
    elif args.format == "csv":
        p_field = str(witness.p) if witness is not None else ""
        _emit_text(["n,r,method,lambda,p", f"{n},{r},{method},{fmt9(lam)},{p_field}"])
    else:
        lines = [f"# seed={args.seed}", f"lambda {fmt9(lam)}"]
        if witness is not None:
            lines.append(f"p {witness.p}")
            lines.append("profile " + " ".join(fmt9(v) for v in witness.profile.values))
        _emit_text(lines)
    return 0


def _cmd_bound(args) -> int:
    if args.delta is not None:
        if args.n is not None or args.d is not None:
            raise ValueError("pass either --delta or (--n, --d), not both")
        report = bounds_mod.rate_report(args.delta)
    else:
        if args.n is None or args.d is None:
            raise ValueError("finite bound needs both --n and --d")
        report = bounds_mod.finite_code_bound(args.n, args.d)

    if args.format == "json":
        _emit_json({"seed": args.seed, **report.to_json_dict()})
    elif args.format == "csv":
        if report.kind == "rate":
            _emit_text(["delta,rate", f"{fmt9(report.delta)},{fmt9(report.value)}"])
        else:
            _emit_text(
                [
                    "n,d,r_star,lambda,bound",
                    f"{report.n},{report.d},{report.r_star},"
                    f"{fmt9(report.lambda_used)},{report.value}",
                ]
            )
    else:
        lines = [f"# seed={args.seed}", f"kind {report.kind}"]
        if report.kind == "rate":
            lines += [f"delta {fmt9(report.delta)}", f"rate {fmt9(report.value)}"]
        else:
            lines += [
                f"n {report.n}",
                f"d {report.d}",
                f"r_star {report.r_star}",
                f"lambda {fmt9(report.lambda_used)}",
                f"bound {report.value}",
            ]
        _emit_text(lines)
    return 0


def _report_lines(rep) -> list[str]:
    d = rep.to_json_dict()
    out = []
    for key in (
        "proposition", "n", "d", "r", "lambda", "premise_ok",
        "ef2", "ef_sq", "covered", "bound_lhs", "bound_rhs", "verdict",
    ):
        val = d[key]
        if isinstance(val, float):
            val = fmt9(val)
        out.append(f"{key} {val}")
    return out


def _cmd_verify(args) -> int:
    if args.code is not None:
        code = read_code_file(args.code)
        if args.d is not None:
            actual = min_distance(code)
            if actual != args.d:
                raise ValueError(
                    f"--d {args.d} contradicts the code (minimal distance {actual})"
                )
        if args.r is None:
            raise ValueError("single-code verification needs --r")
        reports = [
            lp_witness.check_covering(code, r=args.r, tol=args.tol),
            lp_witness.check_prop_ineq(code, ball_r=args.r, tol=args.tol),
        ]
        violated = any(r.verdict == lp_witness.VERDICT_VIOLATED for r in reports)
        if args.format == "json":
            _emit_json({"seed": args.seed, "reports": [r.to_json_dict() for r in reports]})
        else:
            lines = [f"# seed={args.seed}"]
            for rep in reports:
                lines += _report_lines(rep)
            _emit_text(lines)
        return 1 if violated else 0

    if args.n is None:
        raise ValueError("verify needs --code FILE or --n with a family mode")
    if args.all_linear and args.random is not None:
        raise ValueError("pass either --all-linear or --random, not both")
    if args.all_linear:
        summary = lp_witness.exhaustive_verify(
            args.n, "all-linear", seed=args.seed, threads=args.threads, tol=args.tol
        )
    elif args.random is not None:
        summary = lp_witness.exhaustive_verify(
            args.n,
            "random-general",
            trials=args.random,
            seed=args.seed,
            threads=args.threads,
            tol=args.tol,
        )
    else:
        raise ValueError("family verification needs --all-linear or --random TRIALS")

    if args.format == "json":
        _emit_json(summary)
    else:
        _emit_text([f"{k} {v}" for k, v in summary.items()])
    return 0 if summary["violations"] == 0 else 1


def _cmd_wht(args) -> int:
    code = read_code_file(args.code)
    fhat = wht(code.indicator())
    if args.format == "json":
        _emit_json({"seed": args.seed, "n": code.n, "values": fhat.values.tolist()})
    elif args.format == "csv":
        lines = ["index,value"] + [
            f"{i},{fmt9(v)}" for i, v in enumerate(fhat.values.tolist())
        ]
        _emit_text(lines)
    else:
        lines = [f"# seed={args.seed}"] + [
            f"{i} {fmt9(v)}" for i, v in enumerate(fhat.values.tolist())
        ]
        _emit_text(lines)
    return 0


def _cmd_cover(args) -> int:
    code = read_code_file(args.code)
    frac = lp_witness.covered_fraction(code, args.r)
    if args.format == "json":
        _emit_json(
            {"seed": args.seed, "n": code.n, "r": args.r, "covered_fraction": frac}
        )
    elif args.format == "csv":
        _emit_text(["n,r,covered_fraction", f"{code.n},{args.r},{fmt9(frac)}"])
    else:
        _emit_text([f"# seed={args.seed}", f"covered_fraction {fmt9(frac)}"])
    return 0


def _cmd_rate_table(args) -> int:
    if args.deltas is not None and args.step is not None:
        raise ValueError("pass either --deltas or --step, not both")
    if args.step is not None:
        if args.step <= 0:
            raise ValueError("--step must be positive")
        deltas, x = [], 0.0
        while x < 0.5 + 1e-15:
            deltas.append(min(x, 0.5))
            x += args.step
    elif args.deltas is not None:
        text = args.deltas.strip()
        deltas = [float(tok) for tok in text.split(",") if tok.strip()] if text else []
    else:
        raise ValueError("rate-table needs --deltas or --step")

    rows = bounds_mod.rate_table(deltas)
    if args.format == "json":
        _emit_json({"seed": args.seed, "rows": [[d, r] for d, r in rows]})
    elif args.format == "csv":
        _emit_text(["delta,rate"] + [f"{fmt9(d)},{fmt9(r)}" for d, r in rows])
    else:
        lines = [f"# seed={args.seed}"]
        lines += [f"{fmt9(d)} {fmt9(r)}" for d, r in rows]
        _emit_text(lines)
    return 0


_DISPATCH = {
    "lambda": _cmd_lambda,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "wht": _cmd_wht,
    "cover": _cmd_cover,
    "rate-table": _cmd_rate_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except lp_witness.VerificationError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (CodeFileError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
