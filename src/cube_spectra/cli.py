"""Command-line surface.

Every subcommand is a thin wrapper over the library: no numeric logic lives
here.  Output is deterministic byte-for-byte for a fixed invocation: reals
are printed with 9 significant digits, JSON keys are emitted in a fixed
order, and the seed is echoed into json/text headers.

There is one output path.  A handler builds its result three ways (a JSON
record, text rows and, where the subcommand has fixed columns, csv rows)
and hands them to :func:`_emit`, the only reader of ``--format``: json is
``{"seed": ..., **record}``, csv is the csv rows (text where there are
none), and text is ``# seed=N`` followed by the rows.  Cells of a row are
joined by a space or a comma, reals through :func:`fmt9`.  The family
summary of ``verify`` already carries its seed and is written unseeded.

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

_REPORT_KEYS = (
    "proposition", "n", "d", "r", "lambda", "premise_ok",
    "ef2", "ef_sq", "covered", "bound_lhs", "bound_rhs", "verdict",
)


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


def _cell(v) -> str:
    return fmt9(v) if isinstance(v, float) else str(v)


def _emit(args, record: dict, rows, csv_rows=None, seeded: bool = True) -> None:
    """Write one result to stdout in the format that ``--format`` picks."""
    if args.format == "json":
        obj = {"seed": args.seed, **record} if seeded else record
        lines = [json.dumps(_round9(obj), separators=(", ", ": "))]
    elif args.format == "csv" and csv_rows is not None:
        lines = [",".join(map(_cell, row)) for row in csv_rows]
    else:
        lines = [" ".join(map(_cell, row)) for row in rows]
        if seeded:
            lines.insert(0, f"# seed={args.seed}")
    sys.stdout.write("".join(line + "\n" for line in lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-spectra",
        description="Hamming-cube transforms, ball spectra, and spectral code bounds",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("lambda", help="top eigenvalue of a Hamming ball")
    p.set_defaults(run=_cmd_lambda)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    method = p.add_mutually_exclusive_group(required=True)
    for name in ("exact", "recurrence", "bruteforce"):
        method.add_argument(f"--{name}", action="store_const", dest="method",
                            const=name)

    p = subs.add_parser("bound", help="finite code bound or asymptotic rate")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=float)

    p = subs.add_parser("verify", help="run the inequality checks")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--n", type=int)
    p.add_argument("--all-linear", action="store_true")
    p.add_argument("--random", type=int, metavar="TRIALS")
    p.add_argument("--code", metavar="FILE")
    p.add_argument("--r", type=int)
    p.add_argument("--d", type=int)

    p = subs.add_parser("wht", help="transform of a code file's indicator")
    p.set_defaults(run=_cmd_wht)
    p.add_argument("--code", metavar="FILE", required=True)

    p = subs.add_parser("cover", help="covered fraction at a radius")
    p.set_defaults(run=_cmd_cover)
    p.add_argument("--code", metavar="FILE", required=True)
    p.add_argument("--r", type=int, required=True)

    p = subs.add_parser("rate-table", help="tabulate the asymptotic rate bound")
    p.set_defaults(run=_cmd_rate_table)
    p.add_argument("--deltas", default=None, help="comma-separated list")
    p.add_argument("--step", type=float, default=None, help="grid step over [0, 1/2]")

    # common flags last, so usage lines and --help pages list them after the
    # subcommand's own
    for p in subs.choices.values():
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
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

    record = {"n": n, "r": r, "method": method, "lambda": lam}
    rows, p = [("lambda", lam)], ""
    if witness is not None:
        p, profile = witness.p, list(witness.profile.values)
        record.update(p=p, profile=profile)
        rows += [("p", p), ("profile", *profile)]
    csv_rows = [("n", "r", "method", "lambda", "p"), (n, r, method, lam, p)]
    _emit(args, record, rows, csv_rows)
    return 0


def _cmd_bound(args) -> int:
    if args.delta is not None:
        if args.n is not None or args.d is not None:
            raise ValueError("pass either --delta or (--n, --d), not both")
        report = bounds_mod.rate_report(args.delta)
        cols, vals = ("delta", "rate"), (report.delta, report.value)
    else:
        if args.n is None or args.d is None:
            raise ValueError("finite bound needs both --n and --d")
        report = bounds_mod.finite_code_bound(args.n, args.d)
        cols = ("n", "d", "r_star", "lambda", "bound")
        vals = (report.n, report.d, report.r_star, report.lambda_used, report.value)
    rows = [("kind", report.kind), *zip(cols, vals)]
    _emit(args, report.to_json_dict(), rows, [cols, vals])
    return 0


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
        dicts = [rep.to_json_dict() for rep in reports]
        rows = [(key, d[key]) for d in dicts for key in _REPORT_KEYS]
        _emit(args, {"reports": dicts}, rows)
        return int(any(d["verdict"] == lp_witness.VERDICT_VIOLATED for d in dicts))

    if args.n is None:
        raise ValueError("verify needs --code FILE or --n with a family mode")
    if args.all_linear and args.random is not None:
        raise ValueError("pass either --all-linear or --random, not both")
    if not args.all_linear and args.random is None:
        raise ValueError("family verification needs --all-linear or --random TRIALS")
    summary = lp_witness.exhaustive_verify(
        args.n,
        "all-linear" if args.all_linear else "random-general",
        trials=args.random,
        seed=args.seed,
        threads=args.threads,
        tol=args.tol,
    )
    _emit(args, summary, summary.items(), seeded=False)
    return 0 if summary["violations"] == 0 else 1


def _cmd_wht(args) -> int:
    code = read_code_file(args.code)
    values = wht(code.indicator()).values.tolist()
    rows = list(enumerate(values))
    _emit(args, {"n": code.n, "values": values}, rows, [("index", "value"), *rows])
    return 0


def _cmd_cover(args) -> int:
    code = read_code_file(args.code)
    frac = lp_witness.covered_fraction(code, args.r)
    _emit(
        args,
        {"n": code.n, "r": args.r, "covered_fraction": frac},
        [("covered_fraction", frac)],
        [("n", "r", "covered_fraction"), (code.n, args.r, frac)],
    )
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
    _emit(args, {"rows": rows}, rows, [("delta", "rate"), *rows])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
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
