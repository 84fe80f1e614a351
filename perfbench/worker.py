"""One measured run of one workload, in a fresh process (started by run.py).

Prints ``ready`` once the library is imported and the inputs are built, then
one JSON line with the result.  With ``--setup-only`` it exits after
``ready``; run.py times several such starts for ``setup_s``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import cube_spectra  # noqa: E402
from cube_spectra import ball_spectra, bounds, codes, cube_fourier, lp_witness  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = {
    "cube_fourier": cube_fourier,
    "codes": codes,
    "ball_spectra": ball_spectra,
    "bounds": bounds,
    "lp_witness": lp_witness,
}


# What the workloads see of the library.
LIB = SimpleNamespace(**MODULES, LinearCode=cube_spectra.LinearCode)


def measure(wl, specs, ledger, seconds, indices=None, tracer=None):
    """Closed loop over specs (or replay of the given indices).

    Returns the op records and the CpuGauge that ran alongside.
    """
    seq = itertools.count()  # op ids of the spans: position in the run
    if not wl.clear_caches_each_op:
        ledger.clear()

    def before(i):
        if wl.clear_caches_each_op:
            ledger.clear()
        if tracer is not None:
            tracer.begin_op(next(seq))

    def do_op(i):
        spec = specs[i]
        return harness.run_op(lambda: wl.op(spec, LIB),
                              lambda out: wl.check(spec, out), wl.deadline_s, i)

    if indices is None:
        order = (i % len(specs) for i in range(10**9))
        budget, cap = seconds, min(110.0, 3 * seconds + 2 * wl.deadline_s)
    else:
        order, budget, cap = indices, float("inf"), float("inf")
    with harness.CpuGauge(pin=wl.single_thread) as gauge:
        records = harness.closed_loop(order, do_op, budget, cap, before)
    return records, gauge


def gauge_record(gauge) -> dict:
    rates = [rate for _, rate in gauge.samples]
    return {"ticks": len(rates), "moves": gauge.moves,
            "probe_rate_median": statistics.median(rates),
            "probe_rate_min": min(rates), "probe_rate_max": max(rates)}


def outcome_counts(wl, records) -> dict:
    checks = holds = 0
    for rec in records:
        if rec.output is not None:
            c, h = wl.checks(rec.output)
            checks += c
            holds += h
    return {"checks": checks, "holds": holds}


def traced_metrics(wl, specs, ledger, seconds, tag):
    tracer = spans.Tracer()
    ledger.reset_counts()
    missing = tracer.install(MODULES)
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        records, gauge = measure(wl, specs, ledger, seconds, tracer=tracer)
        cpu1, wall1 = time.process_time(), time.perf_counter()
    finally:
        tracer.uninstall()
    lambda_hits = ledger.hit_ratio("ball_spectra.lambda_ball_exact")
    # The first ops again without tracing, up to half the run's length, for
    # the overhead; both sides in reference seconds.
    kept, total = [], 0.0
    for r in records:
        if kept and total + r.wall > seconds / 2:
            break
        if r.failure != harness.DEADLINE:
            kept.append(r)
            total += r.wall
    replay, replay_gauge = measure(wl, specs, ledger, seconds, indices=[r.index for r in kept])
    traced_ref = sum(gauge.reference_seconds(r.start, r.start + r.wall) for r in kept)
    plain_ref = sum(replay_gauge.reference_seconds(r.start, r.start + r.wall) for r in replay)

    # Layer metrics cover the ops that returned, like ops_per_s; the time of
    # deadline-cut ops is recorded separately.
    cut = {k for k, r in enumerate(records) if r.failure == harness.DEADLINE}
    lm = spans.layer_metrics(tracer, skip_ops=cut)
    lm_cut = spans.layer_metrics(tracer, keep_ops=cut) if cut else None
    tracer.write(OUT_DIR / f"spans-{tag}.csv.gz")
    summary = harness.summarize(records, lambda i: wl.units(specs[i]))
    counts = outcome_counts(wl, records)
    calls = lm["by_name_calls"]
    witnesses = calls.get("lambda_for_radius_recurrence", 0)
    metrics = {
        "cube_fourier.self_s": (lm["self_s"]["cube_fourier"], "s"),
        "cube_fourier.calls": (lm["calls"]["cube_fourier"], "count"),
        "cube_fourier.points": (lm["points"], "count"),
        "cube_fourier.ns_per_point": (lm["ns_per_point"], "ns"),
        "cube_fourier.bytes_computed": (lm["bytes_computed"], "B"),
        "codes.self_s": (lm["self_s"]["codes"], "s"),
        "codes.calls": (lm["calls"]["codes"], "count"),
        "codes.random_code_s": (lm["by_name_s"].get("random_code", 0.0), "s"),
        "ball_spectra.self_s": (lm["self_s"]["ball_spectra"], "s"),
        "ball_spectra.calls": (lm["calls"]["ball_spectra"], "count"),
        "ball_spectra.recurrence_steps_per_witness": (
            calls.get("eigen_recurrence", 0) / witnesses if witnesses else 0.0, "count"),
        "ball_spectra.lambda_hit_ratio": (lambda_hits, "ratio"),
        "bounds.self_s": (lm["self_s"]["bounds"], "s"),
        "bounds.ball_size_s": (lm["by_name_s"].get("ball_size", 0.0), "s"),
        "lp_witness.self_s": (lm["self_s"]["lp_witness"], "s"),
        "lp_witness.checks": (counts["checks"], "count"),
        "lp_witness.holds_share": (
            counts["holds"] / counts["checks"] if counts["checks"] else 0.0, "ratio"),
        "lp_witness.cpu_per_wall": ((cpu1 - cpu0) / (wall1 - wall0), "ratio"),
        "trace_overhead_share": (
            (traced_ref - plain_ref) / plain_ref if plain_ref else 0.0, "ratio"),
        "fail_share": (summary.fail_share, "ratio"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_share"] = (lm["self_share"][layer], "ratio")
    dominant = max(spans.LAYERS, key=lambda k: lm["self_s"][k])
    extra = {
        "dominant_layer": dominant,
        "self_s_by_layer": lm["self_s"],
        "inclusive_s_by_name": lm["by_name_s"],
        "calls_by_name": calls,
        "spans": len(tracer.table()["sid"]),
        "not_wrapped": missing,
        "traced_ref_s": traced_ref,
        "untraced_replay_ref_s": plain_ref,
        "replayed_ops": len(kept),
        "cpu": gauge_record(gauge),
        "deadline_cut_self_s_by_layer": lm_cut["self_s"] if lm_cut else {},
    }
    return summary, records, metrics, extra


def plain_metrics(wl, specs, ledger, seconds):
    records, gauge = measure(wl, specs, ledger, seconds)
    summary = harness.summarize(
        records, lambda i: wl.units(specs[i]),
        lambda rec: gauge.reference_seconds(rec.start, rec.start + rec.wall))
    lat = harness.latency_stats(summary.latencies_ms)
    lat_ref = harness.latency_stats(summary.latencies_ref_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_ref_s": (summary.ops_per_ref_s, "1/ref_s"),
        "op_p50_ref_ms": (lat_ref["p50_ms"], "ref_ms"),
        "op_tail_ref_ms": (lat_ref["tail_ms"], "ref_ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wall_clock = {
        "ops_per_s": (summary.ops_per_s, "1/s"),
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "op_tail_ms": (lat["tail_ms"], "ms"),
    }
    return summary, records, metrics, {
        "latency": lat, "wall_clock": wall_clock, "cpu": gauge_record(gauge)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(cube_spectra.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported cube_spectra from {cube_spectra.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    specs = wl.make_specs(args.seed, LIB)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ledger = harness.CacheLedger(harness.library_caches(MODULES.values()))
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        summary, records, metrics, extra = traced_metrics(
            wl, specs, ledger, args.seconds, f"{args.workload}-seed{args.seed}")
    else:
        summary, records, metrics, extra = plain_metrics(wl, specs, ledger, args.seconds)

    ran = [specs[r.index] for r in records]
    failures = [
        {"op": k, "index": r.index, "kind": r.failure, "detail": r.detail,
         "spec": repr(specs[r.index])}
        for k, r in enumerate(records) if r.failure is not None
    ]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": len(records),
        "attempted": summary.attempted,
        "failed": summary.failed,
        "completed": summary.completed,
        "failure_kinds": summary.reasons,
        "failures": failures[:50],
        "busy_s": summary.busy_s,
        "deadline_lost_s": summary.deadline_lost_s,
        "deadline_s": wl.deadline_s,
        "fail_share": summary.fail_share,
        "cache_hit_ratio": {name: ledger.hit_ratio(name) for name in ledger.caches},
        "machine": {"numpy": numpy.__version__},
        **extra,
    }
    if args.workload.startswith("bound-queries"):
        # Draws of the stream up to the last op run that were left out.
        record["hang_region_draws_left_out"] = max(
            (specs[r.index].draw - r.index - 1 for r in records), default=0)
        record["hang_region_queries"] = sum(s.in_hang_region for s in ran)
        record["hang_region_deadline_misses"] = sum(
            specs[r.index].in_hang_region and r.failure == harness.DEADLINE for r in records)
        record["other_deadline_misses"] = sum(
            not specs[r.index].in_hang_region and r.failure == harness.DEADLINE
            for r in records)
    correct = summary.completed > 0 and not any(
        r.failure in (harness.CHECK, harness.RAISED) for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
