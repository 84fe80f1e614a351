"""Tests of the benchmark's own arithmetic: self time, failure counting and
the workload output checks."""

import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import spans
import workloads
from cube_spectra import LinearCode, ball_spectra, bounds, codes, cube_fourier, lp_witness


# --- self time ------------------------------------------------------------------

def self_of(rows):
    return spans.self_times(*zip(*rows)).tolist()


def test_self_time_nested_spans():
    # A [0, 10] > B [2, 5] > C [3, 4]
    assert self_of([(1, 0, 0, 10), (2, 1, 2, 5), (3, 2, 3, 4)]) == [7, 2, 1]


def test_self_time_sibling_spans():
    assert self_of([(1, 0, 0, 10), (2, 1, 1, 3), (3, 1, 5, 6)]) == [7, 2, 1]


def test_self_time_overlapping_children_count_once():
    # Children from two pool threads overlap on [3, 5].
    assert self_of([(1, 0, 0, 10), (2, 1, 1, 5), (3, 1, 3, 8)]) == [3, 4, 5]


def test_self_time_clips_children_to_their_parent():
    assert self_of([(1, 0, 0, 10), (2, 1, -1, 2), (3, 1, 9, 12)])[0] == 7


def test_self_time_matches_a_per_parent_union():
    rng = np.random.default_rng(7)
    rows = []
    for root in range(1, 40, 10):  # four ops with up to nine children each
        t0 = int(rng.integers(0, 1000))
        rows.append((root, 0, t0, t0 + 500))
        for k in range(1, int(rng.integers(1, 10))):
            a, b = sorted(int(x) for x in rng.integers(t0 - 50, t0 + 550, size=2))
            rows.append((root + k, root, a, b))
    got = self_of(rows)
    for (sid, _parent, t0, t1), value in zip(rows, got):
        covered = set()
        for _sid, parent, a, b in rows:
            if parent == sid:
                covered.update(range(max(a, t0), min(b, t1)))
        assert value == (t1 - t0) - len(covered)


MODULES = {"cube_fourier": cube_fourier, "codes": codes, "ball_spectra": ball_spectra,
           "bounds": bounds, "lp_witness": lp_witness}


def test_tracer_attributes_all_time_and_restores_the_library():
    code = LinearCode.from_spanning(6, [0b000111, 0b111000]).expand()
    original = lp_witness.wht
    tracer = spans.Tracer()
    assert tracer.install(MODULES) == []
    try:
        tracer.begin_op(0)
        lp_witness.check_prop_ineq(code, ball_r=2)
        lp_witness.check_covering(code, r=2)
    finally:
        tracer.uninstall()
    assert lp_witness.wht is original
    t = tracer.table()
    roots = t["parent"] == 0
    assert [tracer.names[i] for i in t["name"][roots]] == [
        ("lp_witness", "check_prop_ineq"), ("lp_witness", "check_covering")]
    lm = spans.layer_metrics(tracer)
    root_s = (t["end_ns"][roots] - t["start_ns"][roots]).sum() / 1e9
    assert sum(lm["self_s"].values()) == pytest.approx(root_s)
    assert lm["calls"]["cube_fourier"] > 0 and lm["points"] % (1 << 6) == 0


# --- failure counting -----------------------------------------------------------

def ok(out):
    return None


def test_run_op_counts_a_raise():
    def boom():
        raise ValueError("bad input")

    rec = harness.run_op(boom, ok, 5.0)
    assert rec.failure == harness.RAISED and "bad input" in rec.detail


def test_run_op_counts_a_missed_deadline():
    def spin():
        while True:
            pass

    t0 = time.perf_counter()
    rec = harness.run_op(spin, ok, 0.05)
    assert rec.failure == harness.DEADLINE
    assert time.perf_counter() - t0 < 2.0


def test_run_op_counts_a_failed_check():
    rec = harness.run_op(lambda: 41, lambda out: None if out == 42 else "wrong", 5.0)
    assert rec.failure == harness.CHECK and rec.detail == "wrong"
    assert harness.run_op(lambda: 42, lambda out: None if out == 42 else "wrong", 5.0).failure is None


def test_summary_counts_failures_and_leaves_deadline_time_out_of_throughput():
    records = [
        harness.OpRecord(0, 1.0, None, ""),
        harness.OpRecord(1, 2.0, harness.CHECK, "wrong"),
        harness.OpRecord(2, 9.0, harness.DEADLINE, "late"),
        harness.OpRecord(3, 1.0, None, ""),
    ]
    s = harness.summarize(records, lambda i: 1, lambda rec: 2 * rec.wall)
    assert (s.attempted, s.failed, s.completed) == (4, 2, 2)
    assert s.fail_share == 0.5
    assert s.busy_s == 4.0 and s.deadline_lost_s == 9.0
    assert s.ops_per_s == 0.5 and s.ops_per_ref_s == 0.25
    assert s.latencies_ref_ms == (2000.0, 4000.0, 18000.0, 2000.0)
    assert s.reasons == {harness.CHECK: 1, harness.DEADLINE: 1}


def test_closed_loop_budget_skips_deadline_time():
    def do_op(i):
        return harness.OpRecord(i, 5.0, harness.DEADLINE if i == 0 else None, "")

    recs = harness.closed_loop(range(10), do_op, budget_s=9.0, wall_cap_s=60.0)
    # op 0 missed its deadline, ops 1 and 2 make up 10 s of busy time.
    assert [r.index for r in recs] == [0, 1, 2]


def test_cpu_gauge_ticks_and_restores_the_affinity():
    allowed = os.sched_getaffinity(0)
    with harness.CpuGauge(pin=True, interval_s=0.02, probe_s=0.001) as gauge:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
        if len(allowed) > 1:
            assert len(os.sched_getaffinity(0)) == 1
    assert len(gauge.samples) >= 3 and all(rate > 0 for _, rate in gauge.samples)
    assert os.sched_getaffinity(0) == allowed


def test_reference_seconds_weight_wall_time_by_the_rate_in_force():
    gauge = harness.CpuGauge(pin=False)
    rate = harness.REFERENCE_RATE
    gauge.samples = [(10.0, rate), (12.0, 2 * rate), (13.0, rate / 2)]
    assert gauge.reference_seconds(10.0, 12.0) == pytest.approx(2.0)
    # 1 s before the first sample at its rate, then 1 s at twice the rate
    assert gauge.reference_seconds(11.0, 13.0) == pytest.approx(3.0)
    assert gauge.reference_seconds(9.0, 14.0) == pytest.approx(3.0 + 2.0 + 0.5)
    assert gauge.reference_seconds(12.5, 12.5) == 0.0


def test_latency_tail_is_a_fixed_percentile():
    lat = harness.latency_stats([float(i) for i in range(1, 41)])
    assert lat["p50_ms"] == 20.5 and lat["tail_ms"] == pytest.approx(30.25)
    assert lat["beyond_tail"] == 10 and lat["samples"] == 40


# --- workload inputs and output checks --------------------------------------------

def test_independent_counts():
    assert workloads.gaussian_binomial_sum(7) == 29211
    for n in (1, 9, 40):
        for r in (0, 1, n // 2, n):
            assert workloads.ball_volume(n, r) == sum(math.comb(n, i) for i in range(r + 1))
    rows = [0b1011, 0b0110, 0b1101, 0b0001]
    assert workloads.gf2_rank(rows) == LinearCode.from_spanning(4, rows).dim == 3


def test_bound_check_accepts_the_library_and_rejects_a_wrong_value():
    spec = workloads.BoundSpec(40, 7)
    rep = bounds.finite_code_bound(spec.n, spec.d)
    assert workloads.check_bound(spec, rep) is None
    wrong = bounds.BoundReport(**{**rep.__dict__, "value": rep.value + 1})
    assert "value" in workloads.check_bound(spec, wrong)


def test_sweep_check_rejects_wrong_counts():
    spec = workloads.SweepSpec(3, "all-linear", 0, 0, 1)
    out = lp_witness.exhaustive_verify(3, "all-linear")
    assert workloads.check_sweep(spec, out) is None
    assert workloads.check_sweep(spec, {**out, "holds": out["holds"] - 1}) is not None
    assert workloads.check_sweep(spec, {**out, "codes": 1}) is not None


def test_large_check_on_library_reports():
    rows = (0b10110011, 0b01101100, 0b11100001)
    code = LinearCode.from_spanning(8, rows).expand()
    spec = workloads.LargeSpec(8, rows, workloads.gf2_rank(rows), 3, code)
    out = workloads.large_op(spec, workloads_lib())
    assert workloads.check_large(spec, out) is None
    bad = workloads.LargeSpec(8, rows, spec.rank + 1, 3, code)
    assert "2^rank" in workloads.check_large(bad, out)


def test_inputs_follow_the_seed():
    lib = workloads_lib()
    assert workloads.bound_specs(5, lib)[:50] == workloads.bound_specs(5, lib)[:50]
    assert workloads.bound_specs(5, lib)[:50] != workloads.bound_specs(6, lib)[:50]
    qs = workloads.bound_specs(5, lib)
    assert all(100 <= q.n <= 10_000 and 1 <= q.d and 2 * q.d <= q.n for q in qs)
    assert not any(q.in_hang_region for q in qs)
    full = workloads.bound_specs_full(5, lib)
    assert any(q.in_hang_region for q in full)
    # The filtered stream is the full one with the hang region taken out.
    kept = [q for q in full if not q.in_hang_region]
    assert qs[:len(kept)] == kept
    assert [q.draw for q in full] == list(range(1, len(full) + 1))


def workloads_lib():
    return SimpleNamespace(**MODULES, LinearCode=LinearCode)
