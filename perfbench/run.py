"""Benchmark entry point: one workload, one seed, one fresh measuring process.

    python3 perfbench/run.py --workload bound-queries --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Prints the metrics by name with their
units, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
of the run (machine, seed, sample counts, failures) goes to
``.perfbench_out/``.  Workloads and metrics are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("linear-sweep", "random-sweep", "bound-queries", "bound-queries-full",
             "large-code-checks")
SETUP_PROBES = 9  # set-ups timed besides the measuring process's own
RUN_LIMIT_S = 170.0


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}"] = size
    return info


def start_worker(args, extra) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cube_spectra" / "__init__.py").is_file():
        print(f"no cube_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    setups = []
    try:
        for _ in range(SETUP_PROBES):
            proc, dt = start_worker(args, ["--setup-only"])
            if proc.wait(timeout=60) != 0:
                raise RuntimeError("set-up probe failed")
            setups.append(dt)
        proc, dt = start_worker(
            args, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    setups.append(dt)
    try:
        out, _ = proc.communicate(timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("measuring process overran the run limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"measuring process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    record = result.pop("record")
    record["machine"] = {**machine_info(), **record.get("machine", {})}
    record["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
    record["metrics"] = result["metrics"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  calls {record['calls']}")
    print(f"machine  nproc {m['nproc']}  cpu {m['cpu_model']!r}  L2 {m.get('l2')}  "
          f"L3 {m.get('l3')}  python {m['python']}  numpy {m.get('numpy')}")
    for name, v in result["metrics"].items():
        print(f"  {name:44s} {v['value']:>16.6g} {v['unit']}")
    for name, (value, unit) in record.get("wall_clock", {}).items():
        print(f"  {name:44s} {value:>16.6g} {unit}  (wall clock, not gated)")
    cpu = record["cpu"]
    print(f"  probe loop {cpu['probe_rate_median']:.6g}/s median over {cpu['ticks']} ticks "
          f"(min {cpu['probe_rate_min']:.6g}, max {cpu['probe_rate_max']:.6g}); "
          f"CPU moves {cpu['moves']}")
    if "fail_share" not in result["metrics"]:
        print(f"  {'fail_share':44s} {record['fail_share']:>16.6g} ratio")
    print(f"  failed {result['failed']} of {result['attempted']} ops: {record['failure_kinds']}")
    if "latency" in record:
        lat = record["latency"]
        print(f"  latency samples {lat['samples']}, tail at p{lat['tail_level']} "
              f"with {lat['beyond_tail']} beyond; setup samples {len(setups)}")
    if "hang_region_queries" in record:
        print(f"  queries with n-2d+1 >= 8192: {record['hang_region_queries']} run, "
              f"{record['hang_region_draws_left_out']} drawn and left out "
              f"(deadline misses there {record['hang_region_deadline_misses']}, "
              f"elsewhere {record['other_deadline_misses']})")
    if "dominant_layer" in record:
        print(f"  dominant layer by self time: {record['dominant_layer']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
