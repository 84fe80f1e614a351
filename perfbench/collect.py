"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For each workload and metric it reports the median, the quartiles and the
spread (inter-quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and for each
end-to-end metric whether that spread is below a third of its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine_info

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    machine = {**machine_info(), "numpy": importlib.metadata.version("numpy")}
    report = {"machine": machine, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()
                             if args.trace == 0),
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], **spread(values)}
            if name in bounds and args.trace == 0:
                metrics[name]["bound"] = bounds[name]
                metrics[name]["within_third_of_bound"] = (
                    name == "setup_s" or metrics[name]["spread"] < bounds[name] / 3)
        report["workloads"][workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            flag = "" if m.get("within_third_of_bound", True) else "  <-- spread too wide"
            print(f"  {workload:18s} {name:44s} median {m['median']:.6g} {m['unit']} "
                  f"spread {m['spread']:.4f}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
