"""Repeat run.py over seeds and summarize each metric's spread.

    python3 perfbench/record.py --seeds 10 [--workloads spec-docs] [--out perfbench/baseline.json]

For every workload: one --trace 0 run per seed (seeds 1..N), then one
--trace 1 run. Prints each end-to-end metric's median, quartiles and
spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives them) next to its bound from
BENCHMARK.json, and writes everything to --out when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workloads:
        results = [run(workload, seed, spec["run_seconds"], 0)
                   for seed in range(1, args.seeds + 1)]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound,
                             "unit": results[0]["metrics"][name]["unit"]}
            print(f"{workload:10s} {name:16s} median {med:10.4f}  spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bound}  values {' '.join(f'{v:.4g}' for v in values)}",
                  flush=True)
        record[workload] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": summary,
        }
        traced = run(workload, 1, spec["run_seconds"], 1)
        record[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record[workload]["per_layer_correct"] = traced["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
