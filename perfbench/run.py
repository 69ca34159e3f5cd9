"""bowtie benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload hunt-zn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads (see BENCHMARK.json for why):

  hunt-zn    theorems.hunt, all 19 checkers, 3 variants, both readings,
             Z_n for n <= 16, budget 256
  l8-sweep   theorems.hunt with only L8, n <= 20, budget 256
  spec-docs  cli verify + classify in-process on a seeded draw of
             explicit-table instance documents (specgen.py)

Each workload runs in a fresh interpreter (worker.py) with one
closed-loop caller and workers=1. Set-up (interpreter start, imports,
input generation) is timed over several fresh interpreters and reported
as its median. Every operation's output is checked against the digests
in pinned.json; a mismatch, a raise or a wrong exit code is a failure.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a traced pass (tracer.py). The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Median seconds of workloads.probe() on a 2-core x86 VM with Python 3.11.
# Every time is reported in seconds at that speed: measured seconds times
# REFERENCE_PROBE_S over the probe measured next to them.
REFERENCE_PROBE_S = 0.0095
# per-layer metrics that are not a layer's self time or a tracer counter
DERIVED = ("theorems.memo_hit_ratio", "unattributed_s", "traced_wall_s", "trace_overhead_s")


def _run_worker(args, deadline: float, *extra) -> list[str]:
    """Run worker.py to completion; its stdout lines."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--started", repr(time.time()), *extra]
    # a fixed hash seed: with random ones peak RSS jumps between two values
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: worker ran past its deadline")
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker exited with {proc.returncode}")
    lines = out.splitlines()
    if not lines or not lines[0].startswith("ready "):
        sys.exit("perfbench: worker failed during set-up")
    return lines


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least 10 samples above it, by nearest rank.

    Every workload has more than 10 operations (50, 66 and 84).
    """
    n = len(samples)
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def scaled(p: dict) -> tuple[float, float, list[float]]:
    """(speed factor, wall seconds, per-operation seconds) of a pass at reference speed.

    Each operation is scaled by REFERENCE_PROBE_S over the probe taken just
    before it; the pass by the time-weighted mean of those factors, after
    taking the probe time out of its wall time.
    """
    ops = [op * REFERENCE_PROBE_S / probe for op, probe in zip(p["op_s"], p["probe_s"])]
    factor = sum(ops) / sum(p["op_s"])
    return factor, (p["wall_s"] - sum(p["probe_s"])) * factor, ops


def end_to_end(report: dict, setup_s: float) -> dict[str, float]:
    passes = [scaled(p) for p in report["passes"]]
    # every pass runs the same operations in the same order
    op_s = [statistics.median(times) for times in zip(*(ops for _f, _w, ops in passes))]
    pct, tail_s = tail(op_s)
    print(f"{len(passes)} passes of {len(op_s)} operations; an operation's time is its"
          f" median over passes; verdict_tail is p{pct} of {len(op_s)}")
    print("measured wall seconds", " ".join(f"{p['wall_s']:.3f}" for p in report["passes"]),
          "speed factors", " ".join(f"{f:.3f}" for f, _w, _o in passes))
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for _f, wall, _o in passes),
        "verdict_p50_ms": 1000 * statistics.median(op_s),
        "verdict_tail_ms": 1000 * tail_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report: dict, names: list[str]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics from the traced passes; False if their counts differ.

    A name ending in _s is the self time of the layer it names; any other
    name not in DERIVED is a tracer counter.
    """
    traced = [p for p in report["passes"] if p["traced"]]
    plain = [p for p in report["passes"] if not p["traced"]]
    steady = all(p["counts"] == traced[0]["counts"] for p in traced)
    counts = traced[0]["counts"]
    calls = counts.get("theorems.memo_calls", 0)
    factors = [scaled(p)[0] for p in traced]
    traced_wall = statistics.median(scaled(p)[1] for p in traced)
    values = {
        "theorems.memo_hit_ratio":
            (calls - counts.get("theorems.memo_misses", 0)) / calls if calls else 0.0,
        # the probes run inside the root span
        "unattributed_s": statistics.median(
            (p["self_s"]["unattributed"] - sum(p["probe_s"])) * f for p, f in zip(traced, factors)),
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - statistics.median(scaled(p)[1] for p in plain),
    }
    for name in names:
        if name in DERIVED:
            continue
        if name.endswith("_s"):
            values[name] = statistics.median(
                p["self_s"].get(name[:-2], 0.0) * f for p, f in zip(traced, factors))
        else:
            values[name] = counts.get(name, 0)
    return values, steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bowtie" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bowtie sources under {ROOT / 'src'}")

    deadline = time.monotonic() + 170
    # set-up: seconds from starting a fresh interpreter to its "ready" line
    setups = []
    for _ in range(SETUP_SAMPLES):
        _ready, elapsed, speed = _run_worker(args, deadline, "--setup-only")[0].split()
        setups.append(float(elapsed) * REFERENCE_PROBE_S / float(speed))
    lines = _run_worker(args, deadline)
    if len(lines) != 2:
        sys.exit("perfbench: worker printed no report")
    report = json.loads(lines[1])

    env = report["env"]
    print(f"python {env['python']}  numpy {env['numpy']}  cpu_count {env['cpu_count']}")
    attempted = sum(p["attempted"] for p in report["passes"])
    failed = sum(p["failed"] for p in report["passes"])
    correct = failed == 0 and report["traced_digests_match"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, steady = per_layer(report, [m["name"] for m in wanted])
        correct = correct and steady
        if not steady:
            print("traced passes disagree on counts")
    else:
        values = end_to_end(report, statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"fail_share {failed}/{attempted}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
