"""One workload in one fresh interpreter: set up, then timed passes.

Started by run.py, never by hand. Prints ``ready`` once imports and input
generation are done, then (unless --setup-only) one JSON line with every
pass's wall time, per-operation times with the speed probe taken before
each operation, failures and, for traced passes, the per-layer self
times and counters. All times here are as measured; run.py scales them.

A run makes max(2, round(--seconds / nominal pass time)) passes, so
every run of a workload takes its medians over the same number of passes
(and lasts about --seconds on a 2-core x86 VM). With --trace 1 the passes
alternate untraced and traced, so the difference of their wall times is
the tracing overhead. Peak RSS is read after the first pass: set-up plus
one full pass over the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Seconds one untraced pass takes on a 2-core x86 VM (Python 3.11).
NOMINAL_PASS_S = {"hunt-zn": 15.0, "l8-sweep": 10.0, "spec-docs": 10.0}

SETUP_PROBES = 10

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"  # generated documents; removed after each run


def _import_bowtie():
    """Import bowtie from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import bowtie
    from bowtie import cli, instances, theorems  # noqa: F401  (tracer needs them loaded)

    where = Path(bowtie.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: bowtie imported from {where}, not from {SRC}")
    return numpy


@contextlib.contextmanager
def workdir():
    """A fresh directory under SCRATCH, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            SCRATCH.rmdir()


def _check(actual: dict[str, str], pinned: dict[str, str], keys) -> tuple[int, int]:
    """(attempted, failed) of one pass against the pinned digests."""
    keys = list(pinned) if keys is None else keys
    failed = sum(1 for k in keys if actual.get(k) != pinned.get(k))
    failed += len(set(actual) - set(keys))
    for k in keys:
        if actual.get(k) != pinned.get(k):
            print(f"perfbench: digest mismatch on {k}: {actual.get(k)}", file=sys.stderr)
            break
    return len(keys), failed


def _one_pass(work, tracer):
    out = {"traced": tracer is not None}
    start = time.perf_counter()
    try:
        if tracer is None:
            result = work.run()
        else:
            tracer.install()
            try:
                result = tracer.root(work.run)
            finally:
                tracer.uninstall()
        out["wall_s"] = time.perf_counter() - start
        digests = work.digests(result)
    except Exception as exc:  # the pass is counted, every operation failed
        print(f"perfbench: pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
        out["wall_s"] = time.perf_counter() - start
        digests = {}
    out["op_s"], out["probe_s"] = work.take_timings()
    if tracer is not None:
        out["self_s"] = dict(tracer.self_s)
        out["counts"] = dict(tracer.counts)
    return out, digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.time() just before this interpreter was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    numpy = _import_bowtie()
    import workloads
    from tracer import Tracer

    with workdir() as docs_dir:
        work = workloads.make(args.workload, args.seed, docs_dir)
        elapsed = time.time() - args.started
        if args.setup_only:
            # the machine's speed just after set-up, to scale set-up time by
            speed = statistics.median(workloads.probe() for _ in range(SETUP_PROBES))
            print(f"ready {elapsed!r} {speed!r}", flush=True)
            return 0
        print(f"ready {elapsed!r}", flush=True)
        pinned = workloads.load_pinned(args.workload)

        passes, digests = [], []
        for i in range(max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))):
            traced = bool(args.trace) and i % 2 == 1
            result, dig = _one_pass(work, Tracer() if traced else None)
            result["attempted"], result["failed"] = _check(dig, pinned, work.op_keys)
            passes.append(result)
            digests.append(dig)
            if i == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        work.close()
    # a traced pass must reproduce the untraced digests exactly
    report = {
        "passes": passes,
        "traced_digests_match": all(d == digests[0] for d in digests),
        "peak_rss_mb": peak_rss_mb,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
