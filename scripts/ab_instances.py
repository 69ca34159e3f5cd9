#!/usr/bin/env python3
"""In-process A/B timing of two checkouts of bowtie, task by task.

    python scripts/ab_instances.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        [--workload hunt-zn|l8-sweep|spec-docs] [--rounds 15] [--seed 1]

Each checkout's ``src/bowtie`` is copied into a temporary directory under
/tmp as the packages ``bowtie_a`` (the parent) and ``bowtie_b`` (the
change), and both are imported into this one process. A task is one
(Z_n, I) instance of the hunt (``hunt-zn``: every checker, n <= 16,
budget 256; ``l8-sweep``: L8 alone, n <= 20) or one document of the
perfbench spec-docs draw for the seed (``verify`` then ``classify``).

Every task first runs once on each side, and the two must give identical
report lines; the script stops at the first task that differs. Then each
round times every task on both sides, alternating which side goes first
from task to task and from round to round, and each side keeps its
median time per task. The script prints the ratio change/parent of the
sums of those medians, of the median task and of the tail task: perfbench's
``verdict_tail_ms`` statistic (``tail`` in ``perfbench/run.py``, the highest
whole percentile with at least ten tasks above it, by nearest rank) over
each side's per-task medians.

Within a hunt the tasks on one Z_n share the memos kept on its regular
module. The tasks here run in hunt's order, n ascending, so each pass
(the check, then each round) shares them as ``hunt()`` does: Z_n comes
from a one-entry cache (``theorems._zn``), which builds it again when a
pass climbs back from n = 1, so no pass reuses a ring built by the one
before.

Whole perfbench passes spread by several percent from run to run on a
shared host, while the per-task medians of one process drift together,
so small gains show here before a ten-pair perfbench run. The script
starts no process and writes only its temporary directory, which it
removes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
VARIANTS = ("af", "azizi", "behboodi")
HUNT_BUDGET = 256


def load(checkout: Path, name: str, into: Path):
    """The checkout's bowtie package, imported as ``name``."""
    shutil.copytree(checkout / "src" / "bowtie", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("theorems", "cli")}


def hunt_tasks(pkg, max_n: int, chosen):
    """One callable per (Z_n, I) instance, in hunt's order; each returns
    its report lines."""
    theorems = pkg["theorems"]
    chosen = theorems.normalize_theorems(chosen)

    def task(n: int, ideal: tuple[int, ...]):
        args = (n, ideal, chosen, VARIANTS, theorems.READINGS, HUNT_BUDGET)
        return lambda: [r.line() for r in theorems._hunt_task(args)]

    return [task(n, tuple(range(0, n, d)))
            for n in range(1, max_n + 1) for d in range(n, 0, -1) if n % d == 0]


def doc_tasks(pkg, paths: list[str]):
    """One callable per document: its verify and classify exit codes and output."""
    cli = pkg["cli"]

    def call(argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return f"{code}\n{out.getvalue()}"

    return [lambda p=p: [call(["verify", p]), call(["classify", p])] for p in paths]


def make_tasks(pkg, workload: str, paths: list[str]):
    if workload == "hunt-zn":
        return hunt_tasks(pkg, 16, None)
    if workload == "l8-sweep":
        return hunt_tasks(pkg, 20, ("L8",))
    return doc_tasks(pkg, paths)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", choices=("hunt-zn", "l8-sweep", "spec-docs"),
                    default="hunt-zn")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1, help="spec-docs draw")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.path.insert(0, str(REPO / "perfbench"))  # specgen, and run's tail statistic
    sys.dont_write_bytecode = True  # so that importing them writes nothing there
    from run import tail

    with tempfile.TemporaryDirectory(prefix="ab_instances_", dir="/tmp") as tmp:
        tmp_path = Path(tmp)
        paths: list[str] = []
        if args.workload == "spec-docs":
            import specgen

            for i, doc in enumerate(specgen.draw(args.seed)):
                path = tmp_path / f"doc{i:03d}.json"
                path.write_text(json.dumps(doc))
                paths.append(str(path))
        sys.path.insert(0, tmp)
        pkgs = [load(checkout.resolve(), name, tmp_path)
                for checkout, name in ((args.parent, "bowtie_a"), (args.change, "bowtie_b"))]
        sides = [make_tasks(pkg, args.workload, paths) for pkg in pkgs]
        for i, (a, b) in enumerate(zip(*sides)):
            if a() != b():
                print(f"task {i}: report lines differ", file=sys.stderr)
                return 1
        times: list[list[list[float]]] = [[[] for _ in sides[0]] for _ in sides]
        for rnd in range(args.rounds):
            for i, pair in enumerate(zip(*sides)):
                first = (i + rnd) % 2
                for side in (first, 1 - first):
                    times[side][i].append(timed(pair[side]))

    medians = [[statistics.median(t) for t in side] for side in times]
    total = [sum(m) for m in medians]
    middle = [statistics.median(m) for m in medians]
    tails = [tail(m) for m in medians]
    print(f"{args.workload}: {len(medians[0])} tasks, {args.rounds} rounds,"
          " report lines identical")
    print(f"sum of per-task medians: parent {total[0]:.4f} s, change {total[1]:.4f} s,"
          f" ratio {total[1] / total[0]:.3f}")
    print(f"median task: parent {middle[0] * 1e3:.3f} ms, change {middle[1] * 1e3:.3f} ms,"
          f" ratio {middle[1] / middle[0]:.3f}")
    print(f"p{tails[0][0]} task: parent {tails[0][1] * 1e3:.3f} ms,"
          f" change {tails[1][1] * 1e3:.3f} ms, ratio {tails[1][1] / tails[0][1]:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
