"""Self-test of the benchmark's own machinery, on small inputs.

    python3 perfbench/selftest.py

Checks that:
  - the tracer wraps every binding of every traced function, and that
    uninstalling restores every namespace exactly;
  - two traced passes give identical counters, and traced and untraced
    passes give identical digests, all equal to pinned.json;
  - rings.validate_skipped counts the silent skip above 256 elements.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import sys

from worker import _import_bowtie, workdir

_import_bowtie()

import specgen  # noqa: E402
import workloads  # noqa: E402
from bowtie import theorems  # noqa: E402
from tracer import Tracer, bowtie_snapshot  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def traced_pass(work) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.root(work.run)
    finally:
        tracer.uninstall()
    work.take_timings()
    return work.digests(result), dict(tracer.counts)


def main() -> int:
    before = bowtie_snapshot()
    tracer = Tracer()
    tracer.install()
    check(tracer.unwrapped_references() == [], "every binding of a traced function is wrapped")
    tracer.uninstall()
    check(bowtie_snapshot() == before, "uninstall restores every bowtie namespace")

    tracer = Tracer()
    tracer.install()
    try:
        theorems.make_zn_instance(17, [0])
    finally:
        tracer.uninstall()
    check(tracer.counts["rings.validate_skipped"] == 1,
          "the 289-element Z17 x Z17 is counted as a skipped validation")

    with workdir() as docs_dir:
        cases = [
            (workloads.HuntWorkload(8, None), "hunt-zn"),
            (workloads.HuntWorkload(10, ("L8",)), "l8-sweep"),
            (workloads.DocsWorkload(0, docs_dir, specgen.draw(0)[:12]), "spec-docs"),
        ]
        for work, name in cases:
            pinned = workloads.load_pinned(name)
            plain = work.digests(work.run())
            work.take_timings()
            first, counts1 = traced_pass(work)
            second, counts2 = traced_pass(work)
            work.close()
            check(bool(plain) and all(pinned.get(k) == v for k, v in plain.items()),
                  f"{name}: {len(plain)} untraced digests equal the pinned ones")
            check(first == plain and second == plain,
                  f"{name}: traced digests equal the untraced ones")
            check(counts1 == counts2 and counts1["modules.validate_calls"] > 0,
                  f"{name}: two traced passes give identical counts")
    print("selftest", "failed" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
