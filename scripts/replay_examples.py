#!/usr/bin/env python3
"""Replay the built-in worked examples end to end.

Walks every seeded instance through classification and the full checker
battery, printing the facts the test suite freezes: carrier sizes, the
distinguished colon ideals, lex-first witnesses, and per-theorem verdict
lines. Run with no arguments for all seeds, or name seeds to restrict.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")  # allow running from a source checkout

from bowtie.classify import VARIANTS, classify_ideal, classify_submodule, whole_colon
from bowtie.instances import SEEDS, seed_spec
from bowtie.rings import ideal_of
from bowtie.theorems import CHECKERS, READINGS, THEOREM_IDS, Instance, instance_rows

# a seed is one (M, I, N): the checkers about M alone are left to the hunt
CHOSEN = tuple(t for t in THEOREM_IDS if not CHECKERS[t].about_m)


def replay(name: str) -> int:
    spec = seed_spec(name)
    ring, ideal, module, sub = spec.build()
    ctx = Instance(ring, ideal, module, key=name)
    inst = ctx.inst
    nb = ctx.bowtie(sub)
    print(f"== {name} ==")
    print(f"ring {ring.name}  ideal {ideal.label_set()}  N {sub.label_set()}")
    print(f"|A><I| = {inst.bowtie_ring.size}  |M><I| = {inst.bowtie_module.size}")
    print(f"N><I = {nb.label_set()}")

    for title, verdicts in (
        ("N in M", classify_submodule(sub, ctx.base_submodules)),
        ("N><I in M><I", classify_submodule(nb, ctx.bowtie_submodules)),
    ):
        for pred, v in verdicts.items():
            mark = "yes" if v.holds else f"no   [{v.witness_text}]"
            print(f"  {title:14s} {pred:24s} {mark}")

    dup_colon = ctx.colon(nb)
    print(f"  colon (N><I : M><I) = {dup_colon.label_set()}")
    for pred, v in classify_ideal(dup_colon).items():
        mark = "yes" if v.holds else f"no   [{v.witness_text}]"
        print(f"  {'colon ideal':14s} {pred:24s} {mark}")

    base_colon = ideal_of(inst.base_module.ring, whole_colon(sub))
    print(f"  colon (N : M)       = {base_colon.label_set()}")

    failures = 0
    rows = instance_rows(ctx, CHOSEN, VARIANTS, READINGS, [sub])
    for row in rows:
        if row.outcome == "fail":
            failures += 1
            print(f"  FAIL {row.line()}")
    print(f"  checker rows: {len(rows)}, failures: {failures}")
    print()
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("seeds", nargs="*", default=None,
                    help="seed names (default: all)")
    args = ap.parse_args()
    names = args.seeds or sorted(SEEDS)
    unknown = [n for n in names if n not in SEEDS]
    if unknown:
        ap.error(f"unknown seeds: {', '.join(unknown)}; have {', '.join(sorted(SEEDS))}")
    t0 = time.monotonic()
    total = sum(replay(name) for name in names)
    print(f"{len(names)} instances replayed in {time.monotonic() - t0:.2f}s, "
          f"{total} checker failures")
    return 1 if total else 0


if __name__ == "__main__":
    raise SystemExit(main())
