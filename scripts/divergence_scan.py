#!/usr/bin/env python3
"""Map where the three weakly-prime definitions come apart.

For each Z_n up to --max, classify the zero submodule of the base module
under all three variants (AF, Azizi, Behboodi) and print a table; then
report the smallest modulus where any two variants disagree. The AF
condition is vacuous at N = {0} whenever the module has no zero divisors
acting nontrivially, which is what makes the zero submodule the natural
probe instance.
"""

import argparse
import sys

sys.path.insert(0, "src")

from bowtie.classify import VARIANTS, weakly_prime_submodule
from bowtie.modules import enumerate_submodules, ring_as_module, zero_submodule
from bowtie.rings import make_zn


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=12, metavar="N",
                    help="largest modulus to scan (default 12)")
    args = ap.parse_args()
    if args.max < 2:
        ap.error("--max must be at least 2")

    print("n\t" + "\t".join(VARIANTS) + "\tagree")
    first = None
    for n in range(2, args.max + 1):
        module = ring_as_module(make_zn(n))
        zero, subs = zero_submodule(module), enumerate_submodules(module)
        verdicts = {v: weakly_prime_submodule(zero, v, subs).holds for v in VARIANTS}
        agree = len(set(verdicts.values())) == 1
        if not agree and first is None:
            first = n
        row = "\t".join(str(verdicts[v]) for v in VARIANTS)
        print(f"Z{n}\t{row}\t{'yes' if agree else 'NO'}")

    if first is None:
        print(f"\nno divergence up to Z{args.max}")
        return 0
    print(f"\nfirst divergence: Z{first}")
    print("(AF is vacuously true at the zero submodule unless some nonzero"
          " product lands on zero; the annihilator-based variants are not)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
