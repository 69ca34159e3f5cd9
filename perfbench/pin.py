"""Write pinned.json: the digest of every operation's output.

Run this once on the library code the digests should pin, from the root
of a checkout:

    python3 perfbench/pin.py

Hunts pin every instance; spec-docs pins every document of the pool, so
any seed's draw is covered.
"""

from __future__ import annotations

import json

from worker import _import_bowtie, workdir

_import_bowtie()

import specgen  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    pinned = {}
    for name in ("hunt-zn", "l8-sweep"):
        work = workloads.make(name, 0, None)
        pinned[name] = work.digests(work.run())
        work.close()
    with workdir() as docs_dir:
        docs = [doc for group in specgen.pool().values() for doc in group]
        pinned["spec-docs"] = workloads.DocsWorkload(0, docs_dir, docs).run()
    for name, digests in pinned.items():
        print(f"{name}: {len(digests)} operations pinned")
    text = "{\n" + ",\n".join(
        f' "{name}": {{\n' + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                                       for k, v in sorted(d.items())) + "\n }"
        for name, d in pinned.items()) + "\n}\n"
    workloads.PINNED.write_text(text)


if __name__ == "__main__":
    main()
