"""perfbench/tracer.py still reaches every binding it times.

The tracer wraps bowtie's functions by name, outside in, so a renamed
function, a predicate called through a new alias or a checker that skips
``run_checker`` would silently drop out of the per-layer numbers. Here the
tracer is loaded from its file, installed, and run over a small hunt: every
binding must be wrapped, every checker id must have its span, the counters
must keep their pinned values, so that a rewrite of the checkers that adds
or drops a memo lookup, a colon or a lattice shows, and uninstalling must
restore every namespace.
"""

import importlib.util
from pathlib import Path

import bowtie.cli  # noqa: F401  (the tracer wraps cli.main)
import bowtie.instances  # noqa: F401  (and InstanceSpec's methods)
from bowtie import theorems

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the counters of a traced hunt(CorpusSpec(max_n=6)); Lat(Z_n) is computed
# once per ring, Lat(M><I) once per ideal, L1 reads (N : M) off N's
# classes without a colon call, and L3i and L3ii read each (N><I : K) as a
# colon_mask, neither a memo lookup nor a colon call; L8 reads its kernels
# off the pairs, so Z1, where T_FINAL is na, looks up no N><I (1541 before)
HUNT6_COUNTS = {
    "theorems.memo_calls": 1539,
    "theorems.memo_misses": 220,
    "modules.colon_calls": 38,
    "modules.lattice_nodes": 86,
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_binding_and_counts_a_hunt():
    tracer = _load_tracer()
    before = tracer.bowtie_snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.unwrapped_references() == []
        t.root(theorems.hunt, theorems.CorpusSpec(max_n=6))
    finally:
        t.uninstall()
    assert tracer.bowtie_snapshot() == before
    assert all(f"theorems.checker.{theorem}" in t.self_s for theorem in theorems.THEOREM_IDS)
    assert {k: t.counts[k] for k in HUNT6_COUNTS} == HUNT6_COUNTS
