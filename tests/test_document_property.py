"""No instance document can crash bowtie, hang it or exhaust its memory.

A hypothesis strategy mutates valid instance documents: wrong types, bools
for ints, zero and negative sizes, deep ``product`` nesting, duplicate
labels and oversized tables. ``cli.main`` runs ``classify`` and ``verify``
on each under a low budget, and each run must end with one of the
``cli.EXIT_*`` codes, print no traceback and finish within a wall bound.

The whole loop runs in one child process whose address space is capped
with RLIMIT_AS, so that a document that makes bowtie allocate without
bound fails the test instead of the machine. ``cli.main`` reports running
out of memory as exit 4 with an "out of memory" line, not a traceback, so
that line fails a run too: under the low budget no valid run comes near
the cap. Run the child alone with

    PYTHONPATH=src python tests/test_document_property.py [MAX_EXAMPLES]
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import bowtie

# the child's address-space cap, its examples and the wall bound of one run
MEMORY_CAP = 512 << 20
MAX_EXAMPLES = 300
WALL_BOUND_S = 10.0
BUDGET = 32

Z4_TABLES = {
    "add": [[(a + b) % 4 for b in range(4)] for a in range(4)],
    "mul": [[a * b % 4 for b in range(4)] for a in range(4)],
    "name": "Z4",
}
# Z2 + Z2 over Z4, the element (x, y) at index 2x + y, Z4 acting by a mod 2
PAIR_MODULE = {
    "add": [[a ^ b for b in range(4)] for a in range(4)],
    "act": [[b if a % 2 else 0 for b in range(4)] for a in range(4)],
    "labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    "name": "Z2+Z2",
}
VALID = [
    {"ring": {"zn": 6}, "ideal_generators": ["3"], "module": "regular",
     "submodule_generators": [], "name": "z6"},
    {"ring": {"product": [{"zn": 2}, {"zn": 3}]}, "ideal_generators": ["(1,0)"],
     "module": "regular", "submodule_generators": ["(0,1)"], "name": "z2xz3"},
    {"ring": {"tables": {**Z4_TABLES, "labels": ["0", "1", "2", "3"], "zero": 0, "one": 1}},
     "ideal_generators": ["2"], "module": "regular", "submodule_generators": ["2"]},
    {"ring": {"tables": Z4_TABLES}, "ideal_generators": ["2"],
     "module": {"tables": PAIR_MODULE}, "submodule_generators": ["(0,1)"], "name": "pair"},
]
FIELDS = ("ring", "ideal_generators", "module", "submodule_generators", "name", "zn",
          "product", "tables", "add", "mul", "act", "labels", "zero", "one")


def _places(node, out):
    """Every (container, key) inside a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _places(value, out)
    return out


def documents():
    from hypothesis import strategies as st

    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 8), st.sampled_from([10**6, 2**40, 10**30]),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    )
    values = st.one_of(
        scalars,
        st.lists(scalars, max_size=4),
        st.lists(st.lists(scalars, max_size=4), max_size=4),
        st.dictionaries(st.sampled_from(FIELDS), scalars, max_size=2),
    )

    def square(n, entry=0):
        return [[entry] * n for _ in range(n)]

    @st.composite
    def mutated(draw):
        doc = copy.deepcopy(draw(st.sampled_from(VALID)))
        for _ in range(draw(st.integers(0, 3))):
            places = _places(doc, [])
            kind = draw(st.sampled_from(
                ["field", "field", "entry", "insert", "delete", "nest", "duplicate", "oversize"]))
            if kind in ("field", "entry"):
                # a field of an object, or an entry of a list (most are table entries)
                targets = [(n, k) for n, k in places if isinstance(n, dict) == (kind == "field")]
                if targets:
                    node, key = draw(st.sampled_from(targets))
                    node[key] = draw(values)
            elif kind == "insert":
                dicts = [doc] + [n[k] for n, k in places if isinstance(n[k], dict)]
                draw(st.sampled_from(dicts))[draw(st.sampled_from(FIELDS))] = draw(values)
            elif kind == "delete":
                keyed = [(n, k) for n, k in places if isinstance(n, dict)]
                if keyed:
                    node, key = draw(st.sampled_from(keyed))
                    del node[key]
            elif kind == "nest":
                ring = doc.get("ring")
                for _ in range(draw(st.integers(0, 40))):
                    ring = {"product": [ring, {"zn": draw(st.integers(-1, 3))}]}
                doc["ring"] = ring
            elif kind == "duplicate":
                lists = [n[k] for n, k in places if isinstance(n[k], list) and len(n[k]) > 1]
                if lists:
                    target = draw(st.sampled_from(lists))
                    target[1] = copy.deepcopy(target[0])
            else:
                n = draw(st.sampled_from([BUDGET + 1, 4 * BUDGET, 16 * BUDGET]))
                where = draw(st.sampled_from(["zn", "ring", "module", "act"]))
                if where == "zn":
                    doc["ring"] = {"zn": n ** 2}
                elif where == "ring":
                    doc["ring"] = {"tables": {"add": square(n), "mul": square(n)}}
                elif where == "module":
                    doc["module"] = {"tables": {"add": square(n), "act": square(n)}}
                else:
                    doc["module"] = {"tables": {"add": square(2), "act": square(n)}}
        return doc

    return mutated()


def check_run(path: Path, command: str, budget: int = BUDGET) -> None:
    """Run ``command`` on the document at path under ``budget``; fail on an
    exit code outside cli.EXIT_*, a traceback, running out of memory or
    overrunning the wall bound."""
    import contextlib
    import io
    import time

    from bowtie import cli

    codes = {cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_BAD_INPUT, cli.EXIT_IMPROPER,
             cli.EXIT_BUDGET}
    err = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), "--budget", str(budget)])
    elapsed = time.monotonic() - start
    assert code in codes, (command, code)
    assert "Traceback" not in err.getvalue(), (command, err.getvalue())
    assert "out of memory" not in err.getvalue(), (command, err.getvalue())
    assert elapsed < WALL_BOUND_S, (command, elapsed)


def run_examples(max_examples: int) -> None:
    """Check every drawn document; hypothesis reports the first failure."""
    import json
    import resource
    import tempfile

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    from hypothesis import HealthCheck, given, settings

    @settings(max_examples=max_examples, deadline=None, database=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(documents())
    def check(path, doc):
        path.write_text(json.dumps(doc))
        for command in ("classify", "verify"):
            check_run(path, command)

    with tempfile.TemporaryDirectory() as tmp:
        check(Path(tmp) / "doc.json")


def run_out_of_memory() -> None:
    """check_run on a document that allocates past the cap: Z200 with
    I = Z200 under a budget it fits, whose 40000 x 40000 tables (3 GB
    each) do not fit MEMORY_CAP. check_run must fail it."""
    import json
    import resource
    import tempfile

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps({"ring": {"zn": 200}, "ideal_generators": ["1"],
                                    "module": "regular"}))
        check_run(path, "verify", budget=40000)


def _run_child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(bowtie.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, __file__, *args],
                          capture_output=True, text=True, timeout=600, env=env)


def test_no_document_crashes_classify_or_verify():
    proc = _run_child(str(MAX_EXAMPLES))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_running_out_of_memory_fails_the_check():
    proc = _run_child("--out-of-memory")
    assert proc.returncode != 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "AssertionError" in proc.stderr, proc.stderr[-4000:]
    assert "out of memory" in proc.stderr, proc.stderr[-4000:]


if __name__ == "__main__":
    if sys.argv[1:] == ["--out-of-memory"]:
        run_out_of_memory()
    else:
        run_examples(int(sys.argv[1]) if len(sys.argv) > 1 else MAX_EXAMPLES)
