"""The benchmark's workloads: inputs from the seed, one timed pass, digests.

An operation is one (Z_n, I) instance in a hunt and one document in
spec-docs. Every operation's output is reduced to a digest and checked
against ``pinned.json``, which was written from the seed library code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np
from bowtie import cli, theorems

import specgen

HUNT_BUDGET = 256
VARIANTS = ("af", "azizi", "behboodi")

PINNED = Path(__file__).resolve().parent / "pinned.json"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_PROBE_TABLE = (np.arange(160 * 160, dtype=np.int32).reshape(160, 160) * 7) % 160


def probe() -> float:
    """Seconds a fixed computation takes now, about 10 ms: the machine's speed.

    On a shared host other tenants can slow the machine by up to a third
    for minutes at a time; they slow this probe and bowtie alike. It mixes the
    kinds of work bowtie does: Python loops over tuple tables and
    frozensets, and numpy gathers on int32 tables like those of
    rings.validate_ring. It calls no bowtie code.
    """
    start = time.perf_counter()
    k = 40
    add = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    mul = tuple(tuple((a * b) % k for b in range(k)) for a in range(k))
    for a in range(k):
        s = frozenset(mul[a][x] for x in range(k))
        frozenset(add[x][y] for x in s for y in s)
    t = _PROBE_TABLE
    rows = np.arange(24)
    lhs = t[t[rows][:, :, None], np.arange(160)[None, None, :]]
    np.array_equal(lhs, t[rows[:, None, None], t[None, :, :]])
    return time.perf_counter() - start


class _Timings:
    """Per-operation seconds, each with a speed probe taken just before it."""

    def __init__(self):
        self.op_s: list[float] = []
        self.probe_s: list[float] = []

    def time(self, fn, *args):
        self.probe_s.append(probe())
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.op_s.append(time.perf_counter() - start)

    def take(self) -> tuple[list[float], list[float]]:
        out = (self.op_s, self.probe_s)
        self.op_s, self.probe_s = [], []
        return out


class _OpTimer(_Timings):
    """Times each call of theorems._hunt_task: one hunt operation."""

    def __init__(self):
        super().__init__()
        self.inner = theorems._hunt_task
        theorems._hunt_task = self

    def __call__(self, task):
        return self.time(self.inner, task)


class HuntWorkload:
    """theorems.hunt over Z_n, n <= max_n, one process, workers=1."""

    def __init__(self, max_n: int, chosen: tuple[str, ...] | None):
        self.corpus = theorems.CorpusSpec(family="zn", max_n=max_n)
        self.chosen = theorems.normalize_theorems(chosen)
        self.header = (
            f"hunt family=zn max={max_n} theorems={','.join(self.chosen)}"
            f" variants={','.join(VARIANTS)} readings={','.join(theorems.READINGS)}"
            f" budget={HUNT_BUDGET}"
        )
        self.timer = _OpTimer()
        self.op_keys = None  # every pinned instance

    def run(self) -> str:
        reports = theorems.hunt(self.corpus, self.chosen, VARIANTS, theorems.READINGS,
                                workers=1, budget=HUNT_BUDGET)
        return theorems.serialize_reports(reports, self.header)

    def take_timings(self) -> tuple[list[float], list[float]]:
        return self.timer.take()

    def digests(self, text: str) -> dict[str, str]:
        """SHA-256 of each instance's report lines, keyed by instance."""
        groups: dict[str, list[str]] = {}
        for line in text.splitlines()[1:]:
            key = line.split("\t", 1)[0].split("|N=", 1)[0]
            groups.setdefault(key, []).append(line + "\n")
        return {key: sha("".join(lines)) for key, lines in groups.items()}

    def close(self) -> None:
        theorems._hunt_task = self.timer.inner


class DocsWorkload:
    """cli verify and classify, in-process, on a seeded draw of documents."""

    def __init__(self, seed: int, workdir: Path, docs: list[dict] | None = None):
        docs = specgen.draw(seed) if docs is None else docs
        self.paths = []
        for i, doc in enumerate(docs):
            path = workdir / f"doc{i:03d}.json"
            path.write_text(json.dumps(doc))
            self.paths.append((str(path), specgen.doc_id(doc)))
        self.op_keys = [doc for _path, doc in self.paths]
        self.timings = _Timings()

    @staticmethod
    def _call(argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return f"{code}:{sha(out.getvalue())}"

    def _verdicts(self, path: str) -> str:
        try:
            return self._call(["verify", path]) + ":" + self._call(["classify", path])
        except Exception as exc:  # a raising document is a failed operation
            return f"raised {type(exc).__name__}: {exc}"

    def run(self) -> dict[str, str]:
        return {doc: self.timings.time(self._verdicts, path) for path, doc in self.paths}

    def take_timings(self) -> tuple[list[float], list[float]]:
        return self.timings.take()

    def digests(self, results: dict[str, str]) -> dict[str, str]:
        return results

    def close(self) -> None:
        pass


def make(name: str, seed: int, workdir: Path):
    if name == "hunt-zn":
        return HuntWorkload(16, None)
    if name == "l8-sweep":
        return HuntWorkload(20, ("L8",))
    if name == "spec-docs":
        return DocsWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def load_pinned(name: str) -> dict[str, str]:
    return json.loads(PINNED.read_text())[name]
