"""Seeded instance documents for the spec-docs workload.

Every ring and module here is written out as explicit tables, built in
plain Python without importing bowtie, so each document crosses the
library's trust boundary: ``instances`` parses it and validates the
user-supplied tables before anything is built.

The pool is finite and fixed: every (ring A, ideal I, module M) triple
that passes ``keep`` with every proper submodule N that is zero or
cyclic. A pass runs one document per triple; the seed chooses its N and
the order of the pass, so the pinned digests in ``pinned.json`` cover
every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product

# Triples kept for the pass: duplicated carriers up to this size. That is
# within the CLI budget of 256: over-budget documents exit with code 4 on
# a different size test than ROADMAP item 1 wants, a known defect for the
# tests, not a performance input. Carriers from 65 to 256 cost seconds
# each (up to 10 s), which would let a handful of documents set the pass time.
KEEP_LIMIT = 64


@dataclass(frozen=True)
class TableRingDesc:
    name: str
    labels: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.labels)


def _tables(name, elems, add, mul, label) -> TableRingDesc:
    index = {e: i for i, e in enumerate(elems)}
    return TableRingDesc(
        name=name,
        labels=tuple(label(e) for e in elems),
        add=tuple(tuple(index[add(a, b)] for b in elems) for a in elems),
        mul=tuple(tuple(index[mul(a, b)] for b in elems) for a in elems),
    )


def _zn_product(moduli: tuple[int, ...]) -> TableRingDesc:
    elems = list(product(*(range(m) for m in moduli)))
    return _tables(
        "x".join(f"Z{m}" for m in moduli),
        elems,
        lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, moduli)),
        lambda a, b: tuple((x * y) % m for x, y, m in zip(a, b, moduli)),
        lambda a: "(" + ",".join(map(str, a)) + ")",
    )


def _poly_label(coeffs: tuple[int, ...], monomials: tuple[str, ...]) -> str:
    terms = []
    for c, mono in zip(coeffs, monomials):
        if c:
            terms.append(mono if mono and c == 1 else f"{c}{mono}")
    return "+".join(terms) or "0"


def _f2xy() -> TableRingDesc:
    """F2[x,y]/(x,y)^2 on a + bx + cy."""
    elems = list(product(range(2), repeat=3))
    return _tables(
        "F2[x,y]/(x,y)^2",
        elems,
        lambda p, q: tuple((u + v) % 2 for u, v in zip(p, q)),
        lambda p, q: (
            p[0] * q[0] % 2,
            (p[0] * q[1] + p[1] * q[0]) % 2,
            (p[0] * q[2] + p[2] * q[0]) % 2,
        ),
        lambda p: _poly_label(p, ("", "x", "y")),
    )


def _z4x() -> TableRingDesc:
    """Z4[x]/(2x, x^2) on a + bx, a mod 4, b mod 2."""
    elems = list(product(range(4), range(2)))
    return _tables(
        "Z4[x]/(2x,x^2)",
        elems,
        lambda p, q: ((p[0] + q[0]) % 4, (p[1] + q[1]) % 2),
        lambda p, q: (p[0] * q[0] % 4, (p[0] * q[1] + p[1] * q[0]) % 2),
        lambda p: _poly_label(p, ("", "x")),
    )


# Why each ring family is in the pool:
RING_FAMILIES = {
    # local, maximal ideal (x,y) not principal, so no chain lattices
    "f2xy": _f2xy,
    # local of characteristic 4, maximal ideal (2,x) not principal
    "z4x": _z4x,
    # products: idempotents split every lattice into factors
    "z2xz4": lambda: _zn_product((2, 4)),
    "z3xz4": lambda: _zn_product((3, 4)),
    "z2x3": lambda: _zn_product((2, 2, 2)),
    # the library builds and validates its 256-element A x A for every document
    "z4xz4": lambda: _zn_product((4, 4)),
}


def _closure(add, seed: set[int], zero: int) -> frozenset[int]:
    members = set(seed) | {zero}
    work = list(members)
    while work:
        x = work.pop()
        for y in tuple(members):
            z = add[x][y]
            if z not in members:
                members.add(z)
                work.append(z)
    return frozenset(members)


def _ideals(ring: TableRingDesc) -> list[frozenset[int]]:
    k = ring.size
    principal = {frozenset(ring.mul[s][g] for s in range(k)) for g in range(k)}
    found = set(principal)
    work = list(principal)
    while work:
        cur = work.pop()
        for p in principal:
            joined = _closure(ring.add, set(cur | p), 0)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class ModuleDesc:
    kind: str
    labels: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    act: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.labels)


def _regular(ring: TableRingDesc) -> ModuleDesc:
    return ModuleDesc("regular", ring.labels, ring.add, ring.mul)


def _quotient_and_sum(ring: TableRingDesc, j: frozenset[int]) -> tuple[ModuleDesc, ModuleDesc]:
    """A/J and A + A/J, cosets indexed by their least member."""
    k = ring.size
    rep = [min(ring.add[a][m] for m in j) for a in range(k)]
    reps = sorted(set(rep))
    cls = {r: i for i, r in enumerate(reps)}
    q_add = tuple(tuple(cls[rep[ring.add[x][y]]] for y in reps) for x in reps)
    q_act = tuple(tuple(cls[rep[ring.mul[s][x]]] for x in reps) for s in range(k))
    q_labels = tuple(f"[{ring.labels[r]}]" for r in reps)
    quotient = ModuleDesc("quotient", q_labels, q_add, q_act)

    pairs = [(a, c) for a in range(k) for c in range(len(reps))]
    pidx = {p: i for i, p in enumerate(pairs)}
    s_add = tuple(
        tuple(pidx[(ring.add[a][b], q_add[c][d])] for (b, d) in pairs) for (a, c) in pairs
    )
    s_act = tuple(
        tuple(pidx[(ring.mul[s][a], q_act[s][c])] for (a, c) in pairs) for s in range(k)
    )
    s_labels = tuple(f"({ring.labels[a]},{q_labels[c]})" for (a, c) in pairs)
    return quotient, ModuleDesc("sum", s_labels, s_add, s_act)


def _modules(ring: TableRingDesc, ideals: list[frozenset[int]]) -> list[tuple[str, ModuleDesc]]:
    """The regular module (cyclic, faithful), A/J (cyclic, not faithful)
    and A + A/J (faithful, not cyclic), for J a maximal ideal: the last
    proper ideal in (size, members) order."""
    jn = len(ideals) - 2
    quotient, direct_sum = _quotient_and_sum(ring, ideals[jn])
    return [("M", _regular(ring)), (f"A/J{jn}", quotient), (f"A+A/J{jn}", direct_sum)]


def _doc(ring, ideal, module, gens, name) -> dict:
    ring_tables = {"add": [list(r) for r in ring.add], "mul": [list(r) for r in ring.mul],
                   "labels": list(ring.labels), "name": ring.name}
    doc = {
        "name": name,
        "ring": {"tables": ring_tables},
        "ideal_generators": [ring.labels[i] for i in sorted(ideal)],
        "submodule_generators": [module.labels[g] for g in gens],
    }
    if module.kind == "regular":
        doc["module"] = "regular"
    else:
        doc["module"] = {"tables": {"add": [list(r) for r in module.add],
                                    "act": [list(r) for r in module.act],
                                    "labels": list(module.labels)}}
    return doc


def doc_id(doc: dict) -> str:
    """Stable identity of a document: SHA-256 of its canonical JSON."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def keep(family: str, ring_size: int, ideal_size: int, dup_module_size: int) -> bool:
    """Whether a triple runs in the workload.

    Z4 x Z4 documents cost at least a second each whatever I is, because
    the library builds and validates the 256-element A x A; only its three
    I = 0 triples (one per module kind) keep that cost in the pass.
    """
    if max(ring_size * ideal_size, dup_module_size) > KEEP_LIMIT:
        return False
    return family != "z4xz4" or ideal_size == 1


def pool() -> dict[str, list[dict]]:
    """Every document of every kept triple, keyed by triple name."""
    triples: dict[str, list[dict]] = {}
    for family, make in RING_FAMILIES.items():
        ring = make()
        ideals = _ideals(ring)
        for mname, module in _modules(ring, ideals):
            for ino, ideal in enumerate(ideals):
                im = _closure(module.add, {module.act[i][m] for i in ideal
                                           for m in range(module.size)}, 0)
                if not keep(family, ring.size, len(ideal), module.size * len(im)):
                    continue
                triple = f"{family}|I{ino}|{mname}"
                docs = triples[triple] = []
                seen: set[frozenset[int]] = set()
                for g in [None, *range(module.size)]:
                    gens = () if g is None else (g,)
                    n = frozenset({0} if g is None else {module.act[s][g] for s in range(ring.size)})
                    if n in seen or len(n) == module.size:
                        continue
                    seen.add(n)
                    docs.append(_doc(ring, ideal, module, gens, f"{triple}|N{len(seen) - 1}"))
    return triples


def draw(seed: int, triples: dict[str, list[dict]] | None = None) -> list[dict]:
    """One document per triple, its N and the pass order chosen by the seed."""
    rng = random.Random(seed)
    triples = pool() if triples is None else triples
    chosen = [rng.choice(triples[name]) for name in sorted(triples)]
    rng.shuffle(chosen)
    return chosen
