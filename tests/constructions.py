"""Constructions the tests use and the library itself never calls.

Sums, products, intersections and powers of ideals and submodules, the quotient
ring A/J, faithfulness and the diagonal embedding a -> (a, a) of A into A><I. They live
here, next to the tests that exercise them, rather than in ``src/``.
"""

from __future__ import annotations

from bowtie.duplication import BowtieInstance
from bowtie.modules import Submodule, TableModule, _same_module, annihilator, whole_submodule
from bowtie.rings import Ideal, TableRing, subgroup_sum


def _additive_closure(add, seed, zero: int) -> frozenset[int]:
    """The closure of a subset holding zero under the addition table ``add``."""
    add = add.tolist()
    members = set(seed)
    members.add(zero)
    work = list(members)
    while work:
        x = work.pop()
        for y in tuple(members):
            z = add[x][y]
            if z not in members:
                members.add(z)
                work.append(z)
    return frozenset(members)


def _same_ring(a: Ideal, b: Ideal) -> TableRing:
    if a.ring is not b.ring:
        raise ValueError("ideals live in different rings")
    return a.ring


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    ring = _same_ring(a, b)
    closed = _additive_closure(ring.add, set(a.members) | set(b.members), ring.zero)
    return Ideal(ring, closed)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    ring = _same_ring(a, b)
    prods = set(ring.mul.take(a.members, axis=0).take(b.members, axis=1).ravel().tolist())
    closed = _additive_closure(ring.add, prods, ring.zero)
    return Ideal(ring, closed)


def ideal_power(a: Ideal, n: int) -> Ideal:
    if n < 1:
        raise ValueError("exponent must be positive")
    acc = a
    for _ in range(n - 1):
        acc = ideal_product(acc, a)
    return acc


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    ring = _same_ring(a, b)
    return Ideal(ring, set(a.members) & set(b.members))


def quotient_ring(ring: TableRing, j: Ideal) -> tuple[TableRing, tuple[int, ...]]:
    """Cosets of an ideal, indexed by minimal member; returns (ring, projection)."""
    if j.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    add, mul = ring.add.tolist(), ring.mul.tolist()
    rep_of = [-1] * ring.size
    reps: list[int] = []
    for a in range(ring.size):
        if rep_of[a] >= 0:
            continue
        coset = sorted(add[a][m] for m in j.members)
        rep = coset[0]
        reps.append(rep)
        for c in coset:
            rep_of[c] = rep
    reps.sort()
    index = {rep: i for i, rep in enumerate(reps)}
    projection = tuple(index[rep_of[a]] for a in range(ring.size))
    q = TableRing(
        size=len(reps),
        add=[[index[rep_of[add[x][y]]] for y in reps] for x in reps],
        mul=[[index[rep_of[mul[x][y]]] for y in reps] for x in reps],
        zero=index[rep_of[ring.zero]],
        one=index[rep_of[ring.one]],
        labels=tuple(f"[{ring.labels[rep]}]" for rep in reps),
        name=f"{ring.name}/J",
    )
    return q, projection


def submodule_sum(n: Submodule, k: Submodule) -> Submodule:
    mod = _same_module(n, k)
    return Submodule.from_mask(mod, subgroup_sum(mod.add, mod.zero, (n.mask, k.mask)))


def submodule_intersection(n: Submodule, k: Submodule) -> Submodule:
    mod = _same_module(n, k)
    return Submodule.from_mask(mod, n.mask & k.mask)


def is_faithful(module: TableModule) -> bool:
    """Whether only zero annihilates the module."""
    return annihilator(whole_submodule(module)).is_zero


def diagonal_embed(inst: BowtieInstance, a: int) -> int:
    """The duplicated-ring index of (a, a)."""
    return inst.ring_pairs.tolist().index([a, a])
