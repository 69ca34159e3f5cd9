"""Instance families beyond cyclic regular Z_n modules, shared by the tests.

- Z2xZ2, Z2xZ4 and Z3xZ4, each acting on itself;
- A/J, and A + A/J when |A|*|A/J| <= 32, over Z2, Z4, Z6, Z8, Z9, Z12 and
  those products, for every proper nonzero ideal J.

``duplications`` builds M><I over such a module for every ideal I small
enough for the O(k^3) oracles, or below a smaller cap, and ``relabel``
and ``relabel_ring`` rename a module's or a ring's elements. ``swept_theorems`` is the checker battery
a sweep over the ideals of one module runs at one ideal.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from bowtie.duplication import BowtieInstance, build_bowtie, predicted_sizes
from bowtie.modules import Submodule, TableModule, quotient_module, ring_as_module
from bowtie.rings import Ideal, TableRing, direct_product, enumerate_ideals, make_zn
from bowtie.theorems import CHECKERS, THEOREM_IDS

# largest |A><I| and |M><I| that duplications() builds
DUPLICATION_CAP = 256


def direct_sum(m1: TableModule, m2: TableModule) -> TableModule:
    """M1 + M2 on pairs (x, y) at index x*|M2| + y."""
    k1, k2 = m1.size, m2.size

    def combine(op1, op2, rows):
        op1, op2 = op1.tolist(), op2.tolist()
        return [[op1[a][c] * k2 + op2[b][d] for c in range(k1) for d in range(k2)]
                for a, b in rows]

    elements = [(x, y) for x in range(k1) for y in range(k2)]
    scalars = [(s, s) for s in range(m1.ring.size)]
    return TableModule(
        ring=m1.ring, size=k1 * k2,
        add=combine(m1.add, m2.add, elements),
        act=combine(m1.act, m2.act, scalars),
        zero=m1.zero * k2 + m2.zero,
        labels=tuple(f"({a},{b})" for a in m1.labels for b in m2.labels),
        name=f"{m1.name}+{m2.name}",
    )


def relabel(module: TableModule, perm: list[int]) -> TableModule:
    """The same module with element x renamed perm[x]."""
    old = sorted(range(module.size), key=perm.__getitem__)  # old[perm[x]] = x

    def table(rows):
        return [[perm[row[x]] for x in old] for row in rows]

    add = module.add.tolist()
    return TableModule(
        ring=module.ring, size=module.size,
        add=table(add[x] for x in old), act=table(module.act.tolist()),
        zero=perm[module.zero], labels=tuple(module.labels[x] for x in old),
        name=f"{module.name}-relabelled",
    )


def relabel_ring(ring: TableRing, perm: list[int]) -> TableRing:
    """The same ring with element x renamed perm[x]: the relabelled regular
    module, with the rows of its action renamed too."""
    regular = relabel(ring_as_module(ring), perm)
    old = sorted(range(ring.size), key=perm.__getitem__)
    return TableRing(
        size=ring.size, add=regular.add, mul=regular.act.take(old, axis=0),
        zero=regular.zero, one=perm[ring.one], labels=regular.labels,
        name=f"{ring.name}-relabelled",
    )


def products() -> list[TableRing]:
    """Z2xZ2, Z2xZ4 and Z3xZ4, where the greedy search finds two generators."""
    z2, z3, z4 = make_zn(2), make_zn(3), make_zn(4)
    return [direct_product(z2, z2), direct_product(z2, z4), direct_product(z3, z4)]


def quotient_bases() -> list[TableRing]:
    return [make_zn(n) for n in (2, 4, 6, 8, 9, 12)] + products()


def quotients_and_sums(ring: TableRing) -> list[TableModule]:
    """A/J, then A + A/J when |A|*|A/J| <= 32, for each proper nonzero J."""
    regular = ring_as_module(ring)
    out = []
    for j in enumerate_ideals(ring)[1:-1]:
        quo, _ = quotient_module(regular, Submodule(regular, j.members))
        quo = replace(quo, name=f"{ring.name}/{j.label_set()}")
        out.append(quo)
        if ring.size * quo.size <= 32:
            out.append(direct_sum(regular, quo))
    return out


def family_modules() -> list[TableModule]:
    """The products on themselves, then A/J and A + A/J over every base."""
    return [ring_as_module(r) for r in products()] + [
        m for ring in quotient_bases() for m in quotients_and_sums(ring)
    ]


def swept_theorems(ideal: Ideal) -> tuple[str, ...]:
    """Every checker id, less those about M alone where I != 0: a sweep over
    the ideals of one M reports those once, at I = 0, as hunt does."""
    return tuple(t for t in THEOREM_IDS if ideal.is_zero or not CHECKERS[t].about_m)


def duplications(module: TableModule, cap: int = DUPLICATION_CAP) -> Iterator[BowtieInstance]:
    """M><I for every ideal I of the module's ring with |A><I|, |M><I| <= cap."""
    ring = module.ring
    for ideal in enumerate_ideals(ring):
        if max(predicted_sizes(ring, ideal, module)) <= cap:
            yield build_bowtie(ring, ideal, module)
