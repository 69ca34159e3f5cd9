"""The generator-reduced axiom validators against the exhaustive sweeps.

``validate_ring`` and ``validate_module`` check associativity,
distributivity and the action axioms only at additive generators. The
oracles in ``oracles.py`` sweep every triple. Here both run on every
duplication over Z_n for n <= 16, and on seeded corruptions of rings and
modules with one and with several additive generators.
"""

import random

import pytest

from bowtie.duplication import build_bowtie
from bowtie.modules import (
    Submodule,
    TableModule,
    quotient_module,
    ring_as_module,
    validate_module,
)
from bowtie.rings import (
    RingAxiomError,
    TableRing,
    direct_product,
    enumerate_ideals,
    make_zn,
    validate_ring,
)

from oracles import module_axiom_violations, ring_axiom_violations

# The axioms checked at generators; every other check is entry by entry.
RING_GENERATOR_AXIOMS = frozenset({
    "add is not associative",
    "mul is not associative",
    "mul does not distribute over add",
})
MODULE_GENERATOR_AXIOMS = frozenset({
    "module add is not associative",
    "action is not additive in the module argument",
    "action is not additive in the scalar argument",
    "action does not respect ring multiplication",
})


@pytest.mark.parametrize("n", range(1, 17))
def test_every_zn_duplication_passes_both(n):
    ring = make_zn(n)
    module = ring_as_module(ring)
    for ideal in enumerate_ideals(ring):
        inst = build_bowtie(ring, ideal, module)
        assert ring_axiom_violations(inst.bowtie_ring) == []
        assert module_axiom_violations(inst.bowtie_module) == []
        validate_ring(inst.bowtie_ring)
        validate_module(inst.bowtie_module)


# ------------------------------------------------------------------ fuzz


def _direct_sum(m1: TableModule, m2: TableModule) -> TableModule:
    """M1 + M2 on pairs (x, y) at index x*|M2| + y."""
    k1, k2 = m1.size, m2.size

    def combine(op1, op2, rows):
        return tuple(
            tuple(op1[a][c] * k2 + op2[b][d] for c in range(k1) for d in range(k2))
            for a, b in rows
        )

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


def _products() -> list[TableRing]:
    """Z2xZ2, Z2xZ4 and Z3xZ4, where the greedy search finds two generators."""
    z2, z3, z4 = make_zn(2), make_zn(3), make_zn(4)
    return [direct_product(z2, z2), direct_product(z2, z4), direct_product(z3, z4)]


def _fuzz_rings() -> list[TableRing]:
    rings = [make_zn(n) for n in range(1, 13)] + _products()
    for n in (4, 6, 8):
        base = make_zn(n)
        module = ring_as_module(base)
        rings += [build_bowtie(base, j, module).bowtie_ring for j in enumerate_ideals(base)]
    return rings


def _fuzz_modules() -> list[TableModule]:
    bases = [make_zn(n) for n in (2, 4, 6, 8, 9, 12)] + _products()
    modules = []
    for ring in bases:
        regular = ring_as_module(ring)
        modules.append(regular)
        for j in enumerate_ideals(ring)[1:-1]:
            # A/J, and A + A/J, as modules over A
            quo, _ = quotient_module(regular, Submodule(regular, j.members))
            modules.append(quo)
            if ring.size * quo.size <= 32:
                modules.append(_direct_sum(regular, quo))
    for n in (4, 6):
        base = make_zn(n)
        regular = ring_as_module(base)
        modules += [build_bowtie(base, j, regular).bowtie_module
                    for j in enumerate_ideals(base)]
    return modules


def _corrupt(table, rng: random.Random, bound: int, symmetric: bool):
    """Change one or two entries; a symmetric change mostly also sets the
    mirror entry, so that the table stays commutative."""
    rows = [list(r) for r in table]
    for _ in range(rng.choice((1, 2))):
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows[i]))
        v = rng.randrange(bound)
        rows[i][j] = v
        if symmetric and rng.random() < 0.7:
            rows[j][i] = v
    return tuple(map(tuple, rows))


def _outcome(validate, obj) -> str | None:
    try:
        validate(obj)
    except RingAxiomError as exc:
        return str(exc)
    return None


def _agrees(message: str | None, violations: list[str], generator_axioms) -> None:
    """The validator's verdict and message against the oracle's list."""
    assert (message is None) == (not violations), (message, violations)
    if message is None:
        return
    assert message in violations
    if len(violations) == 1 or violations[0] not in generator_axioms:
        # one broken axiom, or a first one checked entry by entry
        assert message == violations[0]


def test_corrupted_rings_match_the_oracle():
    rng = random.Random(20240601)
    seen = set()
    rings = _fuzz_rings()
    for _ in range(2500):
        ring = rng.choice(rings)
        if ring.size == 1:
            continue
        which = rng.choice(("add", "mul"))
        table = _corrupt(getattr(ring, which), rng, ring.size, symmetric=True)
        tables = {"add": ring.add, "mul": ring.mul, which: table}
        bad = TableRing(size=ring.size, zero=ring.zero, one=ring.one,
                        labels=ring.labels, **tables)
        message = _outcome(validate_ring, bad)
        _agrees(message, ring_axiom_violations(bad), RING_GENERATOR_AXIOMS)
        seen.add(message)
    assert RING_GENERATOR_AXIOMS <= seen


def test_corrupted_modules_match_the_oracle():
    rng = random.Random(20240602)
    seen = set()
    modules = _fuzz_modules()
    for _ in range(2500):
        module = rng.choice(modules)
        which = rng.choice(("add", "act"))
        table = _corrupt(getattr(module, which), rng, module.size,
                         symmetric=which == "add")
        tables = {"add": module.add, "act": module.act, which: table}
        bad = TableModule(ring=module.ring, size=module.size, zero=module.zero,
                          labels=module.labels, **tables)
        message = _outcome(validate_module, bad)
        _agrees(message, module_axiom_violations(bad), MODULE_GENERATOR_AXIOMS)
        seen.add(message)
    # a one-entry change that keeps the action additive in both arguments
    # is rare; test_action_additive_but_not_multiplicative covers the last
    assert MODULE_GENERATOR_AXIOMS - {"action does not respect ring multiplication"} <= seen


def test_action_additive_but_not_multiplicative():
    # Z2 x Z2 on Z2^2: (a,b) acts as a*P + b*(1-P) with P(x,y) = (y,0).
    # Additive in both arguments and unital, but P*P = 0 != P.
    ring = direct_product(make_zn(2), make_zn(2))
    act = tuple(
        tuple(2 * ((a * y + b * (x + y)) % 2) + (b * y) % 2
              for x in range(2) for y in range(2))
        for a in range(2) for b in range(2)
    )
    add = tuple(tuple(u ^ v for v in range(4)) for u in range(4))
    bad = TableModule(ring=ring, size=4, add=add, act=act, zero=0,
                      labels=("(0,0)", "(0,1)", "(1,0)", "(1,1)"))
    message = "action does not respect ring multiplication"
    assert module_axiom_violations(bad) == [message]
    with pytest.raises(RingAxiomError, match=message):
        validate_module(bad)
