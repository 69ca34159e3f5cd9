"""Axiom validation, at the trust boundary and as a test of constructions.

``validate_ring`` and ``validate_module`` check associativity,
distributivity and the action axioms only at additive generators. The
oracles in ``oracles.py`` sweep every triple. Here both run on every
duplication over Z_n for n <= 16 and over the families of ``families.py``,
and on seeded corruptions of rings and modules with one and with several
additive generators.

The library validates only tables read from instance documents. Every
construction (Z_n, products, subrings, quotients, duplications,
restrictions of scalars, and the submodules and ideals built unchecked
from them) is a ring, module, submodule or ideal by theorem; the tests
below check each one against the oracles instead.
"""

import random
import sys

import numpy as np
import pytest

from bowtie import modules, rings
from bowtie.duplication import (
    bowtie_submodule,
    build_bowtie,
    pairs_in,
)
from bowtie.modules import (
    Submodule,
    TableModule,
    check_module_map,
    colon_into_ring,
    enumerate_submodules,
    quotient_module,
    ring_as_module,
    validate_module,
    whole_submodule,
    zero_submodule,
)
from bowtie.rings import (
    Ideal,
    RingAxiomError,
    TableRing,
    direct_product,
    enumerate_ideals,
    make_zn,
    mask_of,
    subring_from_subset,
    validate_ring,
)
from bowtie.instances import InstanceSpec
from bowtie.theorems import CorpusSpec, hunt

from constructions import quotient_ring, zero_cross_i
from families import duplications, family_modules, products, quotient_bases, quotients_and_sums
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

FAMILY = family_modules()


def _revalidates(s: Submodule | Ideal) -> None:
    """A submodule or ideal built unchecked passes the library's own check."""
    if isinstance(s, Ideal):
        assert Ideal(s.ring, s.members).members == s.members
    else:
        assert Submodule(s.module, s.members).members == s.members


def _assert_diagonal_embeds(inst) -> None:
    """a -> (a, a) is an injective unital ring homomorphism A -> A><I."""
    base, dup = inst.base_ring, inst.bowtie_ring
    pairs = inst.ring_pairs.tolist()
    emb = np.array([pairs.index([a, a]) for a in range(base.size)])
    assert len(set(emb.tolist())) == base.size
    assert (emb[base.zero], emb[base.one]) == (dup.zero, dup.one)
    assert np.array_equal(dup.add[emb[:, None], emb], emb[base.add])
    assert np.array_equal(dup.mul[emb[:, None], emb], emb[base.mul])


def _assert_constructions_sound(inst) -> None:
    ring, mod = inst.bowtie_ring, inst.bowtie_module
    assert ring_axiom_violations(ring) == []
    assert module_axiom_violations(mod) == []
    validate_ring(ring)
    validate_module(mod)
    _assert_diagonal_embeds(inst)

    # A><I again, as the subring of A x A on its pairs
    base = inst.base_ring
    if base.size ** 2 <= 256:
        codes = [a * base.size + b for a, b in inst.ring_pairs.tolist()]
        sub, decode = subring_from_subset(direct_product(base, base), codes)
        assert np.array_equal(sub.add, ring.add) and np.array_equal(sub.mul, ring.mul)
        assert (sub.zero, sub.one) == (ring.zero, ring.one)
        assert decode == tuple(codes)

    # the quotient rings A/I and (A><I)/(0 x I)
    for r, j in ((base, inst.ideal), (ring, zero_cross_i(inst))):
        _revalidates(j)
        quo, _ = quotient_ring(r, j)
        assert ring_axiom_violations(quo) == []

    # the submodules and ideals a duplication builds unchecked: N><I and
    # L1's (N : M)><I for every N, the zero submodule, 0 x IM and IM x IM
    zero_cross_im, im_cross_im = (bowtie_submodule(inst, n)
                                  for n in (zero_submodule(inst.base_module), inst.im))
    whole = whole_submodule(inst.base_module)
    for n in enumerate_submodules(inst.base_module):
        _revalidates(bowtie_submodule(inst, n))
        colon = colon_into_ring(n, whole)
        _revalidates(Ideal.from_mask(ring, pairs_in(inst.ring_pairs, 0, colon.mask, base.size)))
    _revalidates(zero_submodule(mod))
    for s in (zero_cross_im, im_cross_im):
        _revalidates(s)
        quo, _ = quotient_module(mod, s)  # the quotients L8 reads off their cosets
        assert module_axiom_violations(quo) == []

    # M and M/IM over A><I, scalars acting through either component's rows
    # (L8 checks its projections at the generators only, which is sound
    # because of this), and the two L8 projections onto them, scalars
    # acting through the first component, with their kernels and images
    base_quo, bproj = quotient_module(inst.base_module, inst.im)
    assert module_axiom_violations(base_quo) == []
    firsts = inst.module_pairs[:, 0]
    for target, table in ((inst.base_module, firsts), (base_quo, bproj.take(firsts))):
        for c in (0, 1):
            over = TableModule(ring=ring, size=target.size, add=target.add,
                               act=target.act.take(inst.ring_pairs[:, c], axis=0),
                               zero=target.zero, labels=target.labels)
            assert module_axiom_violations(over) == []
        rows = target.act.take(inst.ring_pairs[:, 0], axis=0)
        assert check_module_map(table, mod.add, mod.act, target.add, rows, np.arange(mod.size))
        kernel = np.flatnonzero(table == target.zero).tolist()
        _revalidates(Submodule.from_mask(mod, mask_of(kernel)))
        _revalidates(Submodule.from_mask(target, mask_of(set(table.tolist()))))


@pytest.mark.parametrize("n", range(1, 17))
def test_every_zn_duplication_passes_both(n):
    for inst in duplications(ring_as_module(make_zn(n))):
        _assert_constructions_sound(inst)


@pytest.mark.parametrize("index", range(len(FAMILY)), ids=lambda i: FAMILY[i].name)
def test_every_family_duplication_passes_both(index):
    for inst in duplications(FAMILY[index]):
        _assert_constructions_sound(inst)


def test_constructed_rings_pass_the_oracle():
    zn = [make_zn(n) for n in range(1, 33)]
    rings = zn + [direct_product(a, b) for a in zn[:12] for b in zn[:12]
                  if a.size <= b.size and a.size * b.size <= 48]
    for ring in rings:
        assert ring_axiom_violations(ring) == [], ring


def test_first_components_of_a_bowtie_submodule_form_a_submodule():
    # detect_bowtie_form builds N from the first components unchecked; they
    # are the image of S under the first projection (456 S over Z_n, n <= 16)
    checked = 0
    for n in range(1, 17):
        for inst in duplications(ring_as_module(make_zn(n))):
            firsts = inst.module_pairs[:, 0]
            for s in enumerate_submodules(inst.bowtie_module):
                mask = mask_of(firsts.take(s.members).tolist())
                _revalidates(Submodule.from_mask(inst.base_module, mask))
                checked += 1
    assert checked == 456


def _replace_validators(monkeypatch, make) -> None:
    """Rebind validate_ring and validate_module, in every bowtie namespace
    that binds them, to make(the real function)."""
    for real in (rings.validate_ring, modules.validate_module):
        stub = make(real)
        for name, namespace in list(sys.modules.items()):
            if name.split(".")[0] == "bowtie" and getattr(namespace, real.__name__, None) is real:
                monkeypatch.setattr(namespace, real.__name__, stub)


def test_constructions_never_call_the_validators(monkeypatch):
    expected = hunt(CorpusSpec(max_n=8))

    def refusing(real):
        def stub(obj, limit=None):
            raise AssertionError(f"{real.__name__} called on {obj!r}")
        return stub

    _replace_validators(monkeypatch, refusing)
    assert hunt(CorpusSpec(max_n=8)) == expected


def test_tables_spec_calls_both_validators(monkeypatch):
    calls = []

    def recording(real):
        def stub(obj, limit=None):
            calls.append(real.__name__)
            return real(obj, limit)
        return stub

    _replace_validators(monkeypatch, recording)
    z4 = make_zn(4)
    InstanceSpec.from_dict({
        "ring": {"tables": {"add": z4.add.tolist(), "mul": z4.mul.tolist()}},
        "ideal_generators": ["2"],
        "module": {"tables": {"add": [[0, 1], [1, 0]], "act": [[0, a % 2] for a in range(4)]}},
    }).build()
    assert calls == ["validate_ring", "validate_module"]


# ------------------------------------------------------------------ fuzz


def _fuzz_rings() -> list[TableRing]:
    rings = [make_zn(n) for n in range(1, 13)] + products()
    for n in (4, 6, 8):
        base = make_zn(n)
        module = ring_as_module(base)
        rings += [build_bowtie(base, j, module).bowtie_ring for j in enumerate_ideals(base)]
    return rings


def _fuzz_modules() -> list[TableModule]:
    modules = []
    for ring in quotient_bases():
        modules.append(ring_as_module(ring))
        modules += quotients_and_sums(ring)
    for n in (4, 6):
        base = make_zn(n)
        regular = ring_as_module(base)
        modules += [build_bowtie(base, j, regular).bowtie_module
                    for j in enumerate_ideals(base)]
    return modules


def _corrupt(table, rng: random.Random, bound: int, symmetric: bool):
    """Change one or two entries; a symmetric change mostly also sets the
    mirror entry, so that the table stays commutative."""
    rows = table.tolist()
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


# ------------------------------------------- one comparison per axiom


def _ring_generator_axiom_per_point(ring: TableRing) -> str | None:
    """The first generator axiom that fails, checked one point at a time in
    validate_ring's order; the reference for its one-comparison kernel."""
    add, mul = ring.add.astype(np.int64), ring.mul.astype(np.int64)
    points = [ring.zero, *rings._additive_generators(ring.add, ring.zero)]
    for op, name in ((add, "add"), (mul, "mul")):
        for g in points:
            if not np.array_equal(op[op[:, g]], op[:, op[g]]):  # (x.g).y, x.(g.y)
                return f"{name} is not associative"
    for g in points:
        if not np.array_equal(mul[:, add[:, g]], add[mul, mul[:, g, None]]):
            return "mul does not distribute over add"
    return None


def _module_generator_axiom_per_point(module: TableModule) -> str | None:
    """As _ring_generator_axiom_per_point, in validate_module's order."""
    add, act = module.add.astype(np.int64), module.act.astype(np.int64)
    radd, rmul = module.ring.add, module.ring.mul
    points = [module.zero, *rings._additive_generators(module.add, module.zero)]
    for g in points:
        if not np.array_equal(add[add[:, g]], add[:, add[g]]):
            return "module add is not associative"
    for g in points:
        if not np.array_equal(act[:, add[:, g]], add[act, act[:, g, None]]):
            return "action is not additive in the module argument"
    for g in points:
        col = act[:, g]
        if not np.array_equal(col[radd], add[col[:, None], col[None, :]]):
            return "action is not additive in the scalar argument"
    for g in points:
        col = act[:, g]
        if not np.array_equal(col[rmul], act[:, col]):
            return "action does not respect ring multiplication"
    return None


def test_one_comparison_per_axiom_matches_the_per_point_checks():
    """On 2400 corrupted rings and 2400 corrupted modules the validators
    give the message of the per-point checks. Every check made entry by
    entry comes before the generator axioms, so where the validator stops
    at none of those, the per-point checks decide."""
    rng = random.Random(20261019)
    seen = set()
    for objects, make, key, validate, per_point, generator_axioms in (
        (_fuzz_rings(), TableRing, ("add", "mul"), validate_ring,
         _ring_generator_axiom_per_point, RING_GENERATOR_AXIOMS),
        (_fuzz_modules(), TableModule, ("add", "act"), validate_module,
         _module_generator_axiom_per_point, MODULE_GENERATOR_AXIOMS),
    ):
        for _ in range(2400):
            obj = rng.choice(objects)
            which = rng.choice(key)
            table = _corrupt(getattr(obj, which), rng, obj.size, symmetric=which != "act")
            fields = {f: getattr(obj, f) for f in ("size", "zero", "labels", *key)}
            fields.update({"one": obj.one} if make is TableRing else {"ring": obj.ring})
            bad = make(**{**fields, which: table})
            message = _outcome(validate, bad)
            if message is None or message in generator_axioms:
                assert message == per_point(bad), (bad, which)
            seen.add(message)
    assert RING_GENERATOR_AXIOMS | MODULE_GENERATOR_AXIOMS - {
        "action does not respect ring multiplication"} <= seen
