"""Each fact about a subset is computed once per distinct subset.

Scalar classes live in one memo per action table, keyed by mask: an ideal of
A and the same subset as a submodule of the regular module share one entry,
and so do the submodules of M><I of a regular M and the ideals of A><I. The
cosets of a submodule are kept on its module by mask, and L8 reads each
quotient of M><I off them. The checker conditions that no variant changes (L3i's colons, L3ii's chain, T4,
C_IRR, the weakly-prime test of the colon) are computed once
per N><I and reading on ``Instance``. Here the calls are counted over a hunt,
and every row is compared with the row of the same cell computed on a fresh
``Instance`` over fresh tables, so that a memo key that leaves out the
reading or the variant shows up as a changed row.
"""

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bowtie import modules, rings, theorems
from bowtie.classify import VARIANTS
from bowtie.duplication import build_bowtie, predicted_sizes
from bowtie.modules import Submodule, TableModule, enumerate_submodules, ring_as_module
from bowtie.rings import Ideal, enumerate_ideals, make_zn, pack_rows, preimage_classes
from bowtie.theorems import (
    CHECKERS,
    READINGS,
    THEOREM_IDS,
    CorpusSpec,
    Instance,
    hunt,
    instance_rows,
    make_zn_instance,
    run_checker,
)

from families import duplications, family_modules, products, swept_theorems


# ------------------------------------------------------------ counting


def _counting(monkeypatch, owner, name, key):
    """Replace owner.name by a wrapper that counts its calls by key(*args)."""
    counts: Counter = Counter()
    kept = []  # the arguments stay alive, so no id in a key is reused
    real = getattr(owner, name)

    def counted(*args):
        kept.append(args)
        counts[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return counts


def _counting_memo(monkeypatch, owner, what):
    """Count the computations owner.memo runs for ``what``, by (owner, key)."""
    counts: Counter = Counter()
    kept = []
    real = owner.memo

    def counted(obj, name, key, compute, *args):
        if name != what:
            return real(obj, name, key, compute, *args)

        def tallied(*args):
            kept.append(obj)
            counts[(id(obj), key)] += 1
            return compute(*args)

        return real(obj, name, key, tallied, *args)

    monkeypatch.setattr(owner, "memo", counted)
    return counts


def test_each_fact_is_computed_once_over_zn(monkeypatch):
    classes = _counting(monkeypatch, rings, "preimage_classes",
                        lambda table, mask, size: (id(table), mask))
    quotients = _counting(monkeypatch, theorems, "quotient_module",
                          lambda module, n: (id(module), n.mask))
    cosets = _counting_memo(monkeypatch, modules, "cosets")
    per_n = [_counting(monkeypatch, theorems, name, lambda ctx, nb: (id(ctx), nb.mask))
             for name in ("t4_violation", "c_irr_identity_violation")]
    irreducible = _counting(monkeypatch, theorems, "is_irreducible_submodule",
                            lambda nb, subs: (id(nb.module), nb.mask))
    scans = [_counting(monkeypatch, theorems, name,
                       lambda ctx, nb, reading: (id(ctx), nb.mask, reading))
             for name in ("non_prime_colon", "colon_chain_violation")]
    rows = hunt(CorpusSpec(max_n=12))
    # one pack per distinct (action table, mask); a prime test of an ideal
    # packs none, since it reads the principal ideals, and the annihilator
    # of a whole module reads the zero classes, which T_FINAL packs anyway
    assert len(classes) == 181 and max(classes.values()) == 1
    # one quotient per instance, L8's M/IM, and one coset table per (module,
    # mask), which npack and L8 share
    assert len(quotients) == 35 and len(cosets) == 135
    for counts in (*per_n, irreducible, *scans, quotients, cosets):
        assert counts and max(counts.values()) == 1
    # L3i's colon scan runs for every (N><I, reading), once for the three variants
    l3i = [r for r in rows if r.theorem_id == "L3i"]
    assert len(scans[0]) * len(VARIANTS) == len(l3i)


# every fact an Instance keeps, by the ``what`` of its memo
INSTANCE_FACTS = {"bowtie", "colon", "prime", "primary", "weakly_prime", "npack", "L3i",
                  "L3ii", "T4", "C_IRR", "irreducible", "L_COLON_PROD", "wp_colon"}


def test_every_memo_computes_each_fact_once_over_zn(monkeypatch):
    """rings.memo, wrapped in every bowtie namespace that binds it, over a
    hunt: no (owner, what, key) is computed twice, and every fact an
    Instance keeps goes through it and is read again."""
    real = rings.memo
    computed: Counter = Counter()
    hits: Counter = Counter()
    kept = []  # every owner stays alive, so no id in a key is reused

    def counted(owner, what, key, compute, *args):
        fresh = []

        def tallied(*args):
            kept.append(owner)
            fresh.append(what)
            computed[(id(owner), what, key)] += 1
            return compute(*args)

        value = real(owner, what, key, tallied, *args)
        if not fresh:
            hits[type(owner).__name__, what] += 1
        return value

    bound = [m for name, m in sorted(sys.modules.items())
             if name.startswith("bowtie") and vars(m).get("memo") is real]
    assert {m.__name__ for m in bound} >= {"bowtie.rings", "bowtie.modules", "bowtie.theorems"}
    for namespace in bound:
        monkeypatch.setattr(namespace, "memo", counted)
    hunt(CorpusSpec(max_n=12))
    assert computed and max(computed.values()) == 1
    owners = {id(owner): type(owner).__name__ for owner in kept}
    on_instances = {what for (oid, what, _key) in computed if owners[oid] == "Instance"}
    assert on_instances == INSTANCE_FACTS
    assert {what for (owner, what) in hits if owner == "Instance"} == INSTANCE_FACTS
    assert sum(c for (owner, _what), c in hits.items() if owner == "Instance") > 1000


def test_the_regular_modules_zero_pre_is_its_rings():
    for ring in [make_zn(n) for n in range(1, 13)] + products():
        regular = ring_as_module(ring)
        assert regular.table_owner is ring
        assert regular.zero_pre is ring.zero_pre  # the module's read first
        assert "zero_pre" not in regular.derived_cache
        for ideal in enumerate_ideals(ring):
            inst = build_bowtie(ring, ideal, regular)
            mod = inst.bowtie_module
            assert mod.table_owner is inst.bowtie_ring
            assert inst.bowtie_ring.zero_pre is mod.zero_pre  # the ring's read first
            assert "zero_pre" not in mod.derived_cache


def test_every_family_modules_zero_pre_is_read_off_its_action():
    mods = family_modules()
    assert sum(m.act is not m.ring.mul for m in mods) >= 10
    for mod in mods:
        assert mod.table_owner is (mod.ring if mod.act is mod.ring.mul else mod)
        assert mod.zero_pre == pack_rows(mod.act == mod.zero)


def _labelled_subsets():
    """Every ideal and submodule of Z_n-reg, n <= 12, of each family module
    and of each of their duplications."""
    for module in [ring_as_module(make_zn(n)) for n in range(1, 13)] + family_modules():
        yield from enumerate_ideals(module.ring)
        yield from enumerate_submodules(module)
        for inst in duplications(module):
            yield from enumerate_ideals(inst.bowtie_ring)
            yield from enumerate_submodules(inst.bowtie_module)


def test_a_subsets_text_is_rendered_once_per_mask():
    count = 0
    for sub in _labelled_subsets():
        over = sub.over
        text = sub.label_set()
        assert text == over.label_set(sub.members) == over.label_set(rings.bits(sub.mask))
        assert type(sub).from_mask(over, sub.mask).label_set() is text
        count += 1
    assert count == 9222


def test_a_second_label_of_one_mask_decodes_no_member(monkeypatch):
    calls = []
    real = rings.bits

    def counted(mask):
        calls.append(mask)
        return real(mask)

    monkeypatch.setattr(rings, "bits", counted)
    ctx = make_zn_instance(12, [0, 4, 8])
    for nb in ctx.bowtie_submodules:
        first = Submodule.from_mask(nb.module, nb.mask).label_set()
        calls.clear()
        assert Submodule.from_mask(nb.module, nb.mask).label_set() is first
        assert calls == []


def test_each_row_key_is_built_once_per_n(monkeypatch):
    labels = _counting(monkeypatch, Submodule, "label_set",
                       lambda n: (id(n.module), n.module.name, n.mask))
    rows = hunt(CorpusSpec(max_n=8), theorems=["T4", "C_IRR"])
    # T4 and C_IRR print a base N (a submodule of Z_n-reg) only in the key
    # of its 2 x 3 rows; the ideals of Z_n share one Z_n-reg, and each of
    # them labels N once
    base = {(name, mask): c for (_id, name, mask), c in labels.items() if name.endswith("-reg")}
    assert sum(base.values()) * 2 * len(VARIANTS) == len(rows) > 100
    for (name, _mask), count in base.items():
        ring = make_zn(int(name[1:-len("-reg")]))
        assert count == len(enumerate_ideals(ring)), name


# ------------------------------------------------------- classes sharing


def _memo(owner):
    return owner.derived_cache["classes"]


@pytest.mark.parametrize("ring", [make_zn(n) for n in range(1, 13)] + products(),
                         ids=lambda r: r.name)
def test_ideals_and_regular_submodules_share_their_classes(ring):
    regular = ring_as_module(ring)
    for j in enumerate_ideals(ring):
        assert Submodule(regular, j.members).classes is j.classes is _memo(ring)[j.mask]
    assert regular.zero_classes is _memo(ring)[1 << ring.zero]
    assert "classes" not in regular.derived_cache


def test_bowtie_of_a_regular_module_shares_the_rings_memo():
    for n in (4, 6, 8, 12):
        for ideal in enumerate_ideals(make_zn(n)):
            ctx = make_zn_instance(n, ideal.members)
            mod, ring = ctx.inst.bowtie_module, ctx.inst.bowtie_ring
            for nb in ctx.bowtie_submodules:
                assert nb.classes is Ideal.from_mask(ring, nb.mask).classes is _memo(ring)[nb.mask]
            assert mod.zero_classes is _memo(ring)[1 << mod.zero]
            assert "classes" not in mod.derived_cache


def test_a_non_regular_module_keeps_its_own_memo():
    modules = [m for m in family_modules() if m.act is not m.ring.mul]
    assert len(modules) >= 10
    for mod in modules:
        for n in enumerate_submodules(mod):
            assert n.classes == preimage_classes(mod.act, n.mask, mod.size)
            assert n.classes is _memo(mod)[n.mask]
        assert mod.zero_classes is _memo(mod)[1 << mod.zero]
        assert mod.zero_classes == preimage_classes(mod.act, 1 << mod.zero, mod.size)


# ------------------------------------------------------ per-cell oracle


def _cell_by_cell(make) -> list:
    """The rows of instance_rows, each cell computed on an Instance of its own
    from make(), which builds every table afresh, so no memo is shared."""
    ctx = make()
    rows = [run_checker(make(), t, None) for t in THEOREM_IDS if CHECKERS[t].per_instance]
    for n in ctx.base_submodules:
        for t in THEOREM_IDS:
            checker = CHECKERS[t]
            if checker.per_instance or not (n.is_proper or checker.improper_n):
                continue
            for variant, reading in checker.cells(VARIANTS, READINGS):
                fresh = make()
                n = Submodule.from_mask(fresh.inst.base_module, n.mask)
                rows.append(run_checker(fresh, t, n, variant, reading))
    return rows


def _assert_cells_agree(make) -> None:
    shared = instance_rows(make(), THEOREM_IDS, VARIANTS, READINGS)
    assert [r.line() for r in shared] == [r.line() for r in _cell_by_cell(make)]


@pytest.mark.parametrize("n", range(1, 11))
def test_shared_instance_rows_equal_fresh_cells_on_zn(n):
    for ideal in enumerate_ideals(make_zn(n)):
        _assert_cells_agree(lambda: make_zn_instance(n, ideal.members))


def _copy(mod: TableModule) -> TableModule:
    """The module over a copy of its ring, with fresh tables and empty memos.

    replace() shares the arrays it is not given, so each table is passed as
    a writable copy, which the constructor narrows again and freezes.
    """
    source = mod.ring
    ring = replace(source, add=source.add.copy(), mul=source.mul.copy())
    if mod.act is source.mul:
        copy = ring_as_module(ring)
    else:
        copy = replace(mod, ring=ring, add=mod.add.copy(), act=mod.act.copy())
    tables = [(source.add, ring.add), (source.mul, ring.mul), (mod.add, copy.add),
              (mod.act, copy.act)]
    assert not any(np.shares_memory(old, new) for old, new in tables), mod
    return copy


def test_shared_instance_rows_equal_fresh_cells_on_families():
    checked = non_regular = 0
    for mod in family_modules():
        for ideal in enumerate_ideals(mod.ring):
            if max(predicted_sizes(mod.ring, ideal, mod)) > 64:
                continue

            def make(mod=mod, members=ideal.members):
                copy = _copy(mod)
                return Instance(copy.ring, Ideal(copy.ring, members), copy)

            _assert_cells_agree(make)
            checked += 1
            non_regular += mod.act is not mod.ring.mul
    assert checked >= 40 and non_regular >= 20


def test_instances_over_one_module_equal_instances_over_fresh_copies_on_families():
    """Every ideal of a family module, checked on Instances over that one
    module object, which share the memos kept on it (Lat(M), N's verdicts,
    L1's base colon), gives the rows of an Instance over fresh tables; a
    memo on M that keeps something depending on I shows up as a changed
    row."""
    checked, non_regular = 0, set()
    for mod in family_modules():
        for ideal in enumerate_ideals(mod.ring):
            if max(predicted_sizes(mod.ring, ideal, mod)) > 64:
                continue
            copy = _copy(mod)
            lines = [
                [r.line() for r in instance_rows(ctx, swept_theorems(ideal), VARIANTS, READINGS)]
                for ctx in (Instance(mod.ring, ideal, mod),
                            Instance(copy.ring, Ideal(copy.ring, ideal.members), copy))
            ]
            assert lines[0] == lines[1]
            checked += 1
            if mod.act is not mod.ring.mul:
                non_regular.add(mod.name)
    assert checked >= 40 and len(non_regular) >= 20


def test_two_ideals_over_one_module_enumerate_its_lattice_once(monkeypatch):
    lattices = _counting(monkeypatch, theorems, "enumerate_submodules",
                         lambda module, limit: (id(module), limit))
    primes = _counting(monkeypatch, theorems, "is_prime_submodule",
                       lambda n: (id(n.module), n.mask))
    ring = make_zn(12)
    module = ring_as_module(ring)
    ideals = enumerate_ideals(ring)[:2]
    ctxs = [Instance(ring, ideal, module) for ideal in ideals]
    for ctx in ctxs:
        instance_rows(ctx, THEOREM_IDS, VARIANTS, READINGS)
    # Lat(M) once, Lat(M><I) once per ideal
    assert lattices[(id(module), None)] == 1
    assert sum(lattices.values()) == 1 + len(ideals)
    # each N's prime verdict once, whatever the ideal
    base = {mask: c for (mid, mask), c in primes.items() if mid == id(module)}
    assert len(base) == len(ctxs[0].base_submodules) - 1 and set(base.values()) == {1}
    # M keeps its lattice as int masks, which refer to no module
    lattice = module.derived_cache["lattice"][None]
    assert lattice == [n.mask for n in ctxs[1].base_submodules]
    assert all(type(mask) is int for mask in lattice)
