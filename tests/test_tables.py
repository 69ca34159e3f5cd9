"""Tables are stored once, as read-only narrow arrays.

Every construction stores each table as a read-only array in the dtype
narrow_dtype gives its carrier, and ``dataclasses.replace`` shares those
arrays. The regular module's duplication shares the duplicated ring's
arrays, and must equal what the general construction builds from a copy
of the same tables.
"""

import random
from dataclasses import fields, replace

import numpy as np
import pytest

import oracles
from bowtie.classify import classify_submodule
from bowtie.duplication import build_bowtie, product_submodule
from bowtie.instances import InstanceSpec
from bowtie.modules import (
    Submodule,
    TableModule,
    cyclic_masks,
    enumerate_submodules,
    quotient_module,
    ring_as_module,
)
from bowtie.rings import (
    Ideal,
    TableRing,
    bits,
    direct_product,
    enumerate_ideals,
    make_zn,
    narrow_dtype,
    subgroup_sum,
    subring_from_subset,
)
from bowtie.theorems import CorpusSpec, hunt

import families
from constructions import _additive_closure
from families import duplications, family_modules, products

TABLES = {TableRing: ("add", "mul", "neg"), TableModule: ("add", "act", "neg")}


def assert_table_stored(arr, size: int, what=None) -> None:
    """arr is a read-only array in the narrow dtype of a carrier of this size."""
    assert type(arr) is np.ndarray, what
    assert not arr.flags.writeable, what
    assert arr.dtype == narrow_dtype(0, size - 1), what


def assert_tables_stored(obj):
    """Each table of obj is a read-only array in its carrier's narrow dtype,
    and obj holds nothing beyond its fields."""
    for name in TABLES[type(obj)]:
        assert_table_stored(getattr(obj, name), obj.size, (obj, name))
    assert vars(obj).keys() == {f.name for f in fields(obj)}, obj


@pytest.mark.parametrize("n", [1, 2, 6, 16, 255, 256, 257])
def test_make_zn_rows(n):
    ring = make_zn(n)
    assert_tables_stored(ring)
    assert ring.add.tolist() == [[(a + b) % n for b in range(n)] for a in range(n)]
    assert ring.mul.tolist() == [[(a * b) % n for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("k1,k2", [(1, 3), (2, 2), (2, 4), (3, 4), (16, 17)])
def test_direct_product_rows(k1, k2):
    r1, r2 = make_zn(k1), make_zn(k2)
    ring = direct_product(r1, r2)
    assert_tables_stored(ring)
    tables = [(ring.add.tolist(), r1.add.tolist(), r2.add.tolist()),
              (ring.mul.tolist(), r1.mul.tolist(), r2.mul.tolist())]
    for a in range(k1):
        for b in range(k2):
            for c in range(k1):
                for d in range(k2):
                    x, y = a * k2 + b, c * k2 + d
                    for op, op1, op2 in tables:
                        assert op[x][y] == op1[a][c] * k2 + op2[b][d]


def test_subring_rows():
    # the diagonal {(a, a)} of Z6 x Z6 and the whole of Z2 x Z4
    z6 = make_zn(6)
    square = direct_product(z6, z6)
    sub, decode = subring_from_subset(square, [a * 6 + a for a in range(6)])
    assert_tables_stored(sub)
    assert np.array_equal(sub.add, z6.add) and np.array_equal(sub.mul, z6.mul)
    whole = products()[1]
    sub, decode = subring_from_subset(whole, range(whole.size))
    assert_tables_stored(sub)
    assert decode == tuple(range(whole.size)) and np.array_equal(sub.add, whole.add)


def _modules():
    return [ring_as_module(make_zn(n)) for n in range(1, 21)] + family_modules()


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.name)
def test_quotients_match_the_dict_oracle(module):
    assert_tables_stored(module)
    for n in enumerate_submodules(module):
        quo, proj = quotient_module(module, n)
        expected, expected_proj = oracles.quotient_module_by_dicts(module, n)
        assert_tables_stored(quo)
        assert (quo.size, quo.zero, quo.labels, quo.name) == (
            expected.size, expected.zero, expected.labels, expected.name)
        assert np.array_equal(quo.add, expected.add) and np.array_equal(quo.act, expected.act)
        assert np.array_equal(proj, expected_proj)
        assert_table_stored(proj, quo.size)


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.name)
def test_closures_on_masks_match_the_tuple_closure(module):
    # subgroup_sum joins its pieces by cosets; the reference closes their
    # union under the table entry by entry
    cyclic = cyclic_masks(module)
    rng = random.Random(module.size)
    for _ in range(97):
        pieces = [cyclic[g] for g in rng.choices(range(module.size), k=rng.randint(0, 4))]
        union = [x for piece in pieces for x in bits(piece)]
        expected = _additive_closure(module.add, union, module.zero)
        assert bits(subgroup_sum(module.add, module.zero, pieces)) == sorted(expected)
    for ideal in enumerate_ideals(module.ring):
        prods = set(module.act.take(ideal.members, axis=0).ravel().tolist())
        expected = _additive_closure(module.add, prods, module.zero)
        assert product_submodule(ideal, module).members == tuple(sorted(expected))


@pytest.mark.parametrize("module", family_modules()[:12], ids=lambda m: m.name)
def test_duplication_and_restriction_rows(module):
    for inst in duplications(module, cap=64):
        assert_tables_stored(inst.bowtie_ring)
        assert_tables_stored(inst.bowtie_module)
        # the pair columns, through which the scalars of A><I act on M
        assert_table_stored(inst.ring_pairs, module.ring.size)
        assert_table_stored(inst.module_pairs, module.size)


def test_parsed_document_tables():
    ring = products()[1]
    doc = {
        "ring": {"tables": {"add": ring.add.tolist(), "mul": ring.mul.tolist()}},
        "ideal_generators": ["2"],
        "module": {"tables": {"add": ring.add.tolist(), "act": ring.mul.tolist()}},
    }
    q = InstanceSpec.from_dict(doc).build()
    for obj in (q.ring, q.module):
        assert_tables_stored(obj)
    assert np.array_equal(q.ring.add, ring.add) and np.array_equal(q.ring.mul, ring.mul)
    assert np.array_equal(q.module.act, ring.mul)


def _regular_cases():
    rings = [make_zn(n) for n in range(1, 13)] + products()
    return [(ring, ideal) for ring in rings for ideal in enumerate_ideals(ring)]


@pytest.mark.parametrize("ring,ideal", _regular_cases(),
                         ids=lambda x: x.name if isinstance(x, TableRing) else x.label_set())
def test_regular_duplication_equals_the_general_path(ring, ideal):
    regular = ring_as_module(ring)
    # the same tables in arrays of their own, so build_bowtie takes the general path
    copy = TableModule(ring=ring, size=ring.size, add=ring.add.copy(),
                       act=ring.mul.copy(), zero=ring.zero,
                       labels=regular.labels, name=regular.name)
    assert copy.add is not ring.add
    shared, general = build_bowtie(ring, ideal, regular), build_bowtie(ring, ideal, copy)
    sm, gm = shared.bowtie_module, general.bowtie_module
    assert sm.add is shared.bowtie_ring.add
    assert sm.act is shared.bowtie_ring.mul
    assert gm.add is not general.bowtie_ring.add
    assert shared.module_pairs is shared.ring_pairs
    assert np.array_equal(shared.ring_pairs, general.ring_pairs)
    assert np.array_equal(shared.module_pairs, general.module_pairs)
    assert shared.bowtie_ring.labels == general.bowtie_ring.labels
    for one, other in ((shared.bowtie_ring, general.bowtie_ring), (sm, gm)):
        for name in TABLES[type(one)]:
            a, b = getattr(one, name), getattr(other, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (sm.size, sm.zero, sm.labels, sm.name) == (gm.size, gm.zero, gm.labels, gm.name)
    assert shared.im.members == general.im.members
    shared_subs, general_subs = enumerate_submodules(sm), enumerate_submodules(gm)
    assert [s.members for s in shared_subs] == [s.members for s in general_subs]
    firsts = shared.module_pairs[:, 0].tolist()
    for n in enumerate_submodules(regular):
        n_set = set(n.members)
        members = [i for i, m in enumerate(firsts) if m in n_set]
        nb_shared, nb_general = Submodule(sm, members), Submodule(gm, members)
        if nb_shared.is_proper:
            assert (classify_submodule(nb_shared, shared_subs)
                    == classify_submodule(nb_general, general_subs)), n


def test_renamed_family_quotients_share_their_arrays(monkeypatch):
    renamed = []
    real = families.replace

    def recording(obj, **changes):
        copy = real(obj, **changes)
        renamed.append((obj, copy))
        return copy

    monkeypatch.setattr(families, "replace", recording)
    modules = family_modules()
    assert len(renamed) >= 20
    assert {id(copy) for _obj, copy in renamed} <= {id(m) for m in modules}
    for obj, copy in renamed:
        assert copy.add is obj.add and copy.act is obj.act, copy
        assert_tables_stored(copy)


def test_replace_shares_the_arrays():
    ring = make_zn(6)
    assert replace(ring, name="x").add is ring.add
    assert replace(ring, name="x").mul is ring.mul
    renamed = replace(ring_as_module(ring), name="x")
    assert renamed.act is ring.mul and renamed.add is ring.add
    # so its M><I still takes build_bowtie's shared-array path
    inst = build_bowtie(ring, Ideal(ring, [0, 3]), renamed)
    assert inst.bowtie_module.add is inst.bowtie_ring.add
    assert inst.bowtie_module.act is inst.bowtie_ring.mul


@pytest.fixture
def built_tables(monkeypatch):
    """Every TableRing and TableModule constructed while the test runs."""
    built = []
    for cls in (TableRing, TableModule):
        def recording(obj, post=cls.__post_init__):
            post(obj)
            built.append(obj)

        monkeypatch.setattr(cls, "__post_init__", recording)
    return built


def test_l8_hunt_derives_no_tuple_table_of_a_duplication(built_tables):
    hunt(CorpusSpec(max_n=20), theorems=["L8"])
    # 102: each Z_n, its regular module and one M/IM per instance; 226
    # while every instance also built the tables of A><I and M><I
    assert len(built_tables) > 100
    for obj in built_tables:
        assert_tables_stored(obj)


def test_full_hunt_stores_each_table_as_one_array(built_tables):
    hunt(CorpusSpec(max_n=10))
    # 101; 145 while L8 built two quotients of M><I each, 199 while it built
    # two restricted modules each
    assert len(built_tables) > 90
    for obj in built_tables:
        assert_tables_stored(obj)
