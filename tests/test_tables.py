"""Tables are stored as read-only narrow arrays; tuple rows are derived.

Every construction stores its tables as arrays, and the tuple rows read
off them must be those arrays. The regular module's duplication shares the
duplicated ring's arrays, and must equal what the general construction
builds from a copy of the same tables. The hunts must derive no tuple
table of a duplication that no loop reads.
"""

import numpy as np
import pytest

import oracles
from bowtie.classify import classify_submodule
from bowtie.duplication import build_bowtie, product_submodule, restrict_scalars
from bowtie.modules import (
    Submodule,
    TableModule,
    enumerate_submodules,
    quotient_module,
    ring_as_module,
)
from bowtie.rings import (
    Table,
    TableRing,
    bits,
    closure_mask,
    direct_product,
    enumerate_ideals,
    make_zn,
    subring_from_subset,
    table_array,
)
from bowtie.theorems import CorpusSpec, hunt

import families
from constructions import _additive_closure
from families import duplications, family_modules, products

TABLES = {TableRing: ("add", "mul"), TableModule: ("add", "act")}


def assert_rows_are_the_arrays(obj):
    for name in TABLES[type(obj)]:
        arr = getattr(obj, f"{name}_array")
        rows = getattr(obj, name)
        assert not arr.flags.writeable, (obj, name)
        assert arr.dtype == table_array(rows).dtype, (obj, name)
        assert isinstance(rows, tuple) and all(type(row) is tuple for row in rows)
        assert all(type(v) is int for row in rows for v in row), (obj, name)
        assert rows == tuple(map(tuple, arr.tolist())), (obj, name)
        assert getattr(obj, name) is rows  # derived once, then kept


@pytest.mark.parametrize("n", [1, 2, 6, 16, 255, 256, 257])
def test_make_zn_rows(n):
    ring = make_zn(n)
    assert_rows_are_the_arrays(ring)
    assert ring.add == tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    assert ring.mul == tuple(tuple((a * b) % n for b in range(n)) for a in range(n))


@pytest.mark.parametrize("k1,k2", [(1, 3), (2, 2), (2, 4), (3, 4), (16, 17)])
def test_direct_product_rows(k1, k2):
    r1, r2 = make_zn(k1), make_zn(k2)
    ring = direct_product(r1, r2)
    assert_rows_are_the_arrays(ring)
    for a in range(k1):
        for b in range(k2):
            for c in range(k1):
                for d in range(k2):
                    x, y = a * k2 + b, c * k2 + d
                    assert ring.add[x][y] == r1.add[a][c] * k2 + r2.add[b][d]
                    assert ring.mul[x][y] == r1.mul[a][c] * k2 + r2.mul[b][d]


def test_subring_rows():
    # the diagonal {(a, a)} of Z6 x Z6 and the whole of Z2 x Z4
    z6 = make_zn(6)
    square = direct_product(z6, z6)
    sub, decode = subring_from_subset(square, [a * 6 + a for a in range(6)])
    assert_rows_are_the_arrays(sub)
    assert sub.add == z6.add and sub.mul == z6.mul
    whole = products()[1]
    sub, decode = subring_from_subset(whole, range(whole.size))
    assert_rows_are_the_arrays(sub)
    assert decode == tuple(range(whole.size)) and sub.add == whole.add


def _modules():
    return [ring_as_module(make_zn(n)) for n in range(1, 21)] + family_modules()


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.name)
def test_quotients_match_the_dict_oracle(module):
    for n in enumerate_submodules(module):
        quo, proj = quotient_module(module, n)
        expected, expected_proj = oracles.quotient_module_by_dicts(module, n)
        assert_rows_are_the_arrays(quo)
        assert (quo.size, quo.zero, quo.labels, quo.name) == (
            expected.size, expected.zero, expected.labels, expected.name)
        assert quo.add == expected.add and quo.act == expected.act
        assert proj.table == expected_proj.table
        assert all(type(c) is int for c in proj.table)


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.name)
def test_closures_on_masks_match_the_tuple_closure(module):
    # closure_mask reads one table row per generator; the reference closes
    # a set under the tuple table entry by entry
    add = module.add
    for seed in range(0, 1 << module.size, max(1, (1 << module.size) // 97)):
        expected = _additive_closure(add, bits(seed), module.zero)
        assert bits(closure_mask(module.add_array, seed, module.zero)) == sorted(expected)
    for ideal in enumerate_ideals(module.ring):
        prods = {module.act[i][m] for i in ideal.members for m in range(module.size)}
        expected = _additive_closure(add, prods, module.zero)
        assert product_submodule(ideal, module).members == tuple(sorted(expected))


@pytest.mark.parametrize("module", family_modules()[:12], ids=lambda m: m.name)
def test_duplication_and_restriction_rows(module):
    for inst in duplications(module, cap=64):
        assert_rows_are_the_arrays(inst.bowtie_ring)
        assert_rows_are_the_arrays(inst.bowtie_module)
        for which in ("first", "second"):
            assert_rows_are_the_arrays(restrict_scalars(inst, which))


def _regular_cases():
    rings = [make_zn(n) for n in range(1, 13)] + products()
    return [(ring, ideal) for ring in rings for ideal in enumerate_ideals(ring)]


@pytest.mark.parametrize("ring,ideal", _regular_cases(),
                         ids=lambda x: x.name if isinstance(x, TableRing) else x.label_set())
def test_regular_duplication_equals_the_general_path(ring, ideal):
    regular = ring_as_module(ring)
    # the same tables in arrays of their own, so build_bowtie takes the general path
    copy = TableModule(ring=ring, size=ring.size, add=np.array(ring.add_array),
                       act=np.array(ring.mul_array), zero=ring.zero,
                       labels=regular.labels, name=regular.name)
    assert copy.add_array is not ring.add_array
    shared, general = build_bowtie(ring, ideal, regular), build_bowtie(ring, ideal, copy)
    sm, gm = shared.bowtie_module, general.bowtie_module
    assert sm.add_array is shared.bowtie_ring.add_array
    assert sm.act_array is shared.bowtie_ring.mul_array
    assert gm.add_array is not general.bowtie_ring.add_array
    assert (shared.ring_pairs, shared.module_pairs) == (general.ring_pairs, general.module_pairs)
    assert shared.bowtie_ring.labels == general.bowtie_ring.labels
    for one, other in ((shared.bowtie_ring, general.bowtie_ring), (sm, gm)):
        for name in TABLES[type(one)]:
            a, b = getattr(one, f"{name}_array"), getattr(other, f"{name}_array")
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (sm.size, sm.zero, sm.labels, sm.name) == (gm.size, gm.zero, gm.labels, gm.name)
    assert shared.im.members == general.im.members
    shared_subs, general_subs = enumerate_submodules(sm), enumerate_submodules(gm)
    assert [s.members for s in shared_subs] == [s.members for s in general_subs]
    for n in enumerate_submodules(regular):
        members = [i for i, (m, _) in enumerate(shared.module_pairs) if m in n.member_set]
        nb_shared, nb_general = Submodule(sm, members), Submodule(gm, members)
        if nb_shared.is_proper:
            assert (classify_submodule(nb_shared, shared_subs)
                    == classify_submodule(nb_general, general_subs)), n


def test_renamed_family_quotients_share_their_arrays(monkeypatch):
    """dataclasses.replace reads every field it is not given, and reading a
    table field derives tuple rows (rings.Table), which the copy's
    constructor turns into new arrays; families passes the arrays, so each
    renamed quotient shares them and neither side derives tuple rows."""
    renamed = []
    real = families.replace

    def recording(obj, **changes):
        copy = real(obj, **changes)
        renamed.append((obj, copy, {"add", "act"} & (vars(obj).keys() | vars(copy).keys())))
        return copy

    monkeypatch.setattr(families, "replace", recording)
    modules = family_modules()
    assert len(renamed) >= 20
    assert {id(copy) for _obj, copy, _rows in renamed} <= {id(m) for m in modules}
    for obj, copy, derived in renamed:
        assert copy.add_array is obj.add_array and copy.act_array is obj.act_array, copy
        assert not derived, copy


def _duplication_name(obj) -> bool:
    """A><I is named sub((AxA)) and M><I ends in ><I; the quotients of
    M><I (named .../N) and the restrictions of M do not count."""
    return obj.name.startswith("sub((") or ("><" in obj.name and not obj.name.endswith("/N"))


@pytest.fixture
def derived_rows(monkeypatch):
    """The (class, table) of every tuple table a duplication derives."""
    seen = set()
    get = Table.__get__

    def recording_get(self, obj, owner=None):
        if obj is not None and _duplication_name(obj):
            seen.add((type(obj).__name__, self.name))
        return get(self, obj, owner)

    monkeypatch.setattr(Table, "__get__", recording_get)
    return seen


def test_l8_hunt_derives_no_tuple_table_of_a_duplication(derived_rows):
    hunt(CorpusSpec(max_n=20), theorems=["L8"])
    assert derived_rows == set()


def test_full_hunt_derives_only_the_module_addition(derived_rows):
    hunt(CorpusSpec(max_n=10))
    assert derived_rows == {("TableModule", "add")}
