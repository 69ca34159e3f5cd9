import numpy as np
import pytest
from hypothesis import given, strategies as st

from bowtie.modules import (
    Submodule,
    TableModule,
    annihilator,
    check_module_map,
    colon_by_scalar,
    colon_into_ring,
    cosets,
    cyclic_masks,
    enumerate_submodules,
    is_cyclic,
    quotient_module,
    ring_as_module,
    scalar_images,
    submodule_generated,
    validate_module,
    whole_submodule,
    zero_submodule,
)
from bowtie import theorems
from bowtie.duplication import pair_generators
from bowtie.rings import Ideal, RingAxiomError, enumerate_ideals, make_zn, mask_of

from families import duplications, family_modules
from constructions import is_faithful, submodule_intersection, submodule_sum
import oracles
from oracles import brute_submodules, induced_map, module_map_holds


def test_regular_module_shape():
    m = ring_as_module(make_zn(6))
    assert m.size == 6
    assert m.act[2, 5] == 4


def test_validate_rejects_nonunital_action():
    r = make_zn(3)
    m0 = ring_as_module(r)
    act = m0.act.tolist()
    act[1] = (0, 2, 1)  # 1*x no longer the identity row
    bad = TableModule(ring=r, size=3, add=m0.add, act=tuple(act),
                      zero=0, labels=m0.labels)
    with pytest.raises(RingAxiomError):
        validate_module(bad)


def test_validate_rejects_scalar_additivity_break():
    r = make_zn(4)
    m0 = ring_as_module(r)
    act = m0.act.tolist()
    act[2][1] = 3  # 2*1 = 3 while (1+1)*1 must equal 1*1 + 1*1 = 2
    bad = TableModule(ring=r, size=4, add=m0.add,
                      act=tuple(map(tuple, act)), zero=0, labels=m0.labels)
    with pytest.raises(RingAxiomError):
        validate_module(bad)


def test_submodule_closure_checked():
    m = ring_as_module(make_zn(6))
    with pytest.raises(ValueError):
        Submodule(m, [0, 1])
    n = Submodule(m, [0, 3])
    assert n.is_proper
    assert len(n) == 2


def test_membership_holds_exactly_for_members():
    # membership reads the mask: no index below zero or past the carrier is
    # a member, and a numpy integer is read as its value
    ring = make_zn(12)
    for s in (Ideal(ring, [0, 4, 8]), Submodule(ring_as_module(ring), [0, 3, 6, 9])):
        members = set(s.members)
        for x in range(-13, 40):
            assert (x in s) == (x in members), (s, x)
        assert -1 not in s and 12 not in s and 2 ** 70 not in s
        assert all(np.uint8(x) in s for x in members)
    # the validating constructors refuse an index outside the carrier
    for build in (Ideal, Submodule):
        over = ring if build is Ideal else ring_as_module(ring)
        for bad in ([0, -1], [0, 12]):
            with pytest.raises(ValueError, match="out of range"):
                build(over, bad)


def test_submodule_generated_and_cyclic():
    m = ring_as_module(make_zn(6))
    assert submodule_generated(m, ()).members == (0,)
    assert submodule_generated(m, (2,)).members == (0, 2, 4)
    assert cyclic_masks(m)[2] == mask_of({0, 2, 4})
    assert is_cyclic(m) and cyclic_masks(m)[1] == mask_of(range(6))


def test_enumerate_submodules_counts():
    assert len(enumerate_submodules(ring_as_module(make_zn(6)))) == 4
    assert len(enumerate_submodules(ring_as_module(make_zn(12)))) == 6


@pytest.mark.parametrize("n", range(1, 17))
def test_enumerate_submodules_matches_powerset_filter(n):
    m = ring_as_module(make_zn(n))
    ours = [s.members for s in enumerate_submodules(m)]
    brute = [tuple(sorted(s)) for s in brute_submodules(m)]
    assert ours == brute


def test_colon_and_annihilator_z6():
    m = ring_as_module(make_zn(6))
    n = Submodule(m, [0, 3])
    col = colon_into_ring(n, whole_submodule(m))
    assert col.members == (0, 3)
    assert annihilator(whole_submodule(m)).members == (0,)
    assert is_faithful(m)
    assert colon_by_scalar(n, 2).members == (0, 3)


def test_colon_by_scalar_definition():
    m = ring_as_module(make_zn(12))
    n = Submodule(m, [0, 4, 8])
    got = colon_by_scalar(n, 2)
    expected = frozenset(x for x in range(12) if (2 * x) % 12 in {0, 4, 8})
    assert set(got.members) == expected


def _assert_same_submodule(got: Submodule, members) -> None:
    """got equals the checked Submodule on these members, attribute by attribute."""
    ref = Submodule(got.module, members)  # validates closure
    assert got == ref and hash(got) == hash(ref)
    assert got.members == ref.members
    assert got.mask == ref.mask == mask_of(ref.members)
    assert type(got.members) is tuple and all(type(x) is int for x in got.members)


@pytest.mark.parametrize("module", [m for m in family_modules() if m.size <= 8], ids=lambda m: m.name)
def test_mask_built_submodules_equal_checked_ones(module):
    subs = enumerate_submodules(module)
    add, act = module.add.tolist(), module.act.tolist()
    for a in subs:
        _assert_same_submodule(a, a.members)
        _assert_same_submodule(submodule_generated(module, a.members[::-1]), a.members)
        for s, row in enumerate(act):
            colon = [x for x in range(module.size) if row[x] in a]
            _assert_same_submodule(colon_by_scalar(a, s), colon)
        for b in subs:
            total = {add[x][y] for x in a.members for y in b.members}
            _assert_same_submodule(submodule_sum(a, b), total)
            meet = set(a.members) & set(b.members)
            _assert_same_submodule(submodule_intersection(a, b), meet)


def _whole_table_check(table, source: TableModule, target: TableModule) -> bool:
    """check_module_map at every element and every scalar."""
    return check_module_map(np.asarray(table), source.add, source.act,
                            target.add, target.act, np.arange(source.size))


def test_quotient_module_projection_is_map():
    m = ring_as_module(make_zn(12))
    n = Submodule(m, [0, 4, 8])
    q, proj = quotient_module(m, n)
    assert q.size == 4
    assert _whole_table_check(proj, m, q)
    assert np.flatnonzero(proj == q.zero).tolist() == list(n.members)  # the kernel
    assert sorted(set(proj.tolist())) == list(range(q.size))  # the image


def test_module_map_rejects_non_hom():
    m = ring_as_module(make_zn(4))
    assert not _whole_table_check((0, 2, 1, 3), m, m)


def _l8_maps(ctx, monkeypatch) -> list[tuple[tuple, TableModule, TableModule, np.ndarray]]:
    """The two maps L8 checks on ctx (f1 onto M, f2 onto M/IM), as it checks
    them: each call's arguments, the map's source and target, and the base
    scalar through which each scalar of A><I acts on the target (its first
    component)."""
    seen = []

    def recording(*args):
        seen.append(args)
        return check_module_map(*args)

    monkeypatch.setattr(theorems, "check_module_map", recording)
    assert theorems.run_checker(ctx, "L8", None).outcome == "pass"
    monkeypatch.undo()
    assert len(seen) == 2
    inst = ctx.inst
    base_quo, _ = quotient_module(inst.base_module, inst.im)
    scalars = pair_generators(inst.ring_pairs, inst.base_ring.zero)
    through = inst.ring_pairs[:, 0]
    maps = list(zip(seen, (inst.base_module, base_quo)))
    for (table, _, _, target_add, rows, _), target in maps:
        assert len(table) == inst.bowtie_module.size
        assert np.array_equal(target_add, target.add)
        assert np.array_equal(rows, target.act.take(through.take(scalars), axis=0))
    return [(args, inst.bowtie_module, target, through) for args, target in maps]


def _mutations(table: np.ndarray, size: int, gens: np.ndarray) -> list[np.ndarray]:
    """The table with one entry moved to the next of the size target elements:
    its first entry, its last, and the first whose index is not in gens, if
    there is one. On M><I the first entry is at (0,0) and the last at some
    (x,x), both generators, so only the third flip lands away from them."""
    others = np.setdiff1d(np.arange(len(table)), gens)[:1].tolist()
    out = []
    for i in (0, len(table) - 1, *others):
        moved = table.copy()
        moved[i] = (moved[i] + 1) % size
        out.append(moved)
    return out


def _assert_maps_agree_with_oracle(ctx, monkeypatch) -> None:
    inst = ctx.inst
    maps = _l8_maps(ctx, monkeypatch)
    # the first projection with scalars through the second component is
    # additive, but linear only when IM = 0; it has f1's source and target
    (f, sums, products, target_add, _, gens), source, target, _ = maps[0]
    scalars = pair_generators(inst.ring_pairs, inst.base_ring.zero)
    rows = target.act.take(inst.ring_pairs[scalars, 1], axis=0)
    assert check_module_map(f, sums, products, target_add, rows, gens) == inst.im.is_zero
    maps.append(((f, sums, products, target_add, rows, gens), source, target,
                 inst.ring_pairs[:, 1]))
    for (f, sums, products, target_add, rows, gens), source, target, through in maps:
        for g in [f, *_mutations(f, target.size, gens)]:
            assert (check_module_map(g, sums, products, target_add, rows, gens)
                    == module_map_holds(g, source, target, through)), (ctx.base_key, g[:8])


@pytest.mark.parametrize("n", range(1, 21))
def test_module_map_check_matches_oracle_on_zn(n, monkeypatch):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        ctx = theorems.Instance(ring, ideal, ring_as_module(ring))
        _assert_maps_agree_with_oracle(ctx, monkeypatch)


def test_module_map_check_matches_oracle_on_families(monkeypatch):
    count = 0
    for module in family_modules():
        for inst in duplications(module):
            ctx = theorems.Instance(inst.base_ring, inst.ideal, module)
            _assert_maps_agree_with_oracle(ctx, monkeypatch)
            count += 1
    assert count == 176


def _assert_induced_maps_match_oracle(ctx, monkeypatch) -> None:
    # pins modules.cosets and quotient_module on M><I, which npack and the
    # Behboodi test read: f read at the least member of each coset is the map
    # the quotient inherits from f, as the oracle walks the quotient module's
    # projection entry by entry. L8 reads neither; L8's f is only a map of
    # M><I that has these submodules as kernels
    f1, f2 = (args[0] for args, *_ in _l8_maps(ctx, monkeypatch))
    for f, k in zip((f1, f2), ctx.distinguished):
        q, proj = quotient_module(k.module, k)
        _coset, reps = cosets(k)
        assert f.take(reps).tolist() == induced_map(q, proj, f), ctx.base_key


@pytest.mark.parametrize("n", range(1, 21))
def test_induced_maps_match_oracle_on_zn(n, monkeypatch):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        _assert_induced_maps_match_oracle(
            theorems.Instance(ring, ideal, ring_as_module(ring)), monkeypatch)


def test_induced_maps_match_oracle_on_families(monkeypatch):
    count = 0
    for module in family_modules():
        for inst in duplications(module):
            _assert_induced_maps_match_oracle(
                theorems.Instance(inst.base_ring, inst.ideal, module), monkeypatch)
            count += 1
    assert count == 176


def _assert_quotient_isos_match_the_reference(ctx, monkeypatch) -> None:
    """L8's two _quotient_iso calls against oracles.quotient_iso, which builds
    each quotient module: the same (problems, size) for f, each of
    _mutations(f), f with 1 and 2 swapped in the target, and 2f."""
    calls = []
    real = theorems._quotient_iso

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(theorems, "_quotient_iso", recording)
    assert theorems.run_checker(ctx, "L8", None).outcome == "pass"
    monkeypatch.undo()
    assert len(calls) == 2
    inst = ctx.inst
    scalars = pair_generators(inst.ring_pairs, inst.base_ring.zero)
    for f, target, *rest in calls:
        gens = rest[-1][0]
        maps = [f, *_mutations(f, target.size, gens), target.add[f, f]]
        if target.size > 2:
            perm = np.arange(target.size)
            perm[[1, 2]] = [2, 1]
            maps.append(perm.take(f))
        for g in maps:
            assert (theorems._quotient_iso(g, target, *rest)
                    == oracles.quotient_iso(inst.bowtie_module, scalars, g, target, *rest)), (
                ctx.base_key, rest[0], g[:8])


@pytest.mark.parametrize("n", range(1, 21))
def test_quotient_isos_match_the_reference_on_zn(n, monkeypatch):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        _assert_quotient_isos_match_the_reference(
            theorems.Instance(ring, ideal, ring_as_module(ring)), monkeypatch)


def test_quotient_isos_match_the_reference_on_families(monkeypatch):
    count = 0
    for module in family_modules():
        for inst in duplications(module):
            _assert_quotient_isos_match_the_reference(
                theorems.Instance(inst.base_ring, inst.ideal, module), monkeypatch)
            count += 1
    assert count == 176


def test_scalar_images_of_a_non_regular_module_are_its_action_rows():
    modules = [m for m in family_modules() if m.table_owner is m]
    assert len(modules) >= 10
    for module in modules:
        images = scalar_images(module)
        assert images == oracles.row_images(module.act, module.size)
        assert images is scalar_images(module)


def test_module_map_rejects_a_table_of_the_wrong_length():
    m = ring_as_module(make_zn(4))
    with pytest.raises(ValueError):
        _whole_table_check((0, 1, 2), m, m)


def test_sum_and_intersection_z12():
    m = ring_as_module(make_zn(12))
    a = Submodule(m, [0, 4, 8])
    b = Submodule(m, [0, 6])
    s = submodule_sum(a, b)
    i = submodule_intersection(a, b)
    assert s.members == (0, 2, 4, 6, 8, 10)
    assert i.members == (0,)


@st.composite
def zn_module_with_two_submodules(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = ring_as_module(make_zn(n))
    subs = enumerate_submodules(m)
    return m, draw(st.sampled_from(subs)), draw(st.sampled_from(subs))


@given(zn_module_with_two_submodules())
def test_sum_is_least_upper_bound(m_ab):
    m, a, b = m_ab
    a_set, b_set, s_set = set(a.members), set(b.members), set(submodule_sum(a, b).members)
    assert a_set <= s_set and b_set <= s_set
    for c in enumerate_submodules(m):
        c_set = set(c.members)
        if a_set <= c_set and b_set <= c_set:
            assert s_set <= c_set


@given(zn_module_with_two_submodules())
def test_intersection_is_greatest_lower_bound(m_ab):
    m, a, b = m_ab
    i = submodule_intersection(a, b)
    assert set(i.members) == set(a.members) & set(b.members)


@given(zn_module_with_two_submodules())
def test_colon_contains_annihilator(m_ab):
    m, a, b = m_ab
    col = colon_into_ring(a, b)
    ann = annihilator(b)
    assert set(ann.members) <= set(col.members)
    # and the colon actually multiplies b into a
    a_set = set(a.members)
    for r in col.members:
        for x in b.members:
            assert m.act[r, x] in a_set


@given(zn_module_with_two_submodules())
def test_quotient_kernel_is_the_submodule(m_ab):
    m, a, _ = m_ab
    q, proj = quotient_module(m, a)
    assert np.flatnonzero(proj == q.zero).tolist() == list(a.members)


def test_zero_and_whole():
    m = ring_as_module(make_zn(5))
    assert zero_submodule(m).members == (0,)
    assert whole_submodule(m).members == tuple(range(5))
    assert not whole_submodule(m).is_proper
