import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bowtie.rings import (
    ClosureError,
    Ideal,
    RingAxiomError,
    TableRing,
    bits,
    direct_product,
    enumerate_ideals,
    ideal_generated,
    inside,
    make_zn,
    mask_of,
    radical,
    subring_from_subset,
    table_array,
    validate_ring,
)
from bowtie.modules import Submodule, enumerate_submodules, ring_as_module

from constructions import (
    _additive_closure,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    quotient_ring,
)
from families import duplications, family_modules, products
import oracles
from oracles import brute_ideals, brute_radical


def test_make_zn_basic():
    r = make_zn(6)
    assert r.size == 6
    assert r.add[2, 5] == 1
    assert r.mul[2, 5] == 4
    assert r.neg[2] == 4
    assert r.labels == ("0", "1", "2", "3", "4", "5")
    assert r.label_set([3, 0]) == "{0,3}"


def test_zn_one_element_ring():
    r = make_zn(1)
    assert r.zero == r.one == 0


def test_validate_rejects_broken_commutativity():
    r = make_zn(3)
    mul = r.mul.tolist()
    mul[1][2] = 0  # mul[2][1] stays 2
    bad = TableRing(size=3, add=r.add, mul=tuple(map(tuple, mul)),
                    zero=0, one=1, labels=r.labels)
    with pytest.raises(RingAxiomError):
        validate_ring(bad)


def test_validate_rejects_broken_distributivity():
    r = make_zn(4)
    mul = r.mul.tolist()
    mul[2][2] = 1
    mul[2][2] = 1
    bad = TableRing(size=4, add=r.add, mul=tuple(map(tuple, mul)),
                    zero=0, one=1, labels=r.labels)
    with pytest.raises(RingAxiomError):
        validate_ring(bad)


def test_validate_rejects_missing_inverse():
    add = ((0, 1), (1, 1))  # 1 has no additive inverse
    mul = ((0, 0), (0, 1))
    bad = TableRing(size=2, add=add, mul=mul, zero=0, one=1, labels=("0", "1"))
    with pytest.raises(RingAxiomError):
        validate_ring(bad)


def test_validation_skipped_above_limit():
    r = make_zn(3)
    mul = r.mul.tolist()
    mul[1][2] = 0
    bad = TableRing(size=3, add=r.add, mul=tuple(map(tuple, mul)),
                    zero=0, one=1, labels=r.labels)
    validate_ring(bad, limit=2)  # carrier above the cap: not checked


@pytest.mark.parametrize("hi,dtype", [(255, np.uint8), (256, np.uint16), (300, np.uint16),
                                      (65536, np.int32)])
@pytest.mark.parametrize("kind", [list, np.asarray])
def test_table_array_dtype_from_range(hi, dtype, kind):
    # an int64 array is narrowed by its range, never wrapped (300 is not 44)
    table = kind([[0, hi], [hi, 1]])
    arr = table_array(table)
    assert arr.dtype == dtype
    assert arr.tolist() == [[0, hi], [hi, 1]]
    assert not arr.flags.writeable


@pytest.mark.parametrize("kind", [list, np.asarray])
def test_float_entries_are_refused_not_truncated(kind):
    # cast to uint8, this add was Z2's, and validate_ring accepted it
    with pytest.raises(ValueError, match="table entries must be integers"):
        TableRing(size=2, add=kind([[0.9, 1.5], [1.5, 0.2]]), mul=[[0, 0], [0, 1]],
                  zero=0, one=1, labels=("0", "1"), name="Z2")
    with pytest.raises(ValueError, match="table entries must be integers"):
        table_array(kind([[0, 1], [1, 0.0]]))  # an integral float too
    assert table_array(kind([[0, 1], [1, 0]])).tolist() == [[0, 1], [1, 0]]


def test_table_array_negative_and_overflow():
    assert table_array(np.asarray([[-1, 3]])).dtype == np.int32
    with pytest.raises(OverflowError):
        table_array(np.asarray([[0, 2**40]]))
    with pytest.raises(OverflowError):
        table_array([[0, 2**70]])


def test_direct_product_tables():
    r = direct_product(make_zn(2), make_zn(3))
    assert r.size == 6
    # (1,2) + (1,2) = (0,1); index a*3+b
    assert r.add[5, 5] == 1
    assert r.mul[5, 5] == r.mul[5, 5] == 4  # (1,4 mod 3)=(1,1) -> 3+1
    assert r.labels[5] == "(1,2)"
    assert r.one == 4  # (1,1)


def test_subring_closure_error_carries_pair():
    r = make_zn(6)
    with pytest.raises(ClosureError) as exc:
        subring_from_subset(r, {0, 1, 2, 3})  # 3+3=0 fine, 2+3=5 missing
    assert exc.value.pair is not None


def test_subring_of_z6():
    r = make_zn(6)
    sub, decode = subring_from_subset(r, {0, 1, 2, 3, 4, 5})
    assert sub.size == 6
    assert decode == (0, 1, 2, 3, 4, 5)


def test_ideal_requires_closure():
    r = make_zn(6)
    with pytest.raises(ValueError):
        Ideal(r, [0, 1])  # 1 generates everything; {0,1} not closed
    j = Ideal(r, [0, 3])
    assert j.is_proper and not j.is_zero
    assert 3 in j and 1 not in j


def test_enumerate_ideals_counts():
    # number of ideals of Z_n = number of divisors
    assert len(enumerate_ideals(make_zn(6))) == 4
    assert len(enumerate_ideals(make_zn(12))) == 6
    assert len(enumerate_ideals(make_zn(7))) == 2


@pytest.mark.parametrize("n", range(1, 17))
def test_enumerate_ideals_matches_powerset_filter(n):
    ring = make_zn(n)
    ours = [j.members for j in enumerate_ideals(ring)]
    brute = [tuple(sorted(s)) for s in brute_ideals(ring)]
    assert ours == brute


def test_quotient_ring_z6_by_3z6():
    r = make_zn(6)
    q, proj = quotient_ring(r, Ideal(r, [0, 3]))
    assert q.size == 3
    assert proj[0] == proj[3]
    assert sorted(set(proj)) == [0, 1, 2]
    # projection is a homomorphism
    for a in range(6):
        for b in range(6):
            assert proj[r.add[a, b]] == q.add[proj[a], proj[b]]
            assert proj[r.mul[a, b]] == q.mul[proj[a], proj[b]]


def test_radical_frozen_value_z16():
    r = make_zn(16)
    j = Ideal(r, [0, 8])
    assert radical(j).members == (0, 2, 4, 6, 8, 10, 12, 14)


@pytest.mark.parametrize("n", range(1, 65))
def test_radical_matches_brute(n):
    ring = make_zn(n)
    for j in enumerate_ideals(ring):
        assert set(radical(j).members) == brute_radical(ring, set(j.members))


def test_radical_matches_brute_on_the_family_rings():
    # the products and quotient bases, and the duplications of their
    # modules: rings that are not Z_n, with nilpotents of several indices
    rings = {id(m.ring): m.ring for m in family_modules()}
    for module in family_modules():
        for inst in duplications(module, cap=64):
            rings[id(inst.bowtie_ring)] = inst.bowtie_ring
    checked = 0
    for ring in rings.values():
        for j in enumerate_ideals(ring):
            assert set(radical(j).members) == brute_radical(ring, set(j.members)), (ring, j)
            checked += 1
    assert len(rings) >= 100 and checked >= 500


@st.composite
def zn_with_ideal(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ring = make_zn(n)
    ideals = enumerate_ideals(ring)
    j = draw(st.sampled_from(ideals))
    return ring, j


@given(zn_with_ideal())
def test_ideal_generated_idempotent(ring_ideal):
    ring, j = ring_ideal
    assert ideal_generated(ring, j.members).members == j.members


@pytest.mark.parametrize("ring", [make_zn(n) for n in range(1, 17)] + products(),
                         ids=lambda r: r.name)
def test_ideal_generated_is_the_closure_of_the_products(ring):
    # the sum of the principal ideals gA, against the additive closure of
    # every product a*g taken element by element; each set of at most two
    # generators is given descending and repeated
    mul = ring.mul.tolist()
    for count in range(3):
        for chosen in itertools.combinations(range(ring.size), count):
            gens = sorted(chosen, reverse=True) * 2
            prods = {mul[a][g] for a in range(ring.size) for g in gens}
            expected = _additive_closure(ring.add, prods, ring.zero)
            assert ideal_generated(ring, gens).members == tuple(sorted(expected)), gens


@given(zn_with_ideal())
def test_radical_idempotent_and_contains(ring_ideal):
    _, j = ring_ideal
    r1 = radical(j)
    assert set(j.members) <= set(r1.members)
    assert radical(r1).members == r1.members


@given(zn_with_ideal(), st.data())
def test_ideal_lattice_laws(ring_ideal, data):
    ring, a = ring_ideal
    b = data.draw(st.sampled_from(enumerate_ideals(ring)))
    s = ideal_sum(a, b)
    p = ideal_product(a, b)
    i = ideal_intersection(a, b)
    a_set, b_set, s_set, p_set, i_set = (set(x.members) for x in (a, b, s, p, i))
    assert a_set <= s_set and b_set <= s_set
    assert p_set <= i_set
    assert i_set <= a_set and i_set <= b_set


@given(zn_with_ideal())
def test_ideal_power_matches_product(ring_ideal):
    _, j = ring_ideal
    assert ideal_power(j, 2).members == ideal_product(j, j).members
    assert ideal_power(j, 1).members == j.members


def test_labels_render_in_reports():
    r = make_zn(12)
    j = Ideal(r, range(0, 12, 4))
    assert j.label_set() == "{0,4,8}"


@pytest.mark.parametrize("size", [1, 7, 8, 9, 63, 64, 65, 255, 256, 257])
def test_inside_matches_the_per_bit_oracle(size):
    masks = (0, (1 << size) - 1, mask_of(range(0, size, 2)), mask_of(range(1, size, 2)),
             1 << size - 1)
    for mask in masks:
        got = inside(mask, size)
        assert got.dtype == bool and got.shape == (size,)
        assert got.tolist() == oracles.inside(mask, size)
        assert (~got).tolist() == [not b for b in oracles.inside(mask, size)]


def test_members_len_and_is_proper_read_off_the_mask():
    # a subset built from its mask alone decodes its members on first use,
    # once; its size and properness come from the mask, before and after that
    rng = random.Random(7)
    for module in [ring_as_module(make_zn(n)) for n in (1, 2, 12, 64)] + family_modules():
        size = module.size
        masks = [n.mask for n in enumerate_submodules(module)]
        masks += [1 << size - 1 | rng.getrandbits(size) | 1 for _ in range(3)]
        for mask in masks:
            for cls, over in ((Submodule, module), (Ideal, module.ring)):
                if over.size != size:
                    continue
                expected = tuple(oracles.bits(mask, size))
                for members_first in (False, True):
                    sub = cls.from_mask(over, mask)
                    if members_first:
                        assert sub.members == expected
                    assert len(sub) == len(expected)
                    assert sub.is_proper == (len(expected) < size)
                    assert sub.members == expected and sub.members is sub.members


def test_bits_matches_the_per_bit_oracle():
    # widths 1 to 4097, every one below 300 and then every 17th: the whole
    # width set, its top and bottom bits alone, and a random fill below the top
    rng = random.Random(4097)
    assert bits(0) == []
    for width in [*range(1, 300), *range(300, 4097, 17), 4097]:
        top = 1 << width - 1
        for mask in ((1 << width) - 1, top | 1, top | rng.getrandbits(width)):
            assert bits(mask) == oracles.bits(mask, width), width
