import numpy as np
import pytest

from bowtie.duplication import (
    bowtie_submodule,
    build_bowtie,
    detect_bowtie_form,
    distinguished_submodules,
    predicted_sizes,
    restrict_scalars,
    zero_cross_i,
)
from bowtie.classify import (
    classify_submodule,
    is_weakly_prime_submodule_af,
    is_weakly_prime_submodule_azizi,
)
from bowtie.modules import (
    Submodule,
    enumerate_submodules,
    ring_as_module,
    zero_submodule,
)
from bowtie.rings import ClosureError, Ideal, enumerate_ideals, make_zn, table_array
from bowtie.theorems import make_zn_instance

from constructions import diagonal_embed
from families import duplications, family_modules

Z6_PAIRS = (
    (0, 0), (0, 3), (1, 1), (1, 4), (2, 2), (2, 5),
    (3, 0), (3, 3), (4, 1), (4, 4), (5, 2), (5, 5),
)


def test_z6_carrier_frozen(z6):
    inst = z6.inst
    assert inst.ring_pairs == Z6_PAIRS
    assert inst.module_pairs == Z6_PAIRS
    assert inst.bowtie_ring.size == 12
    assert inst.bowtie_ring.labels[1] == "(0,3)"


def test_z6_submodule_census(z6):
    sizes = [len(s) for s in z6.bowtie_submodules]
    assert sizes == [1, 2, 2, 3, 4, 6, 6, 12]


def test_predicted_sizes_match_construction():
    for n in range(1, 9):
        ring = make_zn(n)
        module = ring_as_module(ring)
        for ideal in enumerate_ideals(ring):
            rs, ms = predicted_sizes(ring, ideal, module)
            inst = build_bowtie(ring, ideal, module)
            assert inst.bowtie_ring.size == rs
            assert inst.bowtie_module.size == ms


def test_pairs_of_a_non_ideal_raise_closure_error():
    ring = make_zn(6)
    fake = Ideal(ring, [0, 1], _checked=True)  # (0,1) + (0,1) = (0,2) is no pair
    with pytest.raises(ClosureError, match=r"under add at \(\(0,1\),\(0,1\)\)") as exc:
        build_bowtie(ring, fake, ring_as_module(ring))
    assert exc.value.pair == (1, 1)  # (0,1) in A x A, at index 0*6 + 1


def test_arithmetic_is_componentwise(z6):
    inst = z6.inst
    ring = inst.bowtie_ring
    idx = inst.ring_pair_index
    # (2,5) * (3,3) = (0,3): the pair product that breaks weak primality
    assert ring.mul[idx[(2, 5)], idx[(3, 3)]] == idx[(0, 3)]
    # (1,4) + (1,1) = (2,5)
    assert ring.add[idx[(1, 4)], idx[(1, 1)]] == idx[(2, 5)]


def test_diagonal_embedding(z6):
    inst = z6.inst
    for a in range(6):
        e = diagonal_embed(inst, a)
        assert inst.ring_pairs[e] == (a, a)
    assert diagonal_embed(inst, 0) == inst.bowtie_ring.zero
    assert diagonal_embed(inst, 1) == inst.bowtie_ring.one


def test_zero_cross_i(z6):
    j = zero_cross_i(z6.inst)
    assert j.label_set() == "{(0,0),(0,3)}"


def test_distinguished_submodules(z6):
    zero_cross_im, im_cross_im = distinguished_submodules(z6.inst)
    assert zero_cross_im.label_set() == "{(0,0),(0,3)}"
    assert im_cross_im.label_set() == "{(0,0),(0,3),(3,0),(3,3)}"


def test_bowtie_submodule_first_components(z6):
    n = Submodule(z6.inst.base_module, [0, 2, 4])
    nb = bowtie_submodule(z6.inst, n)
    firsts = {z6.inst.module_pairs[i][0] for i in nb.members}
    assert firsts == {0, 2, 4}
    assert len(nb) == 6


def test_detect_bowtie_form_round_trip(z6):
    inst = z6.inst
    for n in z6.base_submodules:
        nb = bowtie_submodule(inst, n)
        back = detect_bowtie_form(inst, nb)
        assert back is not None and back.members == n.members
    # diagonal-style submodules are not of bowtie form
    bowtie_members = {bowtie_submodule(inst, n).members for n in z6.base_submodules}
    for s in z6.bowtie_submodules:
        got = detect_bowtie_form(inst, s)
        if s.members in bowtie_members:
            assert got is not None
        else:
            assert got is None


def test_restrict_scalars_first_and_second(z6):
    inst = z6.inst
    t1 = restrict_scalars(inst, "first")
    t2 = restrict_scalars(inst, "second")
    i14 = inst.ring_pair_index[(1, 4)]
    assert t1.act[i14, 1] == 1
    assert t2.act[i14, 1] == 4
    with pytest.raises(ValueError):
        restrict_scalars(inst, "third")


@pytest.mark.parametrize("n,ideal_step", [(255, 255), (16, 1), (256, 256), (17, 1), (257, 257)],
                         ids=["255", "256-full", "256-zero", "289", "257"])
def test_seeded_arrays_equal_table_array_of_the_tuples(n, ideal_step):
    # the arrays build_bowtie and restrict_scalars store match what
    # table_array builds from their entries as nested lists, across the
    # uint8/uint16 boundary (|M><I| = 255, 256, 289 and 257)
    ring = make_zn(n)
    inst = build_bowtie(ring, Ideal(ring, range(0, n, ideal_step)), ring_as_module(ring))
    seeded = [(inst.bowtie_ring, "add"), (inst.bowtie_ring, "mul"),
              (inst.bowtie_module, "add"), (inst.bowtie_module, "act")]
    for which in ("first", "second"):
        t = restrict_scalars(inst, which)
        seeded += [(t, "add"), (t, "act")]
    for obj, name in seeded:
        arr = getattr(obj, name)
        expected = table_array(arr.tolist())
        assert arr.dtype == expected.dtype, (obj, name)
        assert np.array_equal(arr, expected), (obj, name)
        assert not arr.flags.writeable
    assert inst.bowtie_module.size == n * len(inst.ideal)


def test_mismatched_inputs_rejected():
    r6, r4 = make_zn(6), make_zn(4)
    with pytest.raises(ValueError):
        build_bowtie(r6, Ideal(r4, [0, 2]), ring_as_module(r6))
    with pytest.raises(ValueError):
        build_bowtie(r6, Ideal(r6, [0, 3]), ring_as_module(r4))


def test_zero_ideal_duplication_is_diagonal():
    ctx = make_zn_instance(5, [0])
    inst = ctx.inst
    assert inst.bowtie_ring.size == 5
    assert all(a == b for a, b in inst.ring_pairs)


def test_whole_ideal_duplication_is_full_product():
    ctx = make_zn_instance(4, range(4))
    assert ctx.inst.bowtie_ring.size == 16
    assert ctx.inst.bowtie_module.size == 16


def test_azizi_implies_af_on_bowtie_corpus():
    # the implication chain observed on the regular modules also holds on
    # every duplicated module of the small corpus
    for n in range(2, 7):
        ring = make_zn(n)
        for ideal in enumerate_ideals(ring):
            ctx = make_zn_instance(n, ideal.members)
            subs = ctx.bowtie_submodules
            for sub in subs:
                if not sub.is_proper:
                    continue
                if is_weakly_prime_submodule_azizi(sub, subs).holds:
                    assert is_weakly_prime_submodule_af(sub).holds


def test_im_recorded_on_instance(z6):
    assert z6.inst.im.members == (0, 3)
    ctx = make_zn_instance(12, [0, 4, 8])
    assert ctx.inst.im.members == (0, 4, 8)


def test_swap_is_a_lattice_automorphism_that_keeps_every_classification():
    # sigma(m, m') = (m', m) maps M><I onto itself, semilinearly along the
    # swap (a, a') -> (a', a) of A><I, so it must permute Lat(M><I) and keep
    # each of the six notions of every proper S
    modules = [ring_as_module(make_zn(n)) for n in range(1, 13)] + family_modules()
    checked = 0
    for module in modules:
        for inst in duplications(module, 64):
            mod = inst.bowtie_module
            index = {pair: x for x, pair in enumerate(inst.module_pairs)}
            swap = [index[(mp, m)] for m, mp in inst.module_pairs]
            subs = enumerate_submodules(mod)
            by_mask = {s.mask: s for s in subs}
            for s in subs:
                if not s.is_proper:
                    continue
                image = by_mask.get(sum(1 << swap[x] for x in s.members))
                assert image is not None, (mod.name, s.label_set())
                assert ({k: v.holds for k, v in classify_submodule(s, subs).items()}
                        == {k: v.holds for k, v in classify_submodule(image, subs).items()}), (
                    mod.name, s.label_set())
                checked += 1
    assert checked == 1976
