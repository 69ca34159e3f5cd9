"""Instance.npack on the cosets of N><I, against the element-wise pack.

``npack`` computes the sums N><I + Ax and the element colons
(N><I : x) once per coset x + N><I, keeps their ids per coset, and
numbers them by first appearance over ascending x. ``oracles.npack``
computes both for every element, as the library once did; read through
the coset index, the ids of every element must be the oracle's, and every
mask field of the two packs must be equal, on every submodule of M><I
over Z_n, n <= 12, over the family duplications up to 64 elements
(non-regular modules among them) and over relabelled modules whose zero
is not element 0. The numbering agrees only because ``cosets`` numbers
the cosets by least member, so ascending x meets them in id order; that
premise is tested on its own, and the numbering, a scatter of 0..q-1 at the
representatives, must equal the running count the library once took.

The pack's ``ann``, the AND of its element colons, is Ann(M><I / N><I),
which P_COLON_PRIMARY compares with the colon. It must equal the
annihilator of the whole quotient module M><I / N><I, built as the checker
once built it, for every N of M over Z_n, n <= 20, and over the 176 family
duplications up to 256 elements.
"""

import numpy as np
import pytest

from bowtie.duplication import predicted_sizes
from bowtie.modules import (
    _cosets,
    annihilator,
    cosets,
    enumerate_submodules,
    quotient_module,
    ring_as_module,
    whole_submodule,
)
from bowtie.rings import enumerate_ideals, make_zn
from bowtie.theorems import Instance

import oracles
from families import DUPLICATION_CAP, family_modules, relabel

CAP = 64


def _instances(module):
    """An Instance for every ideal I with |A><I| and |M><I| at most CAP."""
    ring = module.ring
    for ideal in enumerate_ideals(ring):
        if max(predicted_sizes(ring, ideal, module)) <= CAP:
            yield Instance(ring, ideal, module)


def _assert_packs_agree(module) -> int:
    checked = 0
    for ctx in _instances(module):
        for nb in ctx.bowtie_submodules:
            pack, element_wise = ctx.npack(nb), oracles.npack(ctx, nb)
            coset, reps = cosets(nb)
            assert pack["coset"] == coset.tolist() and pack["reps"] == reps.tolist()
            assert [pack["rep_sum"][c] for c in pack["coset"]] == element_wise["sum_ids"]
            assert [pack["rep_col"][c] for c in pack["coset"]] == element_wise["col_ids"]
            for field in ("sum_masks", "sum_members", "col_masks", "col_members", "bad_y",
                          "n_mask"):
                assert pack[field] == element_wise[field], (ctx.base_key, nb, field)
            checked += 1
    return checked


@pytest.mark.parametrize("n", range(1, 13))
def test_npack_matches_the_element_wise_pack_on_zn(n):
    assert _assert_packs_agree(ring_as_module(make_zn(n))) > 0


def test_npack_matches_the_element_wise_pack_on_families():
    checked = non_regular = 0
    for module in family_modules():
        count = _assert_packs_agree(module)
        checked += count
        if module.act is not module.ring.mul:
            non_regular += count
    assert checked >= 1000 and non_regular >= 500


@pytest.mark.parametrize("module,perm", [
    (ring_as_module(make_zn(6)), list(range(5, -1, -1))),
    (ring_as_module(make_zn(8)), [3, 0, 1, 2, 7, 4, 5, 6]),
], ids=["Z6-reversed", "Z8-rotated"])
def test_npack_matches_the_element_wise_pack_off_zero_index(module, perm):
    relabelled = relabel(module, perm)
    assert relabelled.zero != 0
    assert _assert_packs_agree(relabelled) > 0


def _assert_cosets_numbered_by_least_member(module) -> None:
    for sub in enumerate_submodules(module):
        coset, reps = cosets(sub)
        ids = coset.tolist()
        first_seen = list(dict.fromkeys(ids))
        assert first_seen == list(range(len(reps)))
        # each coset's least member is its representative, ascending
        assert [ids.index(c) for c in range(len(reps))] == reps.tolist()
        assert coset.dtype == np.int32


def test_cosets_are_numbered_by_least_member():
    for n in range(1, 13):
        for ideal in enumerate_ideals(make_zn(n)):
            ctx = Instance(ideal.ring, ideal, ring_as_module(ideal.ring))
            _assert_cosets_numbered_by_least_member(ctx.inst.bowtie_module)
    for module in family_modules():
        _assert_cosets_numbered_by_least_member(module)
    reversed_z6 = relabel(ring_as_module(make_zn(6)), [5, 4, 3, 2, 1, 0])
    _assert_cosets_numbered_by_least_member(reversed_z6)


@pytest.mark.parametrize("n", range(1, 21))
def test_cosets_equal_the_cumsum_numbering_on_zn(n):
    """_cosets numbers each coset by scattering 0..q-1 at the representatives;
    the library once took a running count of them instead."""
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        mod = Instance(ring, ideal, ring_as_module(ring)).inst.bowtie_module
        for sub in enumerate_submodules(mod):
            got, want = _cosets(mod.add, sub.members), oracles.cumsum_cosets(mod.add, sub.members)
            for a, b in zip(got, want):
                assert a.tolist() == b.tolist() and a.dtype == b.dtype


def _assert_ann_is_the_quotients(ctx: Instance) -> None:
    for n in ctx.base_submodules:
        nb = ctx.bowtie(n)
        quo, _ = quotient_module(ctx.inst.bowtie_module, nb)
        assert ctx.npack(nb)["ann"] == annihilator(whole_submodule(quo)).mask, (ctx.base_key, n)


@pytest.mark.parametrize("n", range(1, 21))
def test_npack_ann_is_the_quotient_annihilator_on_zn(n):
    ring = make_zn(n)
    module = ring_as_module(ring)
    for ideal in enumerate_ideals(ring):
        _assert_ann_is_the_quotients(Instance(ring, ideal, module))


def test_npack_ann_is_the_quotient_annihilator_on_family_duplications():
    instances = [Instance(m.ring, ideal, m) for m in family_modules()
                 for ideal in enumerate_ideals(m.ring)
                 if max(predicted_sizes(m.ring, ideal, m)) <= DUPLICATION_CAP]
    assert len(instances) == 176
    for ctx in instances:
        _assert_ann_is_the_quotients(ctx)
