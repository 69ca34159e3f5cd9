"""Preimage tables stored as scalar classes, against the per-scalar kernel.

A preimage table pre[a] = {x : a*x in N} is stored as its scalar classes:
the distinct rows p, each with the mask of the scalars that carry it,
ordered by least scalar. The per-scalar kernel it replaced, one mask per
scalar converted row by row with ``int.from_bytes`` and every colon and
scan a loop over all scalars, is kept in ``oracles.py``. Here the packing
must equal the row-by-row conversion at every width from 1 to 1100
columns and on non-contiguous inputs; the classes must equal the
per-scalar rows grouped by value; and the class colons and scans must
return exactly what the per-scalar ones return, on every submodule of M
and M><I over Z_n, n <= 16, and of the family duplications. Each per-scalar
fact read off the classes (zero_pre, the colon product's class of st at the
classes' least scalars) must equal the one read off the whole table. The
gathers through a large table (the classes, the coset numbering and the
packing of a table's row images) read a block of rows at a time, and L8's
module-map check and the colon product scan read only generators and class
representatives, each under a tracemalloc bound; the blocked passes must
equal their one-block results. Up to 64 elements ``row_images`` ORs each
row's entry bits instead of packing a boolean fill; the fill is kept in
``oracles.py``, and the two must agree at every carrier size up to 65 and
on the principal and cyclic masks of Z_n><I, n <= 20, and of the families.
"""

import tracemalloc

import numpy as np
import pytest

from bowtie import classify, rings
from bowtie.duplication import build_bowtie, bowtie_submodule, pair_generators
from bowtie.modules import (
    TableModule,
    _cosets,
    check_module_map,
    colon_mask,
    cyclic_masks,
    enumerate_submodules,
    ring_as_module,
    whole_submodule,
    zero_submodule,
)
from bowtie.rings import (
    GATHER_BLOCK,
    Ideal,
    TableRing,
    bits,
    carrier_table,
    class_ids,
    class_rows,
    enumerate_ideals,
    ideal_of,
    make_zn,
    mask_of,
    pack_rows,
    preimage_classes,
    principal_masks,
    radical,
    row_images,
)
from bowtie.theorems import Instance, colon_product_violation

import oracles
from families import duplications, family_modules


def _grouped(rows) -> tuple[tuple[int, int], ...]:
    """Per-row masks grouped by value: (row, mask of its indices), by least index."""
    out: dict[int, int] = {}
    for i, p in enumerate(rows):
        out[p] = out.get(p, 0) | 1 << i
    return tuple(out.items())


def _agree_on_matrix(hits: np.ndarray) -> None:
    want = oracles.pack_rows(hits)
    got = pack_rows(hits)
    assert got == want
    assert all(type(m) is int for m in got)  # Python ints only, never numpy scalars
    size = hits.shape[1]
    # each row as a preimage row: table[a][x] = x where hits[a][x], else an outsider
    table = np.where(hits, np.arange(size), size)
    assert preimage_classes(table, (1 << size) - 1, size + 1) == _grouped(want)


def test_pack_rows_matches_the_row_by_row_conversion_at_every_width():
    rng = np.random.default_rng(11)
    for width in range(1, 1101):
        hits = rng.random((5, width)) < 0.5
        hits[1] = False
        hits[2] = True
        hits[3] = hits[0]  # a repeated row
        _agree_on_matrix(hits)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 127, 512, 513, 1100])
def test_pack_rows_on_empty_transposed_and_sliced_inputs(width):
    rng = np.random.default_rng(width)
    _agree_on_matrix(np.zeros((0, width), dtype=bool))
    _agree_on_matrix(np.zeros((3, width), dtype=bool))
    _agree_on_matrix(np.ones((3, width), dtype=bool))
    tall = rng.random((width, 6)) < 0.3
    _agree_on_matrix(tall.T)  # the transpose packs into a non-contiguous array
    wide = rng.random((9, 2 * width + 3)) < 0.6
    for sliced in (wide[::2, 1:width + 1], wide[:, ::2], wide[1:, 3:]):
        assert not sliced.flags.c_contiguous
        _agree_on_matrix(sliced)


def _agree_on_rows(rows: np.ndarray, size: int) -> None:
    got = row_images(rows, size)
    assert got == oracles.row_images(rows, size)
    assert all(type(m) is int for m in got)


@pytest.mark.parametrize("size", range(1, 66))
def test_row_images_up_to_64_elements_match_the_packed_form(size, monkeypatch):
    """Up to 64 elements a row's mask is the OR of its entries' bits; from 65
    it is the packed boolean fill, which the oracle keeps for every size."""
    rng = np.random.default_rng(size)
    table = rng.integers(0, size, (size + 2, size))
    table[0], table[1] = size - 1, 0  # the top bit alone, and bit 0 alone
    act = carrier_table(table, size)
    wide = carrier_table(rng.integers(0, size, (5, 2 * size + 1)), size)
    inputs = [act, act.T, act[::2], act[:, 1:], wide, wide.T[:, :3], act[:0],
              act.astype(np.uint16).T, act.astype(np.int32)]
    for rows in inputs:
        _agree_on_rows(rows, size)
    monkeypatch.setattr(rings, "GATHER_BLOCK", 2 * size + 1)  # a few rows a block
    for rows in inputs:
        _agree_on_rows(rows, size)


def test_principal_and_cyclic_masks_match_the_packed_form():
    """aA on every Z_n and Z_n><I, n <= 20, and on the family rings and their
    duplications; Rg on every family module and duplication not acting by
    its ring's mul, whose rows are the columns of the action table."""
    narrow = 0
    for n in range(1, 21):
        ring = make_zn(n)
        for ideal in enumerate_ideals(ring):
            for r in (ring, build_bowtie(ring, ideal, ring_as_module(ring)).bowtie_ring):
                assert principal_masks(r) == oracles.row_images(r.mul, r.size)
                narrow += r.size <= 64
    for module in _family_modules():
        ring = module.ring
        assert principal_masks(ring) == oracles.row_images(ring.mul, ring.size)
        assert cyclic_masks(module) == oracles.row_images(module.act.T, module.size)
        narrow += module.act is not ring.mul and module.size <= 64
    assert narrow >= 200


def _family_modules():
    for module in family_modules():
        yield module
        for inst in duplications(module):
            yield inst.bowtie_module


def _scans_agree(classes, pre, exempts, outside, zero_pre, zero_pre_old) -> None:
    for exempt in exempts:
        for zp, zp_old in ((None, None), (zero_pre, zero_pre_old)):
            got = classify._first_violation(classes, exempt, outside, zp)
            assert got == oracles.first_violation(pre, exempt, outside, zp_old)


def _agree_on_ring(ring: TableRing) -> None:
    zero_old = oracles.preimage_masks(ring.mul, (ring.zero,), ring.size)
    assert ring.zero_pre == zero_old
    every_third = sum(1 << a for a in range(0, ring.size, 3))
    for j in enumerate_ideals(ring):
        pre = oracles.preimage_masks(ring.mul, j.members, ring.size)
        assert j.classes == _grouped(pre)
        if not j.is_proper:
            continue
        for outside in (~j.mask, ~radical(j).mask):
            _scans_agree(j.classes, pre, (j.mask, 0, every_third), outside,
                         ring.zero_pre, zero_old)


def _agree_on_module(module: TableModule) -> int:
    """Classes, colons and scans of every submodule; the number of submodules."""
    ring = module.ring
    zero_old = oracles.preimage_masks(module.act, (module.zero,), module.size)
    assert module.zero_classes == _grouped(zero_old)
    assert module.zero_pre == zero_old
    subs = enumerate_submodules(module)
    whole = (1 << module.size) - 1
    every_third = sum(1 << a for a in range(0, ring.size, 3))
    for k in subs:
        assert colon_mask(module.zero_classes, k.mask) == oracles.colon_mask(zero_old, k.mask)
    # every K as the colon's second argument, or about 100 evenly spread
    # ones and M on the largest lattices
    ks = subs[::-(-len(subs) // 100)] + subs[-1:]
    for n in subs:
        pre = oracles.preimage_masks(module.act, n.members, module.size)
        assert n.classes == _grouped(pre)
        for k in ks:
            assert colon_mask(n.classes, k.mask) == oracles.colon_mask(pre, k.mask)
        if not n.is_proper:
            continue
        colon = colon_mask(n.classes, whole)
        rad = radical(ideal_of(ring, colon)).mask
        _scans_agree(n.classes, pre, (colon, rad, 0, every_third), ~n.mask,
                     module.zero_pre, zero_old)
    return len(subs)


@pytest.mark.parametrize("n", range(1, 17))
def test_classes_colons_and_scans_match_the_per_scalar_kernel_on_zn(n):
    ring = make_zn(n)
    module = ring_as_module(ring)
    _agree_on_ring(ring)
    _agree_on_module(module)
    for ideal in enumerate_ideals(ring):
        inst = build_bowtie(ring, ideal, module)
        _agree_on_ring(inst.bowtie_ring)
        _agree_on_module(inst.bowtie_module)


def test_classes_colons_and_scans_match_the_per_scalar_kernel_on_families():
    checked, rings = 0, []
    for module in _family_modules():
        if not any(r is module.ring for r in rings):
            rings.append(module.ring)
            _agree_on_ring(module.ring)
        checked += _agree_on_module(module)
    assert checked > 2000


def _colon_product_classes_agree(inst) -> int:
    """For every N><I of the instance: each scalar's class, from the classes
    and from the per-scalar rows, and the class of st read off the whole mul
    table against the class read at the least scalars of the classes of s
    and t. The number of N checked."""
    ring, module = inst.bowtie_ring, inst.bowtie_module
    subs = enumerate_submodules(inst.base_module)
    for n in subs:
        nb = bowtie_submodule(inst, n)
        pre = oracles.preimage_masks(module.act, nb.members, module.size)
        assert class_rows(nb.classes, ring.size) == pre
        index = {p: i for i, (p, _scalars) in enumerate(nb.classes)}
        cid = np.array([index[p] for p in pre])
        assert class_ids(nb.classes, ring.size).tolist() == cid.tolist()
        reps = np.array([bits(scalars)[0] for _p, scalars in nb.classes])
        rep = reps[cid]  # the least scalar of each scalar's class
        assert np.array_equal(cid[ring.mul], cid[ring.mul[rep[:, None], rep[None, :]]])
    return len(subs)


@pytest.mark.parametrize("n", range(1, 17))
def test_colon_product_class_of_st_is_read_at_class_representatives_on_zn(n):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        assert _colon_product_classes_agree(build_bowtie(ring, ideal, ring_as_module(ring)))


def test_colon_product_class_of_st_is_read_at_class_representatives_on_families():
    checked = sum(_colon_product_classes_agree(inst)
                  for module in family_modules() for inst in duplications(module))
    assert checked > 100


def test_large_duplications_collapse_into_few_classes():
    # Z16 with I = Z16: 256 scalars, and every preimage table far fewer rows
    ring = make_zn(16)
    module = build_bowtie(ring, enumerate_ideals(ring)[-1], ring_as_module(ring)).bowtie_module
    assert module.ring.size == 256
    counts = [len(n.classes) for n in enumerate_submodules(module)]
    assert max(counts) <= 32


def test_classes_of_a_large_table_gather_a_block_of_rows_at_a_time():
    """The scalar classes of Z48><Z48 (2304 scalars) stay below 6 MB of
    traced allocations and equal the per-row masks grouped by value. One
    gather of the whole uint16 table widened it to 42 MB of int64 indices
    and peaked at 47.8 MB."""
    ring = make_zn(48)
    dup = build_bowtie(ring, Ideal.from_mask(ring, (1 << 48) - 1), ring_as_module(ring))
    table = dup.bowtie_ring.mul
    size = table.shape[1]
    assert table.size > 16 * GATHER_BLOCK
    for members in ((dup.bowtie_ring.zero,), range(0, size, 3)):
        tracemalloc.start()
        try:
            classes = preimage_classes(table, mask_of(members), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000, peak
        assert classes == _grouped(oracles.preimage_masks(table, members, size))


def _traced_peak(fn):
    """fn()'s result and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def z48_full():
    """Z48><Z48 over the regular module: 2304 scalars and elements."""
    ring = make_zn(48)
    return Instance(ring, Ideal.from_mask(ring, (1 << 48) - 1), ring_as_module(ring))


def test_module_maps_of_a_large_module_are_checked_a_block_of_rows_at_a_time(
        z48_full, monkeypatch):
    """L8's first projection of Z48><Z48 onto Z48, checked at the pair
    generators L8 passes (95 of the 2304 elements, and 95 scalars), stays
    below 6 MB of traced allocations, and a copy with one value changed
    fails, also with GATHER_BLOCK at 10 rows, which the check no longer
    reads. One gather of the whole 2304 x 2304 addition table peaked at
    47.8 MB."""
    inst = z48_full.inst
    mod, base = inst.bowtie_module, inst.base_module
    gens = pair_generators(inst.module_pairs, base.zero)
    scalars = pair_generators(inst.ring_pairs, inst.base_ring.zero)
    good = inst.module_pairs[:, 0]
    assert mod.add.size > 16 * GATHER_BLOCK
    bad = good.copy()
    bad[-1] = (bad[-1] + 1) % 48

    def check(table):
        # L8's arguments: M><I's sums and products at the generators, and the
        # rows by which the scalars act on Z48 through their first component
        return check_module_map(table, mod.add.take(gens, axis=1),
                                mod.act.take(scalars, axis=0).take(gens, axis=1), base.add,
                                base.act.take(inst.ring_pairs[scalars, 0], axis=0), gens)

    holds, peak = _traced_peak(lambda: check(good))
    assert holds and peak < 6_000_000, peak
    assert not check(bad)
    monkeypatch.setattr(rings, "GATHER_BLOCK", 10 * len(good))
    assert check(good) and not check(bad)


def _colon_product_witness(ring: TableRing, classes) -> str:
    """The lex-first (s, t) of colon_product_violation, from one whole-table gather."""
    cid = np.empty(ring.size, dtype=np.int64)
    for i, (_p, scalars) in enumerate(classes):
        cid[bits(scalars)] = i
    prod = cid[ring.mul]
    bad = np.argwhere((prod != cid[:, None]) & (prod != cid[None, :]))
    if not len(bad):
        return ""
    s, t = (ring.labels[x] for x in bad[0])
    return f"s={s} t={t}: (N><I : st) matches neither (N><I : s) nor (N><I : t)"


def test_the_colon_product_scan_of_a_large_ring_reads_the_class_table(z48_full):
    """colon_product_violation on Z48><Z48 stays below 6 MB of traced
    allocations and names the lex-first (s, t) of the whole-table scan,
    whose witness row is 96. One gather of the whole multiplication table
    peaked at 47.8 MB."""
    ring = z48_full.inst.bowtie_ring
    base = z48_full.inst.base_module
    nbs = [z48_full.bowtie(n) for n in (zero_submodule(base), whole_submodule(base))]
    expected = [_colon_product_witness(ring, nb.classes) for nb in nbs]
    assert expected[0].startswith("s=(2,0) ") and expected[1] == ""
    for nb, witness in zip(nbs, expected):
        found, peak = _traced_peak(lambda: colon_product_violation(z48_full, nb))
        assert found == witness and peak < 6_000_000, peak


def _blocked_passes(module: TableModule) -> tuple:
    """The coset numbering of every submodule (as lists, with its dtype), the
    row images of the action table and of its columns, and its zero_pre,
    which must be the action table's zero entries."""
    cosets = []
    for n in enumerate_submodules(module):
        coset, reps = _cosets(module.add, n.members)
        cosets.append((coset.tolist(), coset.dtype, reps.tolist()))
    assert module.zero_pre == pack_rows(module.act == module.zero)
    return (cosets, row_images(module.act, module.size),
            row_images(module.act.T, module.size), module.zero_pre)


def _one_block_modules() -> list[TableModule]:
    """Z12's duplications and four family modules not acting by their ring's
    mul, built afresh, so that nothing is read from an earlier memo."""
    ring = make_zn(12)
    mods = [build_bowtie(ring, ideal, ring_as_module(ring)).bowtie_module
            for ideal in enumerate_ideals(ring)]
    return mods + [m for m in family_modules() if m.act is not m.ring.mul][:4]


@pytest.mark.parametrize("block", [1, 100, 1000])
def test_cosets_row_images_and_zero_rows_equal_their_one_block_results(block, monkeypatch):
    mods = _one_block_modules()
    assert max(m.size for m in mods) ** 2 <= GATHER_BLOCK  # each is one block
    whole = [_blocked_passes(m) for m in mods]
    monkeypatch.setattr(rings, "GATHER_BLOCK", block)
    assert [_blocked_passes(m) for m in _one_block_modules()] == whole


def test_cosets_row_images_and_zero_rows_of_a_large_module_read_blocks(z48_full):
    """The cosets of all of Z48><Z48 (the quotient by IM x IM when I = A),
    the row images of its 2304 x 2304 action table, and its zero_pre, read
    off the zero classes, stay below 6 MB of traced allocations. One gather
    of the whole table held 10.6 MB of uint16 entries and its boolean
    compares 5.3 MB each."""
    mod = z48_full.inst.bowtie_module
    assert mod.act.size > 16 * GATHER_BLOCK
    # the zero classes are packed under the bound, not read from a memo
    assert 1 << mod.zero not in mod.table_owner.derived_cache.get("classes", {})
    for fn in (lambda: _cosets(mod.add, range(mod.size)),
               lambda: row_images(mod.act, mod.size),
               lambda: mod.zero_pre):
        _, peak = _traced_peak(fn)
        assert peak < 6_000_000, peak
    assert mod.zero_pre == pack_rows(mod.act == mod.zero)
    coset, reps = _cosets(mod.add, range(mod.size))
    assert not coset.any() and reps.tolist() == [mod.zero]
