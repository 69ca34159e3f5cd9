import random
import tracemalloc

import numpy as np
import pytest

import oracles

from bowtie import duplication, theorems
from bowtie.duplication import (
    bowtie_submodule,
    build_bowtie,
    detect_bowtie_form,
    pair_generators,
    predicted_sizes,
    product_submodule,
)
from bowtie.classify import (
    classify_submodule,
    is_weakly_prime_submodule_af,
    is_weakly_prime_submodule_azizi,
)
from bowtie.modules import (
    Submodule,
    enumerate_submodules,
    quotient_module,
    ring_as_module,
    whole_submodule,
    zero_submodule,
)
from bowtie.rings import (
    GATHER_BLOCK, ClosureError, Ideal, enumerate_ideals, make_zn, mask_of, table_array,
)
from bowtie.theorems import Instance, make_zn_instance

from constructions import diagonal_embed, zero_cross_i
from families import duplications, family_modules, relabel

Z6_PAIRS = (
    (0, 0), (0, 3), (1, 1), (1, 4), (2, 2), (2, 5),
    (3, 0), (3, 3), (4, 1), (4, 4), (5, 2), (5, 5),
)


def test_z6_carrier_frozen(z6):
    inst = z6.inst
    assert inst.ring_pairs.tolist() == [list(p) for p in Z6_PAIRS]
    assert inst.module_pairs is inst.ring_pairs  # M is regular
    assert inst.ring_pairs.shape == (12, 2) and not inst.ring_pairs.flags.writeable
    assert inst.bowtie_ring.size == 12
    assert inst.bowtie_ring.labels[1] == "(0,3)"


def test_z6_submodule_census(z6):
    sizes = [len(s) for s in z6.bowtie_submodules]
    assert sizes == [1, 2, 2, 3, 4, 6, 6, 12]


def _assert_pair_generators_span(inst) -> None:
    for pairs, zero, carrier in (
            (inst.ring_pairs, inst.base_ring.zero, inst.bowtie_ring),
            (inst.module_pairs, inst.base_module.zero, inst.bowtie_module)):
        gens = pair_generators(pairs, zero)
        assert all(a == b or a == zero for a, b in pairs[gens].tolist())
        assert oracles.additive_closure(carrier.add, gens) == frozenset(range(carrier.size))


@pytest.mark.parametrize("n", range(1, 21))
def test_pair_generators_span_every_zn_duplication(n):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        _assert_pair_generators_span(build_bowtie(ring, ideal, ring_as_module(ring)))


def test_pair_generators_span_every_family_duplication():
    count = 0
    for module in family_modules():
        for inst in duplications(module):
            _assert_pair_generators_span(inst)
            count += 1
    assert count == 176


def _assert_zero_cross_i_product(inst) -> None:
    # (0 x I)(M><I) = 0 x IM, which the library reads as 0 join I
    zero_cross_im = bowtie_submodule(inst, zero_submodule(inst.base_module))
    assert product_submodule(zero_cross_i(inst), inst.bowtie_module).mask == zero_cross_im.mask


# n > 20 covers the rest of what ``hunt --max 48 --budget 2304`` builds (n |I| <= n^2)
@pytest.mark.parametrize("n", [pytest.param(n, marks=pytest.mark.slow) if n > 20 else n
                               for n in range(1, 49)])
def test_zero_cross_i_times_every_zn_duplication_is_zero_cross_im(n):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        _assert_zero_cross_i_product(build_bowtie(ring, ideal, ring_as_module(ring)))


def test_zero_cross_i_times_every_family_duplication_is_zero_cross_im():
    count = 0
    for module in family_modules():
        for inst in duplications(module):
            _assert_zero_cross_i_product(inst)
            count += 1
    assert count == 176


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
    fake = Ideal.from_mask(ring, 0b11)  # (0,1) + (0,1) = (0,2) is no pair
    with pytest.raises(ClosureError, match=r"under add at \(\(0,1\),\(0,1\)\)") as exc:
        build_bowtie(ring, fake, ring_as_module(ring))
    assert exc.value.pair == (1, 1)  # (0,1) in A x A, at index 0*6 + 1


@pytest.mark.parametrize("name", ["(Z2xZ2)-reg", "(Z2xZ2)/{(0,0),(0,1)}"])
def test_pairs_of_a_subring_that_is_no_ideal_raise_closure_error(name):
    # the diagonal {(0,0),(1,1)} of Z2xZ2 is closed under + but not under
    # multiplication by Z2xZ2: (0,(1,1)).((0,1),(0,1)) = (0,(0,1)) is no
    # pair. Over the quotient, IM = M and every pair of M x M lies in M><I,
    # so the module's generator blocks close; the ring's own must not
    module = next(m for m in family_modules() if m.name == name)
    ring = module.ring
    diagonal = Ideal.from_mask(ring, 1 << ring.labels.index("(0,0)")
                               | 1 << ring.labels.index("(1,1)"))
    with pytest.raises(ClosureError) as exc:
        build_bowtie(ring, diagonal, module)
    assert str(exc.value) == "subset not closed under mul at ((0,3),(1,1))"
    assert (module.table_owner is ring) == (name == "(Z2xZ2)-reg")


def _assert_l8_reads_only_the_generator_blocks(ctx) -> None:
    """An L8-only pass builds neither table of the duplication, and the
    generator blocks it read are the columns of the tables built after."""
    inst = ctx.inst
    assert theorems.run_checker(ctx, "L8", None).outcome == "pass"
    assert "bowtie_ring" not in vars(inst) and "bowtie_module" not in vars(inst)
    base = inst.base_module
    assert np.array_equal(inst.gens, pair_generators(inst.module_pairs, base.zero))
    assert np.array_equal(inst.scalars, pair_generators(inst.ring_pairs, inst.base_ring.zero))
    mod = inst.bowtie_module
    assert np.array_equal(inst.sums, mod.add.take(inst.gens, 1))
    assert np.array_equal(inst.products, mod.act.take(inst.scalars, 0).take(inst.gens, 1))


@pytest.mark.parametrize("n", range(1, 21))
def test_l8_builds_no_table_of_a_duplication_of_zn(n):
    ring = make_zn(n)
    for ideal in enumerate_ideals(ring):
        _assert_l8_reads_only_the_generator_blocks(Instance(ring, ideal, ring_as_module(ring)))


def test_l8_builds_no_table_of_a_family_duplication():
    count = 0
    for module in family_modules():
        for inst in duplications(module):
            _assert_l8_reads_only_the_generator_blocks(
                Instance(inst.base_ring, inst.ideal, module))
            count += 1
    assert count == 176


def test_arithmetic_is_componentwise(z6):
    inst = z6.inst
    ring = inst.bowtie_ring
    idx = {pair: x for x, pair in enumerate(map(tuple, inst.ring_pairs.tolist()))}
    # (2,5) * (3,3) = (0,3): the pair product that breaks weak primality
    assert ring.mul[idx[(2, 5)], idx[(3, 3)]] == idx[(0, 3)]
    # (1,4) + (1,1) = (2,5)
    assert ring.add[idx[(1, 4)], idx[(1, 1)]] == idx[(2, 5)]


def test_diagonal_embedding(z6):
    inst = z6.inst
    for a in range(6):
        e = diagonal_embed(inst, a)
        assert inst.ring_pairs[e].tolist() == [a, a]
    assert diagonal_embed(inst, 0) == inst.bowtie_ring.zero
    assert diagonal_embed(inst, 1) == inst.bowtie_ring.one


def test_zero_cross_i(z6):
    j = zero_cross_i(z6.inst)
    assert j.label_set() == "{(0,0),(0,3)}"


def test_distinguished_submodules(z6):
    zero_cross_im = z6.bowtie(zero_submodule(z6.inst.base_module))
    im_cross_im = z6.bowtie(z6.inst.im)
    assert zero_cross_im.label_set() == "{(0,0),(0,3)}"
    assert im_cross_im.label_set() == "{(0,0),(0,3),(3,0),(3,3)}"


def test_distinguished_submodules_and_the_whole_come_from_the_bowtie_memo():
    # 0 x IM, IM x IM and M><I are the N><I of N = 0, IM and M: one object
    # each, shared with the per-N rows
    contexts = [make_zn_instance(4, [0, 2]), make_zn_instance(6, [0, 3])]
    for module in family_modules():
        inst = list(duplications(module))[-1]  # the largest I
        contexts.append(Instance(inst.base_ring, inst.ideal, module))
    for ctx in contexts:
        base = ctx.inst.base_module
        assert ctx.bowtie(ctx.inst.im) is ctx.bowtie(Submodule.from_mask(base, ctx.inst.im.mask))
        assert ctx.bowtie_whole is ctx.bowtie(whole_submodule(base))
        assert ctx.bowtie_whole.mask == whole_submodule(ctx.inst.bowtie_module).mask
        # T_FINAL alone reads 0 x IM as the N><I of N = 0, and keeps its
        # behboodi verdict where N = 0's rows read it
        theorems.run_checker(ctx, "T_FINAL", None)
        if base.size > 1:
            zero_cross_im = ctx.bowtie(zero_submodule(base))
            assert (zero_cross_im.mask, "behboodi") in ctx.derived_cache["weakly_prime"]


def test_bowtie_submodule_first_components(z6):
    n = Submodule(z6.inst.base_module, [0, 2, 4])
    nb = bowtie_submodule(z6.inst, n)
    firsts = {z6.inst.module_pairs[i, 0] for i in nb.members}
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


@pytest.mark.parametrize("n,ideal_step", [(255, 255), (16, 1), (256, 256), (17, 1), (257, 257)],
                         ids=["255", "256-full", "256-zero", "289", "257"])
def test_seeded_arrays_equal_table_array_of_the_tuples(n, ideal_step):
    # the arrays build_bowtie stores match what table_array builds from
    # their entries as nested lists, across the uint8/uint16 boundary
    # (|M><I| = 255, 256, 289 and 257)
    ring = make_zn(n)
    inst = build_bowtie(ring, Ideal(ring, range(0, n, ideal_step)), ring_as_module(ring))
    seeded = [(inst.bowtie_ring, "add"), (inst.bowtie_ring, "mul"),
              (inst.bowtie_module, "add"), (inst.bowtie_module, "act")]
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
    assert all(a == b for a, b in inst.ring_pairs.tolist())


def test_whole_ideal_duplication_is_full_product():
    ctx = make_zn_instance(4, range(4))
    assert ctx.inst.bowtie_ring.size == 16
    assert ctx.inst.bowtie_module.size == 16


def test_build_keeps_its_traced_peak_narrow():
    """build_bowtie(Z32, I=Z32), 1024 pairs, stays below 12 MB of traced
    allocations. Its two tables hold 2 MB each; int64 pair codes and
    lookups of all 1024 x 1024 entries at once took 21 MB."""
    ring = make_zn(32)
    ideal, module = Ideal.from_mask(ring, (1 << 32) - 1), ring_as_module(ring)
    tracemalloc.start()
    try:
        inst = build_bowtie(ring, ideal, module)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.bowtie_ring.size == 1024
    assert peak < 12_000_000, peak


@pytest.mark.parametrize("n", [24, 30, 32])
def test_tables_over_several_row_blocks_are_componentwise(n):
    """Tables of more rows than one lookup block holds equal the
    componentwise operations on the pairs, entry by entry."""
    ring = make_zn(n)
    inst = build_bowtie(ring, Ideal.from_mask(ring, (1 << n) - 1), ring_as_module(ring))
    pairs = inst.ring_pairs.astype(np.int64)
    assert len(pairs) ** 2 > GATHER_BLOCK
    a, b = pairs[:, 0], pairs[:, 1]
    codes = a * n + b
    for mine, base in ((inst.bowtie_ring.add, ring.add), (inst.bowtie_ring.mul, ring.mul)):
        want = base[a[:, None], a[None]].astype(np.int64) * n + base[b[:, None], b[None]]
        assert np.array_equal(codes[mine], want)


def test_closure_error_names_the_first_entry_outside_in_a_late_row_block():
    """A result outside the carrier is reported at its first entry in row
    order, however many row blocks come before it. Under min, the pair
    (31, 31) of all 32 x 32 pairs is only the product of itself with
    itself, the last entry of the table."""
    pairs = np.stack(np.divmod(np.arange(1024), 32), axis=1).astype(np.uint8)
    op = np.minimum.outer(np.arange(32), np.arange(32)).astype(np.uint8)
    lookup = np.arange(1024)
    lookup[1023] = 1024  # the index of a pair outside
    assert 1023 * 1024 > GATHER_BLOCK
    with pytest.raises(ClosureError) as err:
        duplication._componentwise(op, pairs, pairs, lookup, 32, "min")
    assert err.value.pair == (1023, 1023)
    assert str(err.value) == "subset not closed under min at ((31,31),(31,31))"


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


def _spy_on_product_submodule(monkeypatch) -> list:
    calls = []
    real = duplication.product_submodule

    def spy(ideal, module):
        calls.append(module)
        return real(ideal, module)

    monkeypatch.setattr(duplication, "product_submodule", spy)
    return calls


def test_im_is_the_ideal_on_regular_modules(monkeypatch):
    """IM = IA = I when M is the regular module, so build_bowtie reads IM off
    the ideal; a module not acting by its ring's mul sums the sM once, when
    its duplication is first built, and keeps IM by I's mask."""
    calls = _spy_on_product_submodule(monkeypatch)
    for n in range(1, 21):
        ring = make_zn(n)
        module = ring_as_module(ring)
        for ideal in enumerate_ideals(ring):
            im = build_bowtie(ring, ideal, module).im
            assert im.mask == duplication.product_submodule(ideal, module).mask == ideal.mask
            assert im.members == ideal.members and im.module is module
    regular = other = differs = 0
    for module in family_modules():
        for inst in duplications(module):
            calls.clear()
            assert inst.im == build_bowtie(inst.base_ring, inst.ideal, module).im
            assert inst.im.mask == duplication.product_submodule(inst.ideal, module).mask
            assert calls == [module]  # the spy's own call alone
            if module.act is module.ring.mul:
                regular += 1
            else:
                other += 1
                differs += inst.im.mask != inst.ideal.mask
    assert regular >= 10 and other >= 100 and differs >= 50


def test_swap_is_a_lattice_automorphism_that_keeps_every_classification():
    # sigma(m, m') = (m', m) maps M><I onto itself, semilinearly along the
    # swap (a, a') -> (a', a) of A><I, so it must permute Lat(M><I) and keep
    # each of the six notions of every proper S
    modules = [ring_as_module(make_zn(n)) for n in range(1, 13)] + family_modules()
    checked = 0
    for module in modules:
        for inst in duplications(module, 64):
            mod = inst.bowtie_module
            pairs = list(map(tuple, inst.module_pairs.tolist()))
            index = {pair: x for x, pair in enumerate(pairs)}
            swap = [index[(mp, m)] for m, mp in pairs]
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


def _witness_objects(notion: str, s: Submodule, subs: list[Submodule], witness: tuple) -> tuple:
    """A witness of classify_submodule with each lattice position replaced
    by the members of the submodule it names, so that it can be renamed."""
    if notion in ("prime", "weakly_prime_af", "primary"):
        return witness  # a scalar a and an element x
    if notion == "weakly_prime_azizi":
        a, b, t = witness
        return a, b, frozenset(subs[t].members)
    if notion == "weakly_prime_behboodi":
        # s_index counts the submodules K/N of M/N in M/N's own order
        s_index, a, b = witness
        quo, proj = quotient_module(s.module, s)
        k_bar = enumerate_submodules(quo)[s_index]
        return frozenset(x for x, c in enumerate(proj.tolist()) if c in k_bar), a, b
    i, j = witness  # irreducible
    return frozenset(subs[i].members), frozenset(subs[j].members)


def _renamed(notion: str, objs: tuple, perm: list[int]) -> tuple:
    """The witness objects with element x renamed perm[x]; scalars stay."""
    def move(ms):
        return frozenset(perm[x] for x in ms)

    if notion in ("prime", "weakly_prime_af", "primary"):
        return objs[0], perm[objs[1]]
    if notion == "weakly_prime_azizi":
        return objs[0], objs[1], move(objs[2])
    if notion == "weakly_prime_behboodi":
        return move(objs[0]), objs[1], objs[2]
    return move(objs[0]), move(objs[1])


def _refutes(notion: str, s: Submodule, objs: tuple) -> bool:
    """Whether the witness, replayed on S by the definition, shows that S
    lacks the notion."""
    if notion == "prime":
        return oracles.violates_prime_submodule(s, *objs)
    if notion == "weakly_prime_af":
        return oracles.violates_weakly_prime_submodule_af(s, *objs)
    if notion == "primary":
        return oracles.violates_primary_submodule(s, *objs)
    if notion == "weakly_prime_azizi":
        a, b, t = objs
        return oracles.violates_weakly_prime_submodule_azizi(s, a, b, Submodule(s.module, t))
    members = set(s.members)
    if notion == "weakly_prime_behboodi":
        # K/N is nonzero and its annihilator (N : K) is not prime at (a, b)
        k, a, b = objs
        colon = oracles.colon_members(s, Submodule(s.module, k))
        ab = int(s.module.ring.mul[a, b])
        return members < k and a not in colon and b not in colon and ab in colon
    k, l = objs  # irreducible: K and L strictly above N meet in N
    return members < k and members < l and k & l == members


def test_relabelled_carriers_keep_every_verdict_and_carry_every_witness():
    # renaming the elements of M><I, zero off index 0, is an isomorphism that
    # moves every lex-first witness: each classify_submodule bit of a proper S
    # must equal that of its image, each witness renamed must refute the
    # image, and the image's own witness must refute it too
    rng = random.Random(5)
    checked = 0
    for module in family_modules():
        for inst in duplications(module, 64):
            mod = inst.bowtie_module
            perm = list(range(mod.size))
            rng.shuffle(perm)
            if perm[mod.zero] == 0:
                other = (mod.zero + 1) % mod.size
                perm[mod.zero], perm[other] = perm[other], perm[mod.zero]
            renamed = relabel(mod, perm)
            assert renamed.zero != 0
            subs, renamed_subs = enumerate_submodules(mod), enumerate_submodules(renamed)
            by_mask = {t.mask: t for t in renamed_subs}
            assert sorted(by_mask) == sorted(mask_of(perm[x] for x in t.members) for t in subs)
            for s in subs:
                if not s.is_proper:
                    continue
                image = by_mask[mask_of(perm[x] for x in s.members)]
                verdicts = classify_submodule(s, subs)
                images = classify_submodule(image, renamed_subs)
                for notion, v in verdicts.items():
                    w = images[notion]
                    assert v.holds == w.holds, (mod.name, s.label_set(), notion)
                    if v.holds:
                        continue
                    objs = _witness_objects(notion, s, subs, v.witness)
                    assert _refutes(notion, s, objs), (mod.name, s.label_set(), notion)
                    assert _refutes(notion, image, _renamed(notion, objs, perm)), (
                        mod.name, s.label_set(), notion)
                    assert _refutes(notion, image,
                                    _witness_objects(notion, image, renamed_subs, w.witness))
                checked += 1
    assert checked == 1804
