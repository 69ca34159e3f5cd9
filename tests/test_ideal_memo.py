"""The ring's ideal memo, the Azizi kernel that reads it, and irreducible.

Every colon, annihilator and radical is the ring's ideal of its mask, and
the ring keeps that ideal's scalar classes, prime verdict and radical by
mask, so every object for one mask shares them. Each must equal what
``is_prime_ideal`` and ``radical`` give on a fresh ``Ideal`` of the same
members, and a hunt computes each once per distinct ideal.

Azizi tests each distinct proper colon (N : T) once. Its Verdicts, witness
text included, must equal those of the pair loop over every scalar pair
(a, b) (``oracles.azizi_pair_loop``) on every proper submodule of M and
M><I over Z_n, n <= 20, and over the family duplications up to
``DUPLICATION_CAP`` elements.

Irreducible is checked against the literal quantifier over the powerset
lattice (``oracles.brute_irreducible``) on modules of at most 16 elements.
"""

import gc
import weakref
from collections import Counter

import pytest

from bowtie import classify, rings
from bowtie.classify import VARIANTS, ideal_is_prime, is_irreducible_submodule, is_prime_ideal
from bowtie.duplication import build_bowtie
from bowtie.modules import (
    annihilator,
    colon_into_ring,
    enumerate_submodules,
    ring_as_module,
    whole_submodule,
)
from bowtie.rings import (
    Ideal,
    enumerate_ideals,
    make_zn,
    radical,
)
from bowtie.theorems import READINGS, THEOREM_IDS, CorpusSpec, Instance, hunt, instance_rows

import oracles
from families import duplications, family_modules


def _zn_modules(max_n: int, cap: int | None = None):
    """Z_n on itself and every M><I over it, for n <= max_n."""
    for n in range(1, max_n + 1):
        ring = make_zn(n)
        module = ring_as_module(ring)
        yield module
        for ideal in enumerate_ideals(ring):
            if cap is None or n * len(ideal) <= cap:
                yield build_bowtie(ring, ideal, module).bowtie_module


def _family_modules(cap: int):
    for module in family_modules():
        if module.size <= cap:
            yield module
        for inst in duplications(module, cap):
            yield inst.bowtie_module


# ------------------------------------------------------------ Azizi


def _azizi_agrees(module) -> tuple[int, int]:
    """Azizi against the pair loop on every proper N; (checked, negative)."""
    subs = enumerate_submodules(module)
    checked = negative = 0
    for n in subs:
        if n.is_proper:
            got = classify.is_weakly_prime_submodule_azizi(n, subs)
            assert got == oracles.azizi_pair_loop(n, subs), n
            checked += 1
            negative += not got.holds
    return checked, negative


def test_azizi_matches_the_pair_loop_on_zn():
    totals = [_azizi_agrees(m) for m in _zn_modules(20)]
    assert tuple(map(sum, zip(*totals))) == (670, 502)


def test_azizi_matches_the_pair_loop_on_families():
    totals = [_azizi_agrees(m) for m in _family_modules(256)]
    assert tuple(map(sum, zip(*totals))) == (5646, 4939)


def test_azizi_witness_on_z4_zero():
    # (N : T) over Z4 for N = 0: T = 0 gives Z4, T = {0,2} gives {0,2},
    # T = Z4 gives {0}, which is not prime: 2*2 = 0
    m = ring_as_module(make_zn(4))
    subs = enumerate_submodules(m)
    v = classify.is_weakly_prime_submodule_azizi(subs[0], subs)
    assert (v.holds, v.witness, v.witness_text) == (False, (2, 2, 2), "a=2 b=2 T={0,1,2,3}")


# ------------------------------------------------------- ideal memo


def _memo_agrees(ring) -> int:
    """Every ideal of the ring against fresh computations; the ideal count."""
    ideals = enumerate_ideals(ring)
    for j in ideals:
        assert Ideal.from_mask(ring, j.mask) == j
        fresh = Ideal(ring, j.members)
        assert fresh is not j and fresh == j
        assert fresh.classes is j.classes
        rad = radical(fresh)
        assert rad == radical(j)
        assert rad.mask is radical(j).mask is ring.derived_cache["radicals"][j.mask]
        assert set(rad.members) == oracles.brute_radical(ring, set(j.members))
        if j.is_proper:
            assert ideal_is_prime(ring, j.mask) is ideal_is_prime(ring, j.mask)
            assert ideal_is_prime(ring, j.mask) == is_prime_ideal(fresh)
    return len(ideals)


def test_ring_memo_on_zn_duplications():
    count = 0
    for module in _zn_modules(20):
        count += _memo_agrees(module.ring)
    assert count == 756


def test_ring_memo_on_family_duplications():
    count = 0
    for module in _family_modules(256):
        count += _memo_agrees(module.ring)
    assert count == 2711


def test_colons_and_annihilators_are_interned():
    """Each colon and annihilator is the ring's ideal of its mask, and every
    object for that mask shares its scalar classes."""
    z12 = make_zn(12)
    inst = build_bowtie(z12, Ideal(z12, [0, 4, 8]), ring_as_module(z12))
    mod = inst.bowtie_module
    ring = mod.ring
    subs = enumerate_submodules(mod)
    for n in subs:
        for k in subs:
            col = colon_into_ring(n, k)
            again = Ideal.from_mask(ring, col.mask)
            assert col == again == colon_into_ring(n, k)
            assert col.classes is again.classes
        ann = annihilator(n)
        again = Ideal.from_mask(ring, ann.mask)
        assert ann == again and ann.classes is again.classes
    assert colon_into_ring(subs[0], whole_submodule(mod)) == annihilator(whole_submodule(mod))


def _every_fact(n: int, members: list[int]) -> list[weakref.ref]:
    """Every checker's rows, and every ideal's radical in Z_n and A><I, on a
    fresh Z_n><I; weak references to Z_n, A><I and the Instance."""
    ring = make_zn(n)
    ctx = Instance(ring, Ideal(ring, members), ring_as_module(ring))
    assert instance_rows(ctx, THEOREM_IDS, VARIANTS, READINGS)
    dup = ctx.inst.bowtie_ring
    for r in (ring, dup):
        for j in enumerate_ideals(r):
            radical(j)
    return [weakref.ref(ring), weakref.ref(dup), weakref.ref(ctx)]


@pytest.mark.parametrize("n, members", [(12, [0, 4, 8]), (16, [0, 8]), (6, [0, 3])])
def test_memos_leave_no_cycle_for_the_collector(n, members):
    """Every memo refers to no ring, so the last strong reference frees the
    rings and the Instance at once, with the cycle collector off."""
    gc.disable()
    try:
        refs = _every_fact(n, members)
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_a_hunt_tests_each_ideal_once(monkeypatch):
    primes: Counter = Counter()
    radicals: Counter = Counter()
    real_prime, real_radical = classify.is_prime_ideal, rings._radical_mask

    def counted_prime(j):
        primes[j.ring, j.mask] += 1  # the key keeps the ring alive, so ids stay unique
        return real_prime(j)

    def counted_radical(ring, mask):
        radicals[ring, mask] += 1
        return real_radical(ring, mask)

    monkeypatch.setattr(classify, "is_prime_ideal", counted_prime)
    monkeypatch.setattr(rings, "_radical_mask", counted_radical)
    hunt(CorpusSpec(max_n=8))
    assert primes and radicals
    assert max(primes.values()) == max(radicals.values()) == 1


# ------------------------------------------------------- irreducible


@pytest.mark.parametrize("family,expected", [("zn", (102, 25)), ("families", (387, 174))])
def test_irreducible_matches_the_literal_quantifier(family, expected):
    modules = _zn_modules(16, cap=16) if family == "zn" else _family_modules(16)
    checked = negative = 0
    for module in modules:
        if module.size > 16:
            continue
        brute = oracles.brute_submodules(module)
        subs = enumerate_submodules(module)
        for n in subs:
            if n.is_proper:
                got = is_irreducible_submodule(n, subs).holds
                assert got == oracles.brute_irreducible(n, brute), n
                checked += 1
                negative += not got
    assert (checked, negative) == expected
