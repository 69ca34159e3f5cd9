"""The ring's ideal memo, the Azizi kernel that reads it, and irreducible.

Every colon, annihilator and radical is the ring's interned ideal of its
mask, and that ideal carries its prime verdict and its radical. Each must
equal what ``is_prime_ideal`` and ``radical`` give on a fresh, unshared
``Ideal`` of the same members, and a hunt computes each once per
distinct ideal.

Azizi tests each distinct proper colon (N : T) once. Its Verdicts, witness
text included, must equal those of the pair loop over every scalar pair
(a, b) (``oracles.azizi_pair_loop``) on every proper submodule of M and
M><I over Z_n, n <= 20, and over the family duplications up to
``DUPLICATION_CAP`` elements.

Irreducible is checked against the literal quantifier over the powerset
lattice (``oracles.brute_irreducible``) on modules of at most 16 elements.
"""

from collections import Counter

import pytest

from bowtie import classify, rings
from bowtie.classify import ideal_is_prime, is_irreducible_submodule, is_prime_ideal
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
    ideal_of,
    ideal_radical,
    make_zn,
    radical,
)
from bowtie.theorems import CorpusSpec, hunt

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
        assert ideal_of(ring, j.mask) is j
        fresh = Ideal(ring, j.members)
        assert fresh is not j and fresh == j
        rad = ideal_radical(fresh)
        assert rad is ideal_radical(j) is radical(fresh)
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
    z12 = make_zn(12)
    inst = build_bowtie(z12, Ideal(z12, [0, 4, 8]), ring_as_module(z12))
    mod = inst.bowtie_module
    ring = mod.ring
    subs = enumerate_submodules(mod)
    for n in subs:
        for k in subs:
            col = colon_into_ring(n, k)
            assert col is ideal_of(ring, col.mask) is colon_into_ring(n, k)
        assert annihilator(n) is ideal_of(ring, annihilator(n).mask)
    assert colon_into_ring(subs[0], whole_submodule(mod)) is annihilator(whole_submodule(mod))


def test_a_hunt_tests_each_ideal_once(monkeypatch):
    primes: Counter = Counter()
    radicals: Counter = Counter()
    real_prime, real_radical = classify.is_prime_ideal, rings.radical

    def counted_prime(j):
        primes[j.ring, j.mask] += 1  # the key keeps the ring alive, so ids stay unique
        return real_prime(j)

    def counted_radical(j):
        radicals[j.ring, j.mask] += 1
        return real_radical(j)

    monkeypatch.setattr(classify, "is_prime_ideal", counted_prime)
    monkeypatch.setattr(rings, "radical", counted_radical)
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
