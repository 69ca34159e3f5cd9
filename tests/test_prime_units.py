"""Primes read off units, against the literal definition.

``is_prime_ideal`` scans the a outside J upwards against the principal
ideals aA (``rings.principal_masks``): in the finite ring A/J, a is a zero
divisor exactly when it is not a unit, that is, when aA misses the coset
1 + J. Its verdict and lex-first witness must be those of
``oracles.prime_ideal``, which reads the definition pair by pair, on every
ideal of Z_n and of every Z_n><I for n <= 12, of the family product rings
and their duplications, and of relabelled rings whose zero is not element
0 and whose one is not element 1. On the same rings the principal ideals
must be the columns of ``mul`` packed as masks, the cyclic submodules Rg
of the regular module, which read them. The coset 1 + J is read off J's
mask, so a verdict lists no members of J; from a mask alone it matches the
oracle on every ideal of Z_n for n <= 64 and of the family rings.
"""

import pytest

from bowtie.classify import is_prime_ideal
from bowtie.duplication import build_bowtie
from bowtie.modules import cyclic_masks, ring_as_module, scalar_images
from bowtie.rings import Ideal, enumerate_ideals, make_zn, principal_masks, row_images
from bowtie.theorems import Instance

import oracles
from families import duplications, family_modules, products, relabel_ring

RELABELLED = [
    relabel_ring(make_zn(6), [5, 4, 3, 2, 1, 0]),
    relabel_ring(make_zn(8), [3, 0, 1, 2, 7, 4, 5, 6]),
    relabel_ring(make_zn(12), [11 - x for x in range(12)]),
    relabel_ring(products()[1], [(3 * x + 5) % 8 for x in range(8)]),
]


def _with_duplications(ring):
    """The ring, then A><I for every ideal I."""
    yield ring
    for ideal in enumerate_ideals(ring):
        yield build_bowtie(ring, ideal, ring_as_module(ring)).bowtie_ring


def _assert_primes_match_the_oracle(base) -> int:
    checked = 0
    for ring in _with_duplications(base):
        assert principal_masks(ring) == row_images(ring.mul.T, ring.size)
        assert cyclic_masks(ring_as_module(ring)) is principal_masks(ring)
        for j in enumerate_ideals(ring)[:-1]:
            fresh = Ideal(ring, j.members)  # unshared, so no memo answers for it
            assert is_prime_ideal(fresh) == oracles.prime_ideal(fresh), (ring.name, j)
            checked += 1
    return checked


@pytest.mark.parametrize("n", range(2, 13))
def test_prime_ideals_match_the_oracle_on_zn(n):
    assert _assert_primes_match_the_oracle(make_zn(n)) > 0


@pytest.mark.parametrize("ring", products(), ids=lambda r: r.name)
def test_prime_ideals_match_the_oracle_on_products(ring):
    assert _assert_primes_match_the_oracle(ring) > 0


@pytest.mark.parametrize("ring", RELABELLED, ids=lambda r: r.name)
def test_prime_ideals_match_the_oracle_off_zero_and_one_index(ring):
    assert ring.zero != 0 and ring.one != 1
    assert _assert_primes_match_the_oracle(ring) > 0


def test_regular_duplications_read_the_principal_ideals():
    ring = make_zn(12)
    assert scalar_images(ring_as_module(ring)) is principal_masks(ring)
    for ideal in enumerate_ideals(ring):
        ctx = Instance(ring, ideal, ring_as_module(ring))
        assert scalar_images(ctx.inst.bowtie_module) is principal_masks(ctx.inst.bowtie_ring)


def test_a_verdict_lists_no_members_of_the_ideal():
    for n in (2, 6, 12, 30):
        ring = make_zn(n)
        for j in enumerate_ideals(ring)[:-1]:
            fresh = Ideal.from_mask(ring, j.mask)
            is_prime_ideal(fresh)
            assert fresh._members is None, (n, j)


def _from_masks_match_the_oracle(rings) -> int:
    checked = 0
    for ring in rings:
        for j in enumerate_ideals(ring)[:-1]:
            fresh = Ideal.from_mask(ring, j.mask)
            assert is_prime_ideal(fresh) == oracles.prime_ideal(fresh), (ring.name, j)
            checked += 1
    return checked


def test_prime_ideals_from_masks_match_the_oracle_on_zn_to_64():
    assert _from_masks_match_the_oracle(make_zn(n) for n in range(2, 65)) > 200


def test_prime_ideals_from_masks_match_the_oracle_on_the_family_rings():
    rings = {id(m.ring): m.ring for m in family_modules()}
    for module in family_modules():
        for inst in duplications(module, cap=64):
            rings[id(inst.bowtie_ring)] = inst.bowtie_ring
    assert _from_masks_match_the_oracle(rings.values()) >= 500
