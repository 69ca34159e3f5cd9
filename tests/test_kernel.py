"""The bitmask kernel against the frozenset oracles.

Colons, the prime-type scans, Azizi, irreducible and the T4, C_IRR and
L_COLON_PROD conditions read the preimage masks pre[a] = {x : a*x in N}.
The oracles in ``oracles.py`` compute the same things from member
frozensets. Verdicts (truth, witness tuple, witness text), colon members
and condition witnesses must be identical on every submodule N of every
duplication over Z_n, n <= 12, and of the non-cyclic families of
``families.py``.

L3ii's colon chain sorts the distinct colons (N><I : K) by size before it
searches pairs for a witness; ``oracles.colon_chain_pairs`` searches every
pair. Their witnesses must be identical on every proper N of M, under both
readings, over Z_n, n <= 16, and the family duplications.

Behboodi reads the colons (N : K) of the lattice of M; its oracle builds
M/N and enumerates the quotient's own lattice. Their verdicts must be
identical on every proper submodule of M and M><I over Z_n, n <= 20, and
over the family duplications up to ``DUPLICATION_CAP`` elements.
"""

import pytest

from bowtie import classify
from bowtie.duplication import build_bowtie, predicted_sizes
from bowtie.modules import (
    Submodule,
    TableModule,
    annihilator,
    colon_by_scalar,
    colon_into_ring,
    enumerate_submodules,
    is_cyclic,
    quotient_module,
    ring_as_module,
    whole_submodule,
    zero_submodule,
)
from bowtie.rings import TableRing, enumerate_ideals, make_zn
from bowtie.theorems import (
    READINGS,
    Instance,
    c_irr_identity_violation,
    colon_chain_violation,
    colon_product_violation,
    t4_violation,
)

import oracles
from families import DUPLICATION_CAP, direct_sum, duplications, family_modules, products

# duplications of the non-cyclic families are checked up to this |M><I|
FAMILY_BUDGET = 32


def _agree_on_ideals(ring: TableRing) -> None:
    for j in enumerate_ideals(ring):
        if not j.is_proper:
            continue
        assert classify.is_prime_ideal(j) == oracles.prime_ideal(j)
        assert classify.is_weakly_prime_ideal(j) == oracles.weakly_prime_ideal(j)
        assert classify.is_primary_ideal(j) == oracles.primary_ideal(j)


def _agree_on_module(module: TableModule) -> list[Submodule]:
    subs = enumerate_submodules(module)
    zero = zero_submodule(module)
    for k in subs:
        assert set(annihilator(k).members) == oracles.colon_members(zero, k)
    for n in subs:
        for k in subs:
            assert set(colon_into_ring(n, k).members) == oracles.colon_members(n, k)
        for a in range(module.ring.size):
            assert set(colon_by_scalar(n, a).members) == oracles.scalar_colon_members(n, a)
        if not n.is_proper:
            continue
        assert classify.is_prime_submodule(n) == oracles.prime_submodule(n)
        assert classify.is_weakly_prime_submodule_af(n) == oracles.weakly_prime_af(n)
        assert classify.is_primary_submodule(n) == oracles.primary_submodule(n)
        assert (classify.is_weakly_prime_submodule_azizi(n, subs)
                == oracles.weakly_prime_azizi(n, subs))
        assert (classify.is_irreducible_submodule(n, subs)
                == oracles.irreducible_submodule(n, subs))
        colon = colon_into_ring(n, whole_submodule(module))
        assert classify.is_prime_ideal(colon) == oracles.prime_ideal(colon)
        assert classify.is_weakly_prime_ideal(colon) == oracles.weakly_prime_ideal(colon)
        assert classify.is_primary_ideal(colon) == oracles.primary_ideal(colon)
    return subs


def _agree_on_instance(ctx: Instance) -> None:
    _agree_on_ideals(ctx.inst.bowtie_ring)
    for nb in _agree_on_module(ctx.inst.bowtie_module):
        t4, c_irr = oracles.sum_condition_violations(ctx, nb)
        assert t4_violation(ctx, nb) == t4
        assert c_irr_identity_violation(ctx, nb) == c_irr
        assert colon_product_violation(ctx, nb) == oracles.colon_product_violation(ctx, nb)


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_matches_oracles_on_zn_duplications(n):
    ring = make_zn(n)
    module = ring_as_module(ring)
    for ideal in enumerate_ideals(ring):
        _agree_on_instance(Instance(ring, ideal, module))


def _families() -> list[tuple[str, TableRing, TableModule]]:
    """Z2xZ2, Z2xZ4 and Z3xZ4 acting on themselves, on A/J and on A + A/J."""
    out = []
    for ring in products():
        regular = ring_as_module(ring)
        out.append((ring.name, ring, regular))
        for j in enumerate_ideals(ring)[1:-1]:
            quo, _ = quotient_module(regular, Submodule(regular, j.members))
            out.append((f"{ring.name}/{j.label_set()}", ring, quo))
            if ring.size * quo.size <= 32:
                out.append((f"{ring.name}+{ring.name}/{j.label_set()}", ring,
                            direct_sum(regular, quo)))
    return out


FAMILIES = _families()


@pytest.mark.parametrize("ring,module", [f[1:] for f in FAMILIES],
                         ids=[f[0] for f in FAMILIES])
def test_kernel_matches_oracles_beyond_cyclic(ring, module):
    _agree_on_ideals(ring)
    _agree_on_module(module)
    for ideal in enumerate_ideals(ring):
        if max(predicted_sizes(ring, ideal, module)) <= FAMILY_BUDGET:
            _agree_on_instance(Instance(ring, ideal, module))


def test_families_are_not_all_cyclic():
    # the family test reaches modules that one element does not generate
    assert sum(not is_cyclic(m).holds for _, _, m in FAMILIES) >= 3


def _chains_agree(module: TableModule) -> tuple[int, int, int]:
    """L3ii's chain test against the pair loop on every proper N of M and
    both readings, for every duplication of the module up to
    DUPLICATION_CAP elements; (checked, violations, violations where N><I
    is weakly prime (af), which are failing L3ii af rows)."""
    checked = violations = af_rows = 0
    ring = module.ring
    for ideal in enumerate_ideals(ring):
        if max(predicted_sizes(ring, ideal, module)) > DUPLICATION_CAP:
            continue
        ctx = Instance(ring, ideal, module)
        for n in ctx.base_submodules:
            if not n.is_proper:
                continue
            nb = ctx.bowtie(n)
            for reading in READINGS:
                got = colon_chain_violation(ctx, nb, reading)
                assert got == oracles.colon_chain_pairs(ctx, nb, reading), (ctx.key_for(n), reading)
                checked += 1
                violations += bool(got)
                af_rows += bool(got) and ctx.weakly_prime(nb, "af").holds
    return checked, violations, af_rows


def test_colon_chain_matches_the_pair_loop_on_zn():
    counts = [_chains_agree(ring_as_module(make_zn(n))) for n in range(1, 17)]
    assert tuple(map(sum, zip(*counts))) == (268, 56, 10)


def test_colon_chain_matches_the_pair_loop_on_families():
    counts = [_chains_agree(module) for module in family_modules()]
    assert tuple(map(sum, zip(*counts))) == (2300, 930, 38)


def _behboodi_agrees(module: TableModule) -> tuple[int, int]:
    """Behboodi on M's lattice against the quotient oracle; (checked, negative)."""
    subs = enumerate_submodules(module)
    checked = negative = 0
    for n in subs:
        if n.is_proper:
            got = classify.is_weakly_prime_submodule_behboodi(n, subs)
            assert got == oracles.weakly_prime_behboodi(n), n
            checked += 1
            negative += not got.holds
    return checked, negative


def test_behboodi_matches_the_quotient_oracle_on_zn():
    checked = negative = 0
    for n in range(1, 21):
        ring = make_zn(n)
        module = ring_as_module(ring)
        modules = [module] + [build_bowtie(ring, i, module).bowtie_module
                              for i in enumerate_ideals(ring)]
        for m in modules:
            c, neg = _behboodi_agrees(m)
            checked += c
            negative += neg
    assert (checked, negative) == (670, 502)


def test_behboodi_matches_the_quotient_oracle_on_families():
    checked = negative = 0
    for module in family_modules():
        for m in [module] + [inst.bowtie_module for inst in duplications(module)]:
            c, neg = _behboodi_agrees(m)
            checked += c
            negative += neg
    assert (checked, negative) == (5646, 4939)
