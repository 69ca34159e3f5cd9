import pytest
from hypothesis import given, strategies as st

from bowtie.classify import (
    ImproperError,
    classify_ideal,
    classify_submodule,
    is_irreducible_submodule,
    is_primary_ideal,
    is_primary_submodule,
    is_prime_ideal,
    is_prime_submodule,
    is_weakly_prime_ideal,
    is_weakly_prime_module,
    is_weakly_prime_submodule_af,
    is_weakly_prime_submodule_azizi,
    is_weakly_prime_submodule_behboodi,
    weakly_prime_submodule,
)
from bowtie.modules import (
    Submodule,
    enumerate_submodules,
    ring_as_module,
    whole_submodule,
    zero_submodule,
)
from bowtie.rings import Ideal, enumerate_ideals, make_zn

from families import duplications, family_modules
from oracles import (
    brute_primary_ideal,
    brute_primary_submodule,
    brute_prime_ideal,
    brute_prime_submodule,
    brute_weakly_prime_af,
    violates_primary_ideal,
    violates_primary_submodule,
    violates_prime_ideal,
    violates_prime_submodule,
    violates_weakly_prime_ideal,
    violates_weakly_prime_submodule_af,
    violates_weakly_prime_submodule_azizi,
)


def test_improper_inputs_rejected():
    ring = make_zn(6)
    m = ring_as_module(ring)
    with pytest.raises(ImproperError):
        is_prime_ideal(Ideal(ring, range(6)))
    with pytest.raises(ImproperError):
        is_prime_submodule(whole_submodule(m))
    with pytest.raises(ImproperError):
        is_weakly_prime_module(ring_as_module(make_zn(1)))


def test_prime_ideal_z6():
    ring = make_zn(6)
    assert is_prime_ideal(Ideal(ring, [0, 2, 4])).holds
    assert is_prime_ideal(Ideal(ring, [0, 3])).holds
    v = is_prime_ideal(Ideal(ring, [0]))
    assert not v.holds
    assert v.witness == (2, 3)  # lexicographically first violation


def test_weakly_prime_ideal_zero_always():
    # the zero ideal is weakly prime by vacuity of the 0 != ab guard
    for n in (4, 6, 8, 9, 12):
        ring = make_zn(n)
        assert is_weakly_prime_ideal(Ideal(ring, [0])).holds


def test_primary_ideal_z12():
    ring = make_zn(12)
    assert is_primary_ideal(Ideal(ring, [0, 4, 8])).holds
    assert not is_primary_ideal(Ideal(ring, [0, 6])).holds


def test_prime_submodule_z6_zero():
    m = ring_as_module(make_zn(6))
    v = is_prime_submodule(zero_submodule(m))
    assert not v.holds
    assert v.witness == (2, 3)
    assert violates_prime_submodule(zero_submodule(m), 2, 3)


def test_af_weakly_prime_zero_submodule_vacuous():
    for n in (4, 6, 9, 12):
        m = ring_as_module(make_zn(n))
        assert is_weakly_prime_submodule_af(zero_submodule(m)).holds


def test_azizi_z6_zero_fails():
    m = ring_as_module(make_zn(6))
    v = is_weakly_prime_submodule_azizi(zero_submodule(m))
    assert not v.holds
    a, b, t = v.witness
    assert violates_weakly_prime_submodule_azizi(
        zero_submodule(m), a, b, enumerate_submodules(m)[t]
    )


def test_behboodi_equals_quotient_module_condition():
    m = ring_as_module(make_zn(12))
    for n in enumerate_submodules(m):
        if not n.is_proper:
            continue
        got = is_weakly_prime_submodule_behboodi(n)
        # independent restatement: Ann(S) prime for every nonzero
        # submodule S of M/N
        from bowtie.modules import annihilator, quotient_module

        q, _ = quotient_module(m, n)
        expected = all(
            is_prime_ideal(annihilator(s)).holds
            for s in enumerate_submodules(q)
            if len(s) > 1
        )
        assert got.holds == expected


def test_variant_dispatcher():
    m = ring_as_module(make_zn(6))
    n = zero_submodule(m)
    assert weakly_prime_submodule(n, "af").holds
    assert not weakly_prime_submodule(n, "azizi").holds
    assert not weakly_prime_submodule(n, "behboodi").holds
    with pytest.raises(ValueError):
        weakly_prime_submodule(n, "nope")


def test_irreducible_z6_zero():
    m = ring_as_module(make_zn(6))
    v = is_irreducible_submodule(zero_submodule(m))
    assert not v.holds
    # the two proper overlapping supersets intersect back to {0}
    assert "{0,3}" in v.witness_text and "{0,2,4}" in v.witness_text


def test_irreducible_prime_power():
    m = ring_as_module(make_zn(16))
    assert is_irreducible_submodule(Submodule(m, [0, 8])).holds


# ------------------------------------------------- oracle battery


def _all_proper_ideals(n):
    ring = make_zn(n)
    return [j for j in enumerate_ideals(ring) if j.is_proper]


@pytest.mark.parametrize("n", range(2, 17))
def test_prime_ideal_matches_oracle(n):
    for j in _all_proper_ideals(n):
        assert is_prime_ideal(j).holds == brute_prime_ideal(j.ring, set(j.members))


@pytest.mark.parametrize("n", range(2, 17))
def test_primary_ideal_matches_oracle(n):
    for j in _all_proper_ideals(n):
        assert is_primary_ideal(j).holds == brute_primary_ideal(j.ring, set(j.members))


@pytest.mark.parametrize("n", range(2, 17))
def test_submodule_predicates_match_oracle(n):
    m = ring_as_module(make_zn(n))
    for sub in enumerate_submodules(m):
        if not sub.is_proper:
            continue
        assert is_prime_submodule(sub).holds == brute_prime_submodule(sub)
        assert is_primary_submodule(sub).holds == brute_primary_submodule(sub)
        assert is_weakly_prime_submodule_af(sub).holds == brute_weakly_prime_af(sub)


# ----------------------------------------- implications and replays


@st.composite
def any_proper_submodule(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    m = ring_as_module(make_zn(n))
    subs = [s for s in enumerate_submodules(m) if s.is_proper]
    return draw(st.sampled_from(subs))


@given(any_proper_submodule())
def test_witnesses_replay(sub):
    checks = [
        (is_prime_submodule, violates_prime_submodule),
        (is_weakly_prime_submodule_af, violates_weakly_prime_submodule_af),
        (is_primary_submodule, violates_primary_submodule),
    ]
    for pred, replay in checks:
        v = pred(sub)
        if not v.holds:
            assert replay(sub, *v.witness)
        assert v.holds == (v.witness is None)


@given(any_proper_submodule())
def test_ideal_witnesses_replay(sub):
    from bowtie.modules import colon_into_ring, whole_submodule

    col = colon_into_ring(sub, whole_submodule(sub.module))
    checks = [
        (is_prime_ideal, violates_prime_ideal),
        (is_weakly_prime_ideal, violates_weakly_prime_ideal),
        (is_primary_ideal, violates_primary_ideal),
    ]
    for pred, replay in checks:
        v = pred(col)
        if not v.holds:
            assert replay(col, *v.witness)


@given(any_proper_submodule())
def test_implication_chain(sub):
    subs = enumerate_submodules(sub.module)
    prime = is_prime_submodule(sub).holds
    primary = is_primary_submodule(sub).holds
    af = is_weakly_prime_submodule_af(sub).holds
    azizi = is_weakly_prime_submodule_azizi(sub, subs).holds
    behboodi = is_weakly_prime_submodule_behboodi(sub).holds
    if prime:
        assert primary and af and azizi and behboodi
    if azizi:
        assert af  # the azizi condition at T = M forces the af condition


def test_classify_dicts_have_all_keys(z6):
    n = zero_submodule(z6.inst.base_module)
    d = classify_submodule(n)
    assert set(d) == {
        "prime", "weakly_prime_af", "weakly_prime_azizi",
        "weakly_prime_behboodi", "primary", "irreducible",
    }
    from bowtie.modules import colon_into_ring, whole_submodule

    di = classify_ideal(colon_into_ring(n, whole_submodule(z6.inst.base_module)))
    assert set(di) == {"prime", "weakly_prime", "primary"}


def _prime_azizi_behboodi_agree(module) -> int:
    """prime, Azizi and Behboodi give the same verdict on every proper N."""
    subs = enumerate_submodules(module)
    for n in subs:
        if n.is_proper:
            prime = is_prime_submodule(n).holds
            assert is_weakly_prime_submodule_azizi(n, subs).holds == prime, n
            assert is_weakly_prime_submodule_behboodi(n, subs).holds == prime, n
    return sum(n.is_proper for n in subs)


@pytest.mark.parametrize("family,cap", [("zn", 256), ("families", 256)])
def test_azizi_and_behboodi_are_prime_on_finite_rings(family, cap):
    # In a finite commutative ring every prime ideal is maximal, so both
    # notions reduce to prime: each (N : x), x outside N, is a prime ideal
    # containing the maximal ideal (N : M), hence equal to it.
    # Behboodi reads the submodules of M/N off the lattice of M, which
    # both readings share, so the families run up to 256 elements as Z_n
    # does (6541 proper submodules, about 5 s).
    bases = ([ring_as_module(make_zn(n)) for n in range(1, 17)]
             if family == "zn" else family_modules())
    checked = 0
    for module in bases:
        for inst in duplications(module, cap):
            checked += _prime_azizi_behboodi_agree(inst.base_module)
            checked += _prime_azizi_behboodi_agree(inst.bowtie_module)
    assert checked == {"zn": 540, "families": 6541}[family]
