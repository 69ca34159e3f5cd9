"""The submodule lattice against its references.

``enumerate_submodules`` joins each distinct cyclic submodule onto the
lattice found so far, as ORs of coset masks. It has two passes: below
``modules.WIDE`` nodes found it joins pair by pair, from there on it joins
a cyclic onto every node in one gather, since per-pair Python wins on
small lattices and numpy's fixed cost is repaid only on wide ones. Both
passes are run on their own by setting WIDE to 1 (wide from the first
node) and beyond any lattice (never wide): on the Z_n and family
duplications and on F_p^k they must list the same lattice, and raise
LatticeLimitError at a limit of |Lat| - 1 and not at |Lat|.
``oracles.join_submodules`` joins cyclics as pointwise frozenset sums and
``oracles.brute_submodules`` filters the powerset; the lists must be
identical, in identical order.
The lattices of F_p^k over F_p must have the sizes the Gaussian binomials
give, and relabelling a carrier, with zero moved off index 0, must not
change what is enumerated. Every Instance enumerates its base module and
M><I at most once, and the Behboodi checkers read those two lattices
instead of building quotients. The lattice command's covering edges,
read off masks of the nodes above each node, must equal the pairwise
frozenset search (``oracles.hasse_edges``), edge for edge and in order.
"""

import random
import sys

import pytest

from bowtie import modules, theorems
from bowtie.classify import VARIANTS
from bowtie.duplication import build_bowtie
from bowtie.cli import _hasse_edges, main
from bowtie.instances import SEEDS
from bowtie.modules import (
    LatticeLimitError, TableModule, enumerate_submodules, is_cyclic, ring_as_module,
    validate_module,
)
from bowtie.rings import enumerate_ideals, make_zn, mask_of
from bowtie.theorems import CorpusSpec, hunt

import oracles
from families import direct_sum, duplications, family_modules, relabel


def _members(module):
    return [s.members for s in enumerate_submodules(module)]


def _by_both_passes(module, monkeypatch):
    """The lattice's members as the narrow pass lists it, after checking
    that the wide pass lists the same, and that each pass raises
    LatticeLimitError at a limit of |Lat| - 1 and not at |Lat|.
    """
    lists = []
    for wide in (10**9, 1):
        with monkeypatch.context() as patch:
            patch.setattr(modules, "WIDE", wide)
            members = _members(module)
            count = len(members)
            assert [s.members for s in enumerate_submodules(module, count)] == members
            with pytest.raises(LatticeLimitError, match=f"^more than {count - 1} submodules$"):
                enumerate_submodules(module, count - 1)
            lists.append(members)
    assert lists[0] == lists[1], module.name
    return lists[0]


@pytest.mark.parametrize("n", range(1, 25))
def test_zn_duplication_lattices_match_the_join_oracle(n, monkeypatch):
    ring = make_zn(n)
    module = ring_as_module(ring)
    assert _members(module) == oracles.join_submodules(module)
    for ideal in enumerate_ideals(ring):
        dup = build_bowtie(ring, ideal, module).bowtie_module
        oracle = oracles.join_submodules(dup)
        assert _members(dup) == oracle
        assert _by_both_passes(dup, monkeypatch) == oracle


@pytest.mark.parametrize("module", family_modules(), ids=lambda m: m.name)
def test_family_duplication_lattices_match_the_join_oracle(module, monkeypatch):
    oracle = oracles.join_submodules(module)
    assert _members(module) == oracle
    assert _by_both_passes(module, monkeypatch) == oracle
    for inst in duplications(module):
        dup = inst.bowtie_module
        oracle = oracles.join_submodules(dup)
        assert _members(dup) == oracle
        assert _by_both_passes(dup, monkeypatch) == oracle


# the family modules of at most 16 elements, and Z2 + Z2 over Z2: Z2xZ2 and
# Z2xZ4 on themselves, and A/J and A + A/J over Z4, Z8, Z2xZ2 and Z2xZ4
SMALL = [m for m in family_modules() if m.size <= 16] + [
    direct_sum(ring_as_module(make_zn(2)), ring_as_module(make_zn(2)))
]


def test_small_modules_include_non_cyclic_ones():
    assert sum(not is_cyclic(m).holds for m in SMALL) >= 5


@pytest.mark.parametrize("module", SMALL, ids=lambda m: m.name)
def test_small_lattices_match_the_powerset(module):
    brute = [tuple(sorted(s)) for s in oracles.brute_submodules(module)]
    assert _members(module) == brute


def _gaussian_binomial(k: int, j: int, q: int) -> int:
    """The number of j-dimensional subspaces of F_q^k."""
    num = den = 1
    for i in range(j):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _power(p: int, k: int) -> TableModule:
    """F_p^k over F_p, as k-fold direct sums of Z_p."""
    base = module = ring_as_module(make_zn(p))
    for _ in range(k - 1):
        module = direct_sum(module, base)
    return module


# the lattice sizes are the sums of the Gaussian binomials [k, j]_p over j
SPACES = [(2, k, n) for k, n in enumerate((2, 5, 16, 67, 374, 2825), 1)] + [
    (3, k, n) for k, n in enumerate((2, 6, 28, 212), 1)
]


@pytest.mark.parametrize("p,k,count", SPACES)
def test_vector_space_lattices_have_the_gaussian_binomial_sizes(p, k, count, monkeypatch):
    assert sum(_gaussian_binomial(k, j, p) for j in range(k + 1)) == count
    module = _power(p, k)
    subs = enumerate_submodules(module)
    keys = [(len(s), s.members) for s in subs]
    assert len(subs) == count
    assert keys == sorted(set(keys))  # (size, members) order, no repeats
    assert all(s.mask.bit_count() == len(s) and s.mask == mask_of(s.members) for s in subs)
    assert _by_both_passes(module, monkeypatch) == [s.members for s in subs]
    if module.size <= 32:
        assert [s.members for s in subs] == oracles.join_submodules(module)


def _shuffled(size: int, seed: int) -> list[int]:
    perm = list(range(size))
    random.Random(seed).shuffle(perm)
    return perm


FAMILY = {m.name: m for m in SMALL}
RELABELLED = [
    # Z6 reversed: zero goes to 5
    (ring_as_module(make_zn(6)), list(range(5, -1, -1))),
    # Z2 + Z2, not cyclic, rotated: zero goes to 1
    (FAMILY["Z2-reg+Z2-reg"], [1, 2, 3, 0]),
    # A + A/J, not cyclic, shuffled
    (FAMILY["Z4-reg+Z4/{0,2}"], _shuffled(8, 1)),
    (FAMILY["(Z2xZ4)-reg+(Z2xZ4)/{(0,0),(0,1),(0,2),(0,3)}"], _shuffled(16, 2)),
    (FAMILY["(Z3xZ4)-reg"], _shuffled(12, 3)),
]


@pytest.mark.parametrize("module,perm", RELABELLED, ids=[m.name for m, _perm in RELABELLED])
def test_relabelled_lattices_match_the_powerset(module, perm):
    relabelled = relabel(module, perm)
    validate_module(relabelled)
    assert relabelled.zero != 0
    brute = [tuple(sorted(s)) for s in oracles.brute_submodules(relabelled)]
    assert _members(relabelled) == brute
    renamed = {frozenset(perm[x] for x in s) for s in _members(module)}
    assert {frozenset(s) for s in brute} == renamed


def test_relabelled_cases_include_non_cyclic_modules():
    assert sum(not is_cyclic(m).holds for m, _perm in RELABELLED) >= 3


def _count_enumerations(monkeypatch):
    """Record every enumerated module and every Instance's duplication."""
    enumerated, built = [], []
    real_enumerate = enumerate_submodules
    real_build = theorems.build_bowtie

    def counting(module, *limit):
        enumerated.append(module)  # kept alive, so ids are not reused
        return real_enumerate(module, *limit)

    def recording(*args):
        inst = real_build(*args)
        built.append(inst)
        return inst

    for name, namespace in list(sys.modules.items()):
        bound = getattr(namespace, "enumerate_submodules", None)
        if name.split(".")[0] == "bowtie" and bound is real_enumerate:
            monkeypatch.setattr(namespace, "enumerate_submodules", counting)
    monkeypatch.setattr(theorems, "build_bowtie", recording)
    return enumerated, built


def _assert_once_per_instance(enumerated, built):
    counts: dict[int, int] = {}
    for module in enumerated:
        counts[id(module)] = counts.get(id(module), 0) + 1
    assert built
    for inst in built:
        for module in (inst.base_module, inst.bowtie_module):
            assert counts.get(id(module), 0) <= 1, module


def test_hunt_enumerates_each_instance_lattice_once(monkeypatch):
    enumerated, built = _count_enumerations(monkeypatch)
    hunt(CorpusSpec(max_n=8))
    _assert_once_per_instance(enumerated, built)


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_verify_enumerates_each_instance_lattice_once(seed, monkeypatch, capsys):
    enumerated, built = _count_enumerations(monkeypatch)
    main(["verify", "--seed-corpus", seed])
    capsys.readouterr()
    _assert_once_per_instance(enumerated, built)


def test_behboodi_checkers_read_only_the_two_instance_lattices(monkeypatch):
    enumerated, built = _count_enumerations(monkeypatch)
    quotients = []
    real_quotient = modules.quotient_module

    def recording(*args):
        quotients.append(args)
        return real_quotient(*args)

    for name, namespace in list(sys.modules.items()):
        if (name.split(".")[0] == "bowtie"
                and getattr(namespace, "quotient_module", None) is real_quotient):
            monkeypatch.setattr(namespace, "quotient_module", recording)
    hunt(CorpusSpec(max_n=8), theorems=["L3i", "T_FINAL", "DIVERGENCE"], variants=VARIANTS)
    assert not quotients
    # M and M><I once each; M><I is left alone only when M = 0, which has
    # no proper N and no nonzero submodule to ask about
    expected = [m for inst in built for m in (inst.base_module, inst.bowtie_module)
                if m is inst.base_module or inst.base_module.size > 1]
    assert len(built) == 20
    assert sorted(map(id, enumerated)) == sorted(map(id, expected))


def _hasse_cases():
    for n in range(1, 13):
        ring = make_zn(n)
        for ideal in enumerate_ideals(ring):
            yield build_bowtie(ring, ideal, ring_as_module(ring)).bowtie_module
    for module in family_modules():
        yield module
        for inst in duplications(module, cap=64):
            yield inst.bowtie_module
    for k in range(1, 6):
        yield _power(2, k)


def test_hasse_edges_match_the_pairwise_search():
    cases = 0
    for module in _hasse_cases():
        subs = enumerate_submodules(module)
        assert _hasse_edges(subs) == oracles.hasse_edges(subs), module.name
        cases += 1
    assert cases > 100
