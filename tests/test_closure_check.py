"""Ideal and Submodule check their members against the reference loop.

Subset._check tests closure with whole-array gathers; it must raise the
message of the first violation that ``oracles.closure_violation``, the
loop over tuple rows it replaced, finds, or raise nothing when that finds
none.
"""

import random

import pytest

import oracles
from bowtie.modules import Submodule, ring_as_module
from bowtie.rings import Ideal, make_zn

from families import family_modules, relabel


def _raised(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def _assert_ideal_agrees(ring, members) -> None:
    expected = oracles.closure_violation("ideal", ring, members, ring.mul, ring.labels,
                                         "absorbing")
    assert _raised(lambda: Ideal(ring, members)) == expected, (ring, members)


def _assert_submodule_agrees(module, members) -> None:
    expected = oracles.closure_violation("submodule", module, members, module.act,
                                         module.ring.labels, "action-closed")
    assert _raised(lambda: Submodule(module, members)) == expected, (module, members)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_subset_of_zn(n):
    ring = make_zn(n)
    regular = ring_as_module(ring)
    closed = 0
    for mask in range(1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        _assert_ideal_agrees(ring, members)
        _assert_submodule_agrees(regular, members)
        closed += _raised(lambda: Ideal(ring, members)) is None
    assert closed == len(oracles.brute_ideals(ring))


def _random_subsets(module, rng: random.Random, count: int):
    for _ in range(count):
        members = [x for x in range(module.size) if rng.random() < rng.random()]
        if rng.random() < 0.8:
            members.append(module.zero)
        yield members


def test_random_subsets_of_the_family_modules():
    rng = random.Random(20261018)
    messages = set()
    for module in family_modules():
        for members in _random_subsets(module, rng, 60):
            _assert_submodule_agrees(module, members)
            messages.add(str(_raised(lambda: Submodule(module, members))).split(" at ")[0])
        for n in oracles.brute_submodules(module) if module.size <= 16 else ():
            _assert_submodule_agrees(module, n)
    assert messages >= {"None", "submodule must contain zero", "not add-closed",
                        "not action-closed"}


def test_random_subsets_of_a_relabelled_module():
    module = relabel(next(m for m in family_modules() if m.name == "Z4-reg+Z4/{0,2}"),
                     [5, 2, 7, 0, 3, 6, 1, 4])
    assert module.zero != 0
    rng = random.Random(7)
    for members in _random_subsets(module, rng, 400):
        _assert_submodule_agrees(module, members)
    for n in oracles.brute_submodules(module):
        _assert_submodule_agrees(module, n)
