"""Acceptance gate: ten numbered criteria, one test (or test group) each.

Each criterion is implemented exactly as stated. Where a stated value
disagrees with what exhaustive computation returns, the assertion keeps
the stated value and the test stays red; the computed facts live in the
neighbouring sub-tests that do pass. The terminal summary (see conftest)
prints one PASS/FAIL line per criterion number.
"""

import time

from bowtie.classify import (
    is_prime_submodule,
    is_primary_ideal,
    is_primary_submodule,
    is_weakly_prime_ideal,
    is_weakly_prime_submodule_af,
)
from bowtie.cli import main
from bowtie.duplication import build_bowtie
from bowtie.modules import (
    enumerate_submodules,
    ring_as_module,
    submodule_generated,
    zero_submodule,
)
from bowtie.rings import enumerate_ideals, ideal_generated, make_zn
from bowtie.theorems import (
    CorpusSpec,
    hunt,
    run_checker,
    summarize,
)

from oracles import (
    brute_primary_ideal,
    brute_primary_submodule,
    brute_submodules,
    violates_prime_submodule,
    violates_weakly_prime_submodule_af,
)

TRANSFER_CHECKERS = ("L2", "C_WP", "P_PRIMARY")  # prime, weakly prime (af), primary


def _ring_index(ctx, label: str) -> int:
    return ctx.inst.bowtie_ring.labels.index(label)


def _module_index(ctx, label: str) -> int:
    return ctx.inst.bowtie_module.labels.index(label)


def _modulus(key: str) -> int:
    return int(key.split("|", 1)[0][1:])


def _ideal_size(key: str) -> int:
    inside = key.split("|I=", 1)[1].split("|", 1)[0]
    return len(inside[1:-1].split(","))


# criterion 1: the Z_6 zero-submodule replay ---------------------------------


def test_c01a_zero_cross_ideal_is_not_prime(z6):
    t0 = time.monotonic()
    nb = z6.bowtie(zero_submodule(z6.inst.base_module))
    verdict = z6.prime(nb)
    assert time.monotonic() - t0 < 1.0
    assert verdict.holds is False


def test_c01b_stated_witness_replays(z6):
    # the pair ((3,3),(4,1)) is a genuine prime violation: the product
    # (0,3) lands in 0><I nonzero, (4,1) is outside, (3,3)*M is not inside
    nb = z6.bowtie(zero_submodule(z6.inst.base_module))
    a = _ring_index(z6, "(3,3)")
    x = _module_index(z6, "(4,1)")
    mod = z6.inst.bowtie_module
    ax = mod.act[a][x]
    assert mod.labels[ax] == "(0,3)"
    assert ax in set(nb.members) and ax != mod.zero
    assert violates_prime_submodule(nb, a, x)
    # nonzero product makes it an AF violation as well
    assert violates_weakly_prime_submodule_af(nb, a, x)


def test_c01c_zero_cross_ideal_claimed_af_weakly_prime(z6):
    # stated value: true; the exhaustive scan returns false, witnessed by
    # (2,5)*(3,3) = (0,3), a nonzero product inside 0><I (c01b shows the
    # claimed witness pair itself violates the AF condition too)
    nb = z6.bowtie(zero_submodule(z6.inst.base_module))
    assert is_weakly_prime_submodule_af(nb).holds is True


def test_c01d_claimed_canonical_witness(z6):
    # stated canonical witness: scalar (3,3), element (4,1); the scan in
    # index order finds ((2,2),(3,0)) first
    nb = z6.bowtie(zero_submodule(z6.inst.base_module))
    verdict = z6.prime(nb)
    assert verdict.holds is False
    a, x = verdict.witness
    labels = (z6.inst.bowtie_ring.labels[a], z6.inst.bowtie_module.labels[x])
    assert labels == ("(3,3)", "(4,1)")


# criterion 2: the colon-ideal replay ----------------------------------------


def test_c02_colon_ideal_not_weakly_prime(z6):
    t0 = time.monotonic()
    nb = z6.bowtie(zero_submodule(z6.inst.base_module))
    colon = z6.colon(nb)
    verdict = is_weakly_prime_ideal(colon)
    assert time.monotonic() - t0 < 1.0
    assert colon.label_set() == "{(0,0),(0,3)}"
    assert verdict.holds is False
    a, b = verdict.witness
    ring = z6.inst.bowtie_ring
    assert (ring.labels[a], ring.labels[b]) == ("(2,5)", "(3,3)")
    assert ring.labels[ring.mul[a][b]] == "(0,3)"


# criterion 3: colon identity sweep ------------------------------------------


def test_c03_colon_identity_sweep_n_le_12():
    t0 = time.monotonic()
    reports = hunt(CorpusSpec(max_n=12), ("L1",), ("af",), ("bowtie",),
                   workers=1, budget=256)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert len(reports) == 123  # sum over n<=12 of d(n)^2
    assert all(r.outcome == "pass" for r in reports)


# criterion 4: transfer sweep plus the three seeded instances ----------------


def test_c04a_prime_instance_transfers(z12):
    n = submodule_generated(z12.inst.base_module, [3])
    for theorem in TRANSFER_CHECKERS:
        rep = run_checker(z12, theorem, n)
        assert rep.outcome == "pass", theorem
    assert run_checker(z12, "L2", n).detail == "base=True duplicate=True"


def test_c04b_primary_instance_transfers(z20):
    n = submodule_generated(z20.inst.base_module, [5])
    for theorem in TRANSFER_CHECKERS:
        assert run_checker(z20, theorem, n).outcome == "pass", theorem
    assert is_primary_submodule(n).holds


def test_c04c_transfer_sweep_claimed_clean(z6):
    # stated: zero failures for all three notions over n <= 12; prime and
    # primary do transfer cleanly, but the AF weakly-prime notion does not
    # (first break: Z_4 with I the whole ring), so this stays red
    t0 = time.monotonic()
    reports = hunt(CorpusSpec(max_n=12), ("L2", "C_WP", "P_PRIMARY"),
                   ("af",), ("bowtie",), workers=1, budget=256)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    failures = [r for r in reports if r.outcome == "fail"]
    assert failures == []


def test_c04d_primary_not_prime_instance(z16):
    n = submodule_generated(z16.inst.base_module, [8])
    for theorem in TRANSFER_CHECKERS:
        assert run_checker(z16, theorem, n).outcome == "pass", theorem
    nb = z16.bowtie(n)
    assert is_primary_submodule(nb).holds is True
    assert is_prime_submodule(nb).holds is False
    # replayable analog of the base violation 2*4 = 8: scalar (2,6),
    # element (4,8), product (8,0) inside N><I
    a = _ring_index(z16, "(2,6)")
    x = _module_index(z16, "(4,8)")
    mod = z16.inst.bowtie_module
    assert mod.labels[mod.act[a][x]] == "(8,0)"
    assert violates_prime_submodule(nb, a, x)


# criterion 5: the two quotient isomorphisms ---------------------------------


def test_c05_quotient_isomorphisms_across_corpus():
    reports = hunt(CorpusSpec(max_n=20), ("L8",), ("af",), ("bowtie",),
                   workers=1, budget=256)
    skipped = [r for r in reports if r.outcome == "skip"]
    checked = [r for r in reports if r.outcome != "skip"]
    # exactly the improper-ideal duplications of Z_17..Z_20 blow the cap
    assert sorted(_modulus(r.instance_key) for r in skipped) == [17, 18, 19, 20]
    assert checked and all(r.outcome == "pass" for r in checked)
    for r in checked:
        n = _modulus(r.instance_key)
        assert r.detail == f"quotient sizes {n} and {n // _ideal_size(r.instance_key)}"


# criterion 6: weakly-prime module characterization sweep --------------------


def test_c06_final_theorem_sweep_n_le_10():
    t0 = time.monotonic()
    reports = hunt(CorpusSpec(max_n=10), ("T_FINAL",), ("af",), ("bowtie",),
                   workers=1, budget=256)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    outcomes = [r.outcome for r in reports]
    assert outcomes.count("fail") == 0
    assert outcomes.count("pass") == 26
    assert outcomes.count("na") == 1  # the one-element module over Z_1


# criterion 7: smallest AF/Behboodi divergence -------------------------------


def test_c07_first_definitional_divergence_at_4():
    reports = hunt(CorpusSpec(max_n=6), ("DIVERGENCE",), ("af",), ("bowtie",),
                   workers=1, budget=256)
    failures = [r for r in reports if r.outcome == "fail"]
    assert failures
    assert min(_modulus(r.instance_key) for r in failures) == 4
    assert "first divergence: Z4" in summarize(reports)
    assert "af=True behboodi=False" in failures[0].detail


# criterion 8: variant sensitivity of the colon characterization -------------


def test_c08a_af_variant_claimed_counterexample(z6):
    # stated: under the AF variant the checker reports a failure on this
    # instance; computed: both sides of the biconditional are false (0><I
    # is not AF-weakly-prime), so the check passes and this stays red
    zero = zero_submodule(z6.inst.base_module)
    row = run_checker(z6, "L3i", zero, "af", "bowtie")
    assert row.outcome == "fail"
    assert row.detail != ""


def test_c08b_azizi_variant_not_a_counterexample(z6):
    zero = zero_submodule(z6.inst.base_module)
    row = run_checker(z6, "L3i", zero, "azizi", "bowtie")
    assert row.outcome == "pass"
    nb = z6.bowtie(zero)
    assert z6.weakly_prime(nb, "azizi").holds is False


# criterion 9: oracle equivalences up to 16 elements -------------------------


def test_c09_oracle_equivalences():
    modules = [ring_as_module(make_zn(n)) for n in range(1, 17)]
    # two duplication modules inside the size bound: 12 and 16 elements
    z6 = make_zn(6)
    modules.append(build_bowtie(z6, ideal_generated(z6, [3]),
                                ring_as_module(z6)).bowtie_module)
    z4 = make_zn(4)
    modules.append(build_bowtie(z4, ideal_generated(z4, [1]),
                                ring_as_module(z4)).bowtie_module)
    for mod in modules:
        subs = enumerate_submodules(mod)
        assert [set(s.members) for s in subs] == [set(s) for s in
                                                brute_submodules(mod)]
        for s in subs:
            if s.is_proper:
                assert is_primary_submodule(s).holds == brute_primary_submodule(s)
    for n in range(1, 17):
        ring = make_zn(n)
        for j in enumerate_ideals(ring):
            if j.is_proper:
                assert is_primary_ideal(j).holds == brute_primary_ideal(
                    ring, frozenset(j.members))


# criterion 10: determinism of the hunter ------------------------------------


def test_c10_hunt_reports_are_worker_count_invariant(tmp_path):
    one = tmp_path / "w1.tsv"
    four = tmp_path / "w4.tsv"
    assert main(["hunt", "--max", "6", "--out", str(one), "--workers", "1"]) == 0
    assert main(["hunt", "--max", "6", "--out", str(four), "--workers", "4"]) == 0
    assert one.read_bytes() == four.read_bytes()
    assert one.read_bytes().startswith(b"# hunt family=zn max=6")
