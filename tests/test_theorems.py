import concurrent.futures
import gc
import hashlib
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bowtie import theorems
from bowtie.classify import VARIANTS
from bowtie.duplication import predicted_sizes
from bowtie.modules import (
    LatticeLimitError,
    Submodule,
    enumerate_submodules,
    is_cyclic,
    ring_as_module,
    whole_submodule,
    zero_submodule,
)
from bowtie.rings import Ideal, enumerate_ideals, lowest_bit, make_zn
from bowtie.theorems import (
    READINGS,
    THEOREM_IDS,
    CorpusSpec,
    Instance,
    TheoremReport,
    hunt,
    instance_rows,
    make_zn_instance,
    normalize_theorems,
    run_checker,
    serialize_reports,
    summarize,
)

from constructions import is_faithful
from families import family_modules, swept_theorems

ALL_VARIANTS = ("af", "azizi", "behboodi")
BOTH_READINGS = ("bowtie", "all-submodules")

# SHA-256 of the serialized rows of every checker, variant and reading on
# each family module M and ideal I with |A><I|, |M><I| <= 256: 176
# instances and 41965 rows, none of them over a regular Z_n module
FAMILY_REPORT_SHA256 = "7be0eba972a974b9d59f49a3df20244fe4b5ded40953a4bc9abd3c42f41b0b0d"


def test_report_line_has_six_columns(z6):
    n = zero_submodule(z6.inst.base_module)
    row = run_checker(z6, "L1", n)
    cols = row.line().split("\t")
    assert len(cols) == 6
    assert cols[1] == "L1" and cols[4] == "pass"


def test_L1_z6_zero(z6):
    n = zero_submodule(z6.inst.base_module)
    row = run_checker(z6, "L1", n)
    assert row.outcome == "pass"
    assert "{(0,0),(0,3)}" in row.detail


def test_L1_accepts_improper_n(z6):
    whole = z6.base_submodules[-1]
    assert not whole.is_proper
    assert run_checker(z6, "L1", whole).outcome == "pass"


def test_transfer_prime_holds_z12(z12):
    n = Submodule(z12.inst.base_module, [0, 3, 6, 9])
    row = run_checker(z12, "L2", n)
    assert row.outcome == "pass"
    assert row.detail == "base=True duplicate=True"


def test_transfer_weakly_prime_fails_z6_zero(z6):
    n = zero_submodule(z6.inst.base_module)
    row = run_checker(z6, "C_WP", n)
    assert row.outcome == "fail"
    assert "base to duplicate" in row.detail
    assert "(2,5)" in row.detail and "(3,3)" in row.detail


def test_transfer_primary_z16(z16):
    n = Submodule(z16.inst.base_module, [0, 8])
    row = run_checker(z16, "P_PRIMARY", n)
    assert row.outcome == "pass"
    assert row.detail == "base=True duplicate=True"


def test_L3i_passes_on_z6_for_all_variants(z6):
    # both sides of the biconditional are false here, so every variant
    # and reading agrees
    n = zero_submodule(z6.inst.base_module)
    for variant in ALL_VARIANTS:
        for reading in BOTH_READINGS:
            row = run_checker(z6, "L3i", n, variant, reading)
            assert row.outcome == "pass", (variant, reading)
            assert "weakly_prime=False all-colons-prime=False" in row.detail


def test_L3i_af_fails_on_diagonal_duplication():
    # I = 0 makes N join I = {0} vacuously af-weakly-prime while the
    # colon into the diagonal copy of the module is not prime
    ctx = make_zn_instance(4, [0])
    n = zero_submodule(ctx.inst.base_module)
    row = run_checker(ctx, "L3i", n, "af", "bowtie")
    assert row.outcome == "fail"
    assert "statement gap (forward)" in row.detail
    row_az = run_checker(ctx, "L3i", n, "azizi", "bowtie")
    assert row_az.outcome == "pass"


def test_T4_direction_reporting():
    ctx = make_zn_instance(6, [0])
    n = zero_submodule(ctx.inst.base_module)
    row = run_checker(ctx, "T4", n, "af")
    assert row.outcome == "fail"
    assert "statement gap (forward)" in row.detail
    assert run_checker(ctx, "T4", n, "azizi").outcome == "pass"


def test_L8_quotient_sizes(z6):
    row = run_checker(z6, "L8", None)
    assert row.outcome == "pass"
    assert row.detail == "quotient sizes 6 and 3"


def test_L8_across_small_corpus():
    for n in range(1, 9):
        from bowtie.rings import enumerate_ideals, lowest_bit, make_zn

        for ideal in enumerate_ideals(make_zn(n)):
            ctx = make_zn_instance(n, ideal.members)
            row = run_checker(ctx, "L8", None)
            assert row.outcome == "pass", (n, ideal.members)
            assert row.detail == f"quotient sizes {n} and {n // len(ctx.inst.im)}"


def test_L8_fails_on_swapped_kernels(monkeypatch):
    # Z4 with I = {0,2} has IM = I, so 0 x IM and IM x IM differ; L8 reads
    # each off the pairs with theorems.pairs_in, here handed the other's mask
    ctx = make_zn_instance(4, [0, 2])
    zero, im = 1 << ctx.inst.base_module.zero, ctx.inst.im.mask
    real = theorems.pairs_in
    monkeypatch.setattr(theorems, "pairs_in", lambda pairs, component, mask, size: real(
        pairs, component, {zero: im, im: zero}[mask], size))
    row = run_checker(ctx, "L8", None)
    assert row.outcome == "fail"
    problems = row.detail.split("; ")
    assert "kernel of the first projection is not 0 x IM" in problems
    assert "kernel of the coset projection is not IM x IM" in problems
    assert "induced map M><I / (0 x IM) -> M is not bijective" in problems


def _swap_one_and_two(f, target):  # a bijection of the target fixing 0, not additive
    perm = np.arange(target.size)
    perm[[1, 2]] = [2, 1]
    return perm.take(f)


def _double(f, target):  # x -> 2x, a module map onto 2T, which is not T
    return target.add[f, f]


@pytest.mark.parametrize("which,mutate,detail", [
    ("first projection", _swap_one_and_two,
     "first projection is not a module map;"
     " induced map M><I / (0 x IM) -> M is not bijective"),
    ("first projection", _double,
     "first projection is not surjective; kernel of the first projection is not 0 x IM;"
     " induced map M><I / (0 x IM) -> M is not bijective"),
    ("coset projection", _swap_one_and_two,
     "coset projection is not a module map;"
     " induced map M><I / (IM x IM) -> M/IM is not bijective"),
    ("coset projection", _double,
     "coset projection is not surjective; kernel of the coset projection is not IM x IM;"
     " induced map M><I / (IM x IM) -> M/IM is not bijective"),
], ids=["first-swap", "first-double", "coset-swap", "coset-double"])
def test_L8_fails_on_a_broken_projection(which, mutate, detail, monkeypatch):
    # Z8 with I = {0,4}: M = Z8 and M/IM = Z4, so both targets have a 1 and a 2
    # and neither is its own double; the named map is composed with the mutation
    real = theorems._quotient_iso

    def mutated(f, target, name, *rest):
        return real(mutate(f, target) if name == which else f, target, name, *rest)

    monkeypatch.setattr(theorems, "_quotient_iso", mutated)
    row = run_checker(make_zn_instance(8, [0, 4]), "L8", None)
    assert (row.outcome, row.detail) == ("fail", detail)


def _swap_two_sums(monkeypatch):  # M/IM's 1 + 0 is no longer 1
    real = theorems.quotient_module

    def swapped(module, n):
        q, proj = real(module, n)
        add = q.add.copy()
        add[1, [0, 1]] = add[1, [1, 0]]
        return replace(q, add=add), proj

    monkeypatch.setattr(theorems, "quotient_module", swapped)


def _miss_a_coset(monkeypatch):  # M/IM's coset 1 joins coset 0 in the projection
    real = theorems.quotient_module

    def merged(module, n):
        q, proj = real(module, n)
        return q, np.where(proj == 1, 0, proj).astype(proj.dtype)

    monkeypatch.setattr(theorems, "quotient_module", merged)


def _with_kernel(which, wrong):
    """Hand L8 wrong(pairs, k) as its which-th kernel mask k, which it reads
    off the pairs with theorems.pairs_in."""
    def patch(monkeypatch):
        real, seen = theorems.pairs_in, []

        def swapped(pairs, *args):
            k = real(pairs, *args)
            seen.append(k)
            return wrong(pairs, k) if len(seen) == which + 1 else k

        monkeypatch.setattr(theorems, "pairs_in", swapped)

    return patch


def _zero_of_m_bowtie_i(pairs, k):  # a submodule, but smaller than 0 x IM
    assert pairs[0].tolist() == [0, 0]
    return 1


def _one_pair_more(pairs, k):  # IM x IM and (1,1): not a subgroup, so no kernel
    assert pairs[2].tolist() == [1, 1] and not k >> 2 & 1
    return k | 4


@pytest.mark.parametrize("breaks,detail", [
    (_swap_two_sums, "coset projection is not a module map;"
                     " induced map M><I / (IM x IM) -> M/IM is not bijective"),
    (_miss_a_coset, "coset projection is not surjective;"
                    " kernel of the coset projection is not IM x IM;"
                    " induced map M><I / (IM x IM) -> M/IM is not bijective"),
    (_with_kernel(0, _zero_of_m_bowtie_i), "kernel of the first projection is not 0 x IM;"
                                           " induced map M><I / (0 x IM) -> M is not bijective"),
    (_with_kernel(1, _one_pair_more), "kernel of the coset projection is not IM x IM;"
                                      " induced map M><I / (IM x IM) -> M/IM is not bijective"),
], ids=["_swap_two_sums", "_miss_a_coset", "_kernel_too_small", "_kernel_not_a_subgroup"])
def test_L8_fails_on_a_broken_quotient(breaks, detail, monkeypatch):
    # L8 builds M/IM with theorems.quotient_module and compares each
    # projection's kernel with the mask theorems.pairs_in reads off the pairs
    breaks(monkeypatch)
    row = run_checker(make_zn_instance(4, [0, 2]), "L8", None)
    assert (row.outcome, row.detail) == ("fail", detail)


def test_L8_fails_when_f_does_not_factor_through_the_projection(monkeypatch):
    # f sends the pair (1,3) of Z4><{0,2} to 3 but (1,1), in its coset of
    # 0 x IM, to 1: no map on M><I / (0 x IM) composes with the projection
    # to f. (1,3) is neither a pair generator nor the least member of a coset
    real = theorems._quotient_iso
    ctx = make_zn_instance(4, [0, 2])

    def split(f, target, name, *rest):
        if name == "first projection":
            assert ctx.inst.bowtie_module.labels[3] == "(1,3)" and f[3] == f[2] == 1
            f = f.copy()
            f[3] = 3
        return real(f, target, name, *rest)

    monkeypatch.setattr(theorems, "_quotient_iso", split)
    row = run_checker(ctx, "L8", None)
    assert (row.outcome, row.detail) == (
        "fail", "first projection is not a module map;"
                " induced map M><I / (0 x IM) -> M is not bijective")


def test_P_colon_primary_fails_on_a_flipped_coset_action(monkeypatch):
    # npack reads the action at the coset representatives; zero times the
    # least element outside N><I, a representative, now stays outside
    ctx = make_zn_instance(4, [0, 2])
    n = zero_submodule(ctx.inst.base_module)
    assert run_checker(ctx, "P_COLON_PRIMARY", n).outcome == "pass"
    real = theorems._npack

    def flipped(mod, nb):
        act = mod.act.copy()
        rep = lowest_bit(~nb.mask)
        act[mod.ring.zero, rep] = rep
        return real(replace(mod, act=act), nb)

    monkeypatch.setattr(theorems, "_npack", flipped)
    ctx = make_zn_instance(4, [0, 2])  # no npack kept yet
    row = run_checker(ctx, "P_COLON_PRIMARY", zero_submodule(ctx.inst.base_module))
    assert (row.outcome, row.detail) == (
        "fail", "colon {(0,0),(0,2)} differs from the quotient annihilator {(0,2)}")


def test_T_final_z6(z6):
    row = run_checker(z6, "T_FINAL", None)
    assert row.outcome == "pass"
    assert row.variant == "behboodi"


def test_divergence_z4_fails():
    ctx = make_zn_instance(4, [0])
    row = run_checker(ctx, "DIVERGENCE", None)
    assert row.outcome == "fail"
    assert "af=True behboodi=False" in row.detail


def test_divergence_z5_passes():
    ctx = make_zn_instance(5, [0])
    assert run_checker(ctx, "DIVERGENCE", None).outcome == "pass"


def test_run_checker_rejects_unknown(z6):
    with pytest.raises(ValueError):
        run_checker(z6, "NOPE", None)


def test_run_checker_reports_its_own_id(z6):
    n = zero_submodule(z6.inst.base_module)
    assert n.is_proper
    for theorem in THEOREM_IDS:
        row = run_checker(z6, theorem, n, "af", "bowtie")
        assert row.theorem_id == theorem


def test_normalize_theorems():
    assert normalize_theorems(None) == THEOREM_IDS
    assert normalize_theorems(["l1", "L2"]) == ("L1", "L2")
    assert normalize_theorems(["transfer-all"]) == ("L2", "C_WP", "P_PRIMARY")
    assert normalize_theorems(["T4", "L1", "T4"]) == ("L1", "T4")
    assert normalize_theorems(["L1,l8"]) == ("L1", "L8")
    assert normalize_theorems(["L8"]) == ("L8",)
    assert normalize_theorems([" All ", "L1"]) == THEOREM_IDS
    with pytest.raises(ValueError, match="unknown theorem id 'nope'"):
        normalize_theorems(["nope"])
    with pytest.raises(ValueError, match="no theorem id given"):
        normalize_theorems([" ", ","])


def test_hunt_does_not_read_the_budget_variable(monkeypatch):
    # only the CLI reads BOWTIE_BUDGET; hunt's budget is its argument, 256 by default
    expected = hunt(CorpusSpec(max_n=4))
    monkeypatch.setenv("BOWTIE_BUDGET", "1")
    assert hunt(CorpusSpec(max_n=4)) == expected


def test_instance_rows_order(z6):
    rows = instance_rows(z6, ("L8", "L1", "T_FINAL"), ALL_VARIANTS, BOTH_READINGS)
    assert [r.theorem_id for r in rows[:2]] == ["L8", "T_FINAL"]
    assert all(r.theorem_id == "L1" for r in rows[2:])
    assert len(rows) == 2 + len(z6.base_submodules)


def _small_instances():
    """(A, I, M) for every ideal of Z_n, n <= 8, over its regular module, and
    every family module and ideal with |A><I|, |M><I| <= 64."""
    for n in range(1, 9):
        ring = make_zn(n)
        module = ring_as_module(ring)
        yield from ((ring, ideal, module) for ideal in enumerate_ideals(ring))
    for m in family_modules():
        yield from ((m.ring, ideal, m) for ideal in enumerate_ideals(m.ring)
                    if max(predicted_sizes(m.ring, ideal, m)) <= 64)


def test_verify_and_hunt_give_each_n_the_same_rows():
    # verify asks instance_rows for one N, a hunt for every N of Lat(M) at once
    checked = 0
    for ring, ideal, module in _small_instances():
        swept = instance_rows(Instance(ring, ideal, module), THEOREM_IDS, VARIANTS, READINGS)
        head = [r for r in swept if theorems.CHECKERS[r.theorem_id].per_instance]
        ctx = Instance(ring, ideal, module)
        for n in ctx.base_submodules:
            key = ctx.key_for(n)
            own = [r for r in swept[len(head):] if r.instance_key == key]
            assert instance_rows(ctx, THEOREM_IDS, VARIANTS, READINGS, [n]) == head + own
            checked += 1
    assert checked > 300


def test_hunt_budget_skip_rows():
    reports = hunt(CorpusSpec(max_n=6), theorems=["L1"], budget=10)
    skipped = [r for r in reports if r.outcome == "skip"]
    assert skipped  # Z_4 with the full ideal already exceeds 10
    assert all("budget exceeded" in r.detail for r in skipped)
    # skip keys name the instance, not a submodule
    assert all("|N=" not in r.instance_key for r in skipped)
    checked = [r for r in reports if r.outcome != "skip"]
    assert all(r.outcome == "pass" for r in checked)


def test_hunt_refuses_max_n_above_the_budget():
    with pytest.raises(ValueError, match="max_n 11 exceeds the budget 10"):
        hunt(CorpusSpec(max_n=11), theorems=["L1"], budget=10)
    assert hunt(CorpusSpec(max_n=10), theorems=["L1"], budget=10)  # at the budget: runs


def test_hunt_budget_skip_rows_fill_the_checker_cells():
    # a skipped instance reports the cells its run rows would use, in their
    # order, so the summary counts the skip in the same cells: per-instance
    # checkers first, T_FINAL under behboodi, and no DIVERGENCE at I != 0
    reports = hunt(CorpusSpec(max_n=4), theorems=["T4", "L3i", "L1", "L8", "T_FINAL",
                                                  "DIVERGENCE"], budget=10)
    cells = [(r.theorem_id, r.variant, r.reading) for r in reports if r.outcome == "skip"]
    assert cells == (
        [("L8", "-", "-"), ("T_FINAL", "behboodi", "-"), ("L1", "-", "-")]
        + [("L3i", v, g) for v in ALL_VARIANTS for g in BOTH_READINGS]
        + [("T4", v, "-") for v in ALL_VARIANTS]
    )
    summary = summarize(reports)
    assert "T4\t-" not in summary and "T_FINAL\t-" not in summary
    # across the two paths: each task skipped at budget 8 reports the cells
    # of its rows at budget 36, where every task runs, in first-seen order
    skipped, checked = hunt(CorpusSpec(max_n=6), budget=8), hunt(CorpusSpec(max_n=6), budget=36)
    assert not any(r.outcome == "skip" for r in checked)
    skipped_keys = list(dict.fromkeys(r.instance_key for r in skipped if r.outcome == "skip"))
    assert len(skipped_keys) == 6
    for key in skipped_keys:
        skip_cells = [(r.theorem_id, r.variant, r.reading)
                      for r in skipped if r.instance_key == key]
        run_cells = [(r.theorem_id, r.variant, r.reading)
                     for r in checked if r.instance_key.split("|N=")[0] == key]
        assert skip_cells == list(dict.fromkeys(run_cells)), key


def test_budget_skipped_task_builds_no_table(monkeypatch):
    # a skipped Z_n task reads its key and |M><I| = n*|I| off the ideal
    expected = hunt(CorpusSpec(max_n=6), theorems=["L1", "T4"], budget=10)
    built = []
    real = theorems.make_zn

    def counting(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(theorems, "make_zn", counting)
    for n, members in ((4, (0, 1, 2, 3)), (6, (0, 2, 4)), (6, (0, 1, 2, 3, 4, 5))):
        task = (n, members, ("L1", "T4"), ALL_VARIANTS, BOTH_READINGS, 10)
        rows = theorems._hunt_task(task)
        key = f"Z{n}|I=" + "{" + ",".join(map(str, members)) + "}"
        assert rows == [r for r in expected if r.instance_key == key]
        assert rows and all(r.outcome == "skip" for r in rows)
    assert built == []
    # hunt lists its tasks from the divisors of n, and its tasks on one Z_n
    # share one ring and module, so each ring with an in-budget task
    # (n*|I| <= 10) is built once per hunt
    assert hunt(CorpusSpec(max_n=6), theorems=["L1", "T4"], budget=10) == expected
    assert built == [1, 2, 3, 4, 5, 6]
    # nothing outlives a hunt: a second one builds its rings again
    assert hunt(CorpusSpec(max_n=6), theorems=["L1", "T4"], budget=10) == expected
    assert built == [1, 2, 3, 4, 5, 6] * 2


def test_hunt_that_raises_leaves_no_scope(monkeypatch):
    def failing(ctx, n, nb, variant, reading):
        if ctx.inst.base_ring.size == 4:
            raise ZeroDivisionError("checker raised")
        return "pass", ""

    rings = []
    real = theorems.make_zn

    def recorded(n):
        ring = real(n)
        rings.append(weakref.ref(ring))
        return ring

    monkeypatch.setattr(theorems, "make_zn", recorded)
    monkeypatch.setitem(theorems.CHECKERS, "L1", theorems.Checker(failing, improper_n=True))
    with pytest.raises(ZeroDivisionError, match="checker raised"):
        hunt(CorpusSpec(max_n=6), theorems=["L1"])
    # Z1..Z4 were built, and none outlives the hunt, nor the memos on its module
    gc.collect()
    assert len(rings) == 4 and all(ref() is None for ref in rings)


def test_hunt_lists_the_ideals_of_zn_in_enumeration_order(monkeypatch):
    tasks = []
    monkeypatch.setattr(theorems, "_hunt_task", lambda task: tasks.append(task) or [])
    hunt(CorpusSpec(max_n=48), theorems=["L1"])
    assert [(n, members) for n, members, *_ in tasks] == [
        (n, j.members) for n in range(1, 49) for j in enumerate_ideals(make_zn(n))
    ]


def test_p_faithful_hypotheses_once_per_instance(monkeypatch):
    asked = []
    real_is_cyclic = theorems.is_cyclic

    def recording(module):
        asked.append(module)  # kept alive, so ids are not reused
        return real_is_cyclic(module)

    monkeypatch.setattr(theorems, "is_cyclic", recording)
    rows = hunt(CorpusSpec(max_n=8), theorems=["P_FAITHFUL"])
    assert len(rows) > 100
    # Z1 has no proper N; every other instance asks once, whatever its N and variant
    assert len(asked) == len({id(m) for m in asked}) == 19


def test_t_final_keys_the_verdict_on_m_by_m_alone():
    """T_FINAL keeps M's weakly-prime-module verdict on M whatever the limit,
    and reads Lat(M) first, so a bounded Instance over the same M refuses
    rather than reading the verdict that an unbounded one left."""
    ring = make_zn(12)
    module = ring_as_module(ring)
    ideal = Ideal(ring, [0, 6])
    assert theorems.check_T_final(Instance(ring, ideal, module))[0] == "pass"
    assert "weakly_prime_module" in module.derived_cache
    bounded = Instance(ring, ideal, module, lattice_limit=3)
    # Lat(M><I) as if it fit, so that only Lat(M), of 6 submodules, is over the limit
    bounded.bowtie_submodules = enumerate_submodules(bounded.inst.bowtie_module)
    with pytest.raises(LatticeLimitError):
        theorems.check_T_final(bounded)


def test_instance_keeps_the_facts_of_m_bowtie_i():
    for n in range(1, 13):
        for ideal in enumerate_ideals(make_zn(n)):
            ctx = make_zn_instance(n, ideal.members)
            mod = ctx.inst.bowtie_module
            assert ctx.faithful_cyclic == (is_faithful(mod), is_cyclic(mod))


@pytest.mark.parametrize("n", [1, 2, 6, 12])
def test_whole_submodule_equals_the_checked_one(n):
    for ideal in enumerate_ideals(make_zn(n)):
        mod = make_zn_instance(n, ideal.members).inst.bowtie_module
        whole, checked = whole_submodule(mod), Submodule(mod, range(mod.size))
        assert whole == checked
        assert (whole.mask, whole.members) == (checked.mask, checked.members)


def test_hunt_deterministic_across_workers():
    one = serialize_reports(hunt(CorpusSpec(max_n=5), workers=1))
    three = serialize_reports(hunt(CorpusSpec(max_n=5), workers=3))
    assert one == three


def test_hunt_clamps_workers(monkeypatch):
    started = []

    class RecordingPool:
        """Records max_workers and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    corpus = CorpusSpec(max_n=3)  # 5 (Z_n, I) tasks
    serial = serialize_reports(hunt(corpus, ["L8"], workers=1))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 4)
    assert serialize_reports(hunt(corpus, ["L8"], workers=1000)) == serial
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 64)
    assert serialize_reports(hunt(corpus, ["L8"], workers=1000)) == serial
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)
    assert serialize_reports(hunt(corpus, ["L8"], workers=1000)) == serial
    assert started == [4, 5]


FROZEN_N6_COUNTS = {
    # theorem, variant -> (pass, fail, na)
    ("L1", "-"): (38, 0, 0),
    ("L2", "-"): (24, 0, 0),
    ("C_WP", "-"): (20, 4, 0),
    ("P_PRIMARY", "-"): (24, 0, 0),
    ("L3i", "af"): (42, 6, 0),
    ("L3i", "azizi"): (48, 0, 0),
    ("L3i", "behboodi"): (48, 0, 0),
    ("L3ii", "af"): (38, 2, 8),
    ("L3ii", "azizi"): (34, 0, 14),
    ("L3ii", "behboodi"): (34, 0, 14),
    ("C_PPW", "af"): (22, 2, 0),
    ("C_PPW", "azizi"): (24, 0, 0),
    ("C_PPW", "behboodi"): (24, 0, 0),
    ("T4", "af"): (21, 3, 0),
    ("T4", "azizi"): (24, 0, 0),
    ("T4", "behboodi"): (24, 0, 0),
    ("R_T4", "-"): (17, 0, 7),
    ("C_IRR", "af"): (18, 2, 4),
    ("C_IRR", "azizi"): (17, 0, 7),
    ("C_IRR", "behboodi"): (17, 0, 7),
    ("L_COLON_PROD", "af"): (21, 3, 0),
    ("L_COLON_PROD", "azizi"): (24, 0, 0),
    ("L_COLON_PROD", "behboodi"): (24, 0, 0),
    ("R_CEX", "-"): (20, 4, 0),
    ("P_FAITHFUL", "af"): (20, 0, 4),
    ("P_FAITHFUL", "azizi"): (17, 0, 7),
    ("P_FAITHFUL", "behboodi"): (17, 0, 7),
    ("L_RADICAL", "-"): (24, 0, 0),
    ("P_COLON_PRIMARY", "-"): (20, 0, 4),
    ("C_RADICAL_PRIME", "-"): (20, 0, 4),
    ("L8", "-"): (14, 0, 0),
    ("T_FINAL", "behboodi"): (13, 0, 1),
    ("DIVERGENCE", "-"): (3, 2, 1),
}


@pytest.fixture(scope="module")
def corpus6_reports():
    return hunt(CorpusSpec(max_n=6))


def test_corpus_counts_frozen(corpus6_reports):
    counts = {}
    for r in corpus6_reports:
        cell = counts.setdefault((r.theorem_id, r.variant), [0, 0, 0, 0])
        cell[("pass", "fail", "na", "skip").index(r.outcome)] += 1
    got = {k: tuple(v[:3]) for k, v in counts.items()}
    assert all(v[3] == 0 for v in counts.values())
    assert got == FROZEN_N6_COUNTS
    assert len(corpus6_reports) == 912


def test_failures_confined_to_af_and_probes(corpus6_reports):
    # every failing row is either an af-variant statement gap, the C_WP
    # transfer, or a probe (R_CEX, DIVERGENCE); azizi and behboodi never fail
    for r in corpus6_reports:
        if r.outcome != "fail":
            continue
        assert r.variant in ("af", "-"), r.line()
        if r.variant == "-":
            assert r.theorem_id in ("C_WP", "R_CEX", "DIVERGENCE"), r.line()


def test_af_failures_only_at_zero_submodule(corpus6_reports):
    for r in corpus6_reports:
        if r.outcome == "fail" and r.theorem_id not in ("L8", "T_FINAL", "DIVERGENCE"):
            assert r.instance_key.endswith("|N={0}"), r.line()


def test_divergence_first_at_n4(corpus6_reports):
    fails = [r for r in corpus6_reports
             if r.theorem_id == "DIVERGENCE" and r.outcome == "fail"]
    assert fails and fails[0].instance_key.startswith("Z4|")
    assert "first divergence: Z4" in summarize(corpus6_reports)


def test_family_report_is_byte_identical():
    rows = []
    for m in family_modules():
        for ideal in enumerate_ideals(m.ring):
            if max(predicted_sizes(m.ring, ideal, m)) > 256:
                continue
            ctx = Instance(m.ring, ideal, m, key=f"{m.name}|I={ideal.label_set()}")
            rows += instance_rows(ctx, swept_theorems(ideal), VARIANTS, READINGS)
    text = serialize_reports(rows)
    assert (len(rows), hashlib.sha256(text.encode()).hexdigest()) == (41965, FAMILY_REPORT_SHA256)


def test_serialize_header():
    text = serialize_reports([], header="x=1")
    assert text == "# x=1\n"


def test_report_witness_field_consistency():
    r = TheoremReport("k", "L1", outcome="pass")
    assert r.line().endswith("-")
