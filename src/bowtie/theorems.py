"""Executable checkers for the duplication transfer and structure statements.

Each checker evaluates one numbered claim on one finite instance, as a
biconditional where the claim is stated as one, and returns its outcome
(pass, fail or na) and a detail: a failure's replayable witness, or else a
note. run_checker builds the report row, and instance_rows every row of one
instance. The hunter sweeps a corpus of Z_n instances deterministically, so
report files are byte-stable across worker counts.

The checkers, and how each one is run, are the entries of CHECKERS, in
report order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .rings import (
    Ideal,
    TableRing,
    bits,
    class_ids,
    class_rows,
    derived,
    lowest_bit,
    make_zn,
    mask_of,
    memo,
    pack,
    pack_rows,
    radical,
    row_images,
)
from .modules import (
    Submodule,
    TableModule,
    annihilator,
    check_module_map,
    colon_into_ring,
    colon_mask,
    cosets,
    enumerate_submodules,
    is_cyclic,
    quotient_module,
    ring_as_module,
    scalar_images,
    whole_submodule,
    zero_submodule,
)
from .classify import (
    VARIANTS,
    Verdict,
    ideal_is_prime,
    is_prime_submodule,
    is_primary_ideal,
    is_primary_submodule,
    is_weakly_prime_ideal,
    is_weakly_prime_module,
    is_weakly_prime_submodule_af,
    is_weakly_prime_submodule_behboodi,
    is_irreducible_submodule,
    weakly_prime_submodule,
    whole_colon,
)
from .duplication import (
    BowtieInstance,
    build_bowtie,
    bowtie_submodule,
    pair_generators,
    pairs_in,
)

READINGS = ("bowtie", "all-submodules")

DEFAULT_BUDGET = 256

Outcome = tuple[str, str]  # a checker's outcome (pass, fail or na) and detail


class TheoremReport(NamedTuple):
    """One checker outcome on one instance.

    Serialized as six tab-separated columns: instance key, theorem id,
    variant, reading, outcome, detail. A failure's detail is its witness,
    in pair notation via element labels, so every failure replays by hand;
    any other row's detail is a note.
    """

    instance_key: str
    theorem_id: str
    variant: str = "-"
    reading: str = "-"
    outcome: str = "pass"  # pass | fail | na | skip
    detail: str = ""

    def line(self) -> str:
        return "\t".join(
            (self.instance_key, self.theorem_id, self.variant, self.reading,
             self.outcome, self.detail or "-")
        )


class Instance:
    """A built duplication plus the facts its checkers share; each lattice
    may hold at most ``lattice_limit`` submodules.

    Every fact keyed by a submodule of M><I (N><I, its verdicts, colon,
    npack, the checkers' conditions) is kept with rings.memo in the
    instance's ``derived_cache``, as M and the tables keep theirs; the
    facts of the whole instance (Lat(M><I), the distinguished submodules)
    are cached properties, and 0 x IM, IM x IM and M><I among them are the
    memo's N><I for N = 0, IM and M. The cosets of a submodule are M><I's
    own, which npack and the Behboodi test read. What does not depend on I
    (Lat(M), N's verdicts and scalar classes) is kept on M, so every
    Instance over one module object shares it."""

    def __init__(
        self,
        ring: TableRing,
        ideal: Ideal,
        module: TableModule,
        key: str | None = None,
        lattice_limit: int | None = None,
    ):
        self.inst: BowtieInstance = build_bowtie(ring, ideal, module)
        self.base_key = key or f"{ring.name}|I={ideal.label_set()}"
        self.lattice_limit = lattice_limit
        self.derived_cache: dict = {}
        # every memo is keyed by mask: a tuple of members rehashes on each
        # lookup. The six memo methods' dicts are bound by name too, since a
        # profiler counts a miss as growth of the dict it reads by that name
        self._bowtie_n, self._colon, self._prime, self._primary, self._wp, self._npack = (
            derived(self, what, dict)
            for what in ("bowtie", "colon", "prime", "primary", "weakly_prime", "npack"))

    def key_for(self, n: Submodule | None) -> str:
        return self.base_key if n is None else f"{self.base_key}|N={n.label_set()}"

    @cached_property
    def base_submodules(self) -> list[Submodule]:
        module, limit = self.inst.base_module, self.lattice_limit
        lattice = memo(module, "lattice", limit, _lattice_masks, module, limit)
        return [Submodule.from_mask(module, mask) for mask in lattice]

    @cached_property
    def bowtie_submodules(self) -> list[Submodule]:
        return enumerate_submodules(self.inst.bowtie_module, self.lattice_limit)

    @cached_property
    def bowtie_whole(self) -> Submodule:
        """M><I as a submodule of itself: M join I."""
        return self.bowtie(whole_submodule(self.inst.base_module))

    @cached_property
    def distinguished(self) -> tuple[Submodule, Submodule]:
        """0 x IM and IM x IM, shared by L8 and T_final. Every pair (m, m')
        has m - m' in IM, so m' lies in IM exactly when m does: they are
        0 join I and (IM) join I."""
        return self.bowtie(zero_submodule(self.inst.base_module)), self.bowtie(self.inst.im)

    @cached_property
    def faithful_cyclic(self) -> tuple[bool, bool]:
        """Whether M><I is faithful, and whether it is cyclic."""
        return annihilator(self.bowtie_whole).is_zero, is_cyclic(self.inst.bowtie_module)

    def bowtie(self, n: Submodule) -> Submodule:
        return memo(self, "bowtie", n.mask, bowtie_submodule, self.inst, n)

    def colon(self, nb: Submodule) -> Ideal:
        """(N><I : M><I), once per N><I; L3i and L3ii read (N><I : K) by colon_mask."""
        return memo(self, "colon", nb.mask, colon_into_ring, nb, self.bowtie_whole)

    def prime(self, nb: Submodule) -> Verdict:
        return memo(self, "prime", nb.mask, is_prime_submodule, nb)

    def primary(self, nb: Submodule) -> Verdict:
        return memo(self, "primary", nb.mask, is_primary_submodule, nb)

    def weakly_prime(self, nb: Submodule, variant: str) -> Verdict:
        # af reads no lattice
        return memo(self, "weakly_prime", (nb.mask, variant), weakly_prime_submodule,
                    nb, variant, None if variant == "af" else self.bowtie_submodules)

    def npack(self, nb: Submodule) -> dict:
        """Per-N geometry for T4, C_IRR, L_RADICAL and P_COLON_PRIMARY, as masks.

        coset[x]: the index of x + N><I, numbered by least member, and
        reps[c]: that least member. rep_sum[c]: the id of the submodule
        N><I + Ax for x in coset c, numbered by first appearance;
        sum_masks[id]: its members; sum_members[id]: the x with that id.
        rep_col[c]: the id of the element colon {a : a x in N><I};
        col_masks[id]: its members; col_members[id]: the x with that id.
        ann: the AND of col_masks, Ann(M><I / N><I).
        bad_y[id]: the y whose sum meets sum id ``id`` in more than N><I.
        Both ids are constant on each coset x + N><I (a(x + n) lies in
        ax + N><I), so they are kept once per coset; ascending x meets the
        cosets in index order, so the numbering is the one over all x, and
        the first x of a condition is the least member of its first coset.
        """
        return memo(self, "npack", nb.mask, _npack, self.inst.bowtie_module, nb)


def _lattice_masks(module: TableModule, limit: int | None) -> list[int]:
    """Lat(M) as masks, which refer to no module."""
    return [n.mask for n in enumerate_submodules(module, limit)]


def _npack(mod: TableModule, nb: Submodule) -> dict:
    """The pack Instance.npack keeps once per N><I."""
    coset, reps = cosets(nb)
    r = len(reps)
    ids = coset.tolist()
    cos = coset.take(mod.act.take(reps, axis=1))  # cos[a, c]: coset of a*reps[c]
    # N + Ax is the union of the cosets of N that meet Ax: column x of cos
    sum_index: dict[int, int] = {}
    rep_sum = [sum_index.setdefault(m, len(sum_index)) for m in row_images(cos.T, r)]
    # the colon of reps[c] is column c of the preimage table: a*reps[c] in N
    col_index: dict[int, int] = {}
    rep_col = [col_index.setdefault(c, len(col_index))
               for c in pack_rows((cos == ids[mod.zero]).T)]
    ann = -1  # Ann(M><I / N><I): the scalars that send every coset into N><I
    for c in col_index:
        ann &= c
    members = pack_rows(np.arange(r)[:, None] == coset)  # each coset's members
    sum_masks = [sum(members[c] for c in bits(m)) for m in sum_index]  # disjoint unions
    sum_members, col_members = [0] * len(sum_index), [0] * len(col_index)
    for c, part in enumerate(members):
        sum_members[rep_sum[c]] |= part
        col_members[rep_col[c]] |= part
    n_mask = nb.mask
    bad_y = []
    for s in sum_masks:
        bad = 0
        for t, other in enumerate(sum_masks):
            if s & other != n_mask:
                bad |= sum_members[t]
        bad_y.append(bad)
    return {
        "coset": ids,
        "reps": reps.tolist(),
        "rep_sum": rep_sum,
        "sum_masks": sum_masks,
        "sum_members": sum_members,
        "rep_col": rep_col,
        "col_masks": list(col_index),
        "col_members": col_members,
        "ann": ann,
        "bad_y": bad_y,
        "n_mask": n_mask,
    }


def make_zn_instance(n: int, ideal_members: Iterable[int]) -> Instance:
    """Convenience builder: Z_n with its regular module."""
    ring = make_zn(n)
    ideal = Ideal(ring, ideal_members)
    return Instance(ring, ideal, ring_as_module(ring))


# -------------------------------------------------------------- checkers


def check_L1(ctx: Instance, n: Submodule, nb: Submodule, *_) -> Outcome:
    """(N><I : M><I) must decode to {(a, a+i) : a in (N:M), i in I}."""
    inst = ctx.inst
    lhs = ctx.colon(nb)
    # (N:M)><I: the pairs (a, a+i) whose first component lies in (N:M)
    rhs = pairs_in(inst.ring_pairs, 0, whole_colon(n), inst.base_ring.size)
    if lhs.mask == rhs:
        return "pass", f"both sides = {lhs.label_set()}"
    first_diff = lowest_bit(lhs.mask ^ rhs)
    side = "left only" if lhs.mask >> first_diff & 1 else "right only"
    return "fail", (f"{inst.bowtie_ring.labels[first_diff]} is on one side only ({side});"
                    f" colon={lhs.label_set()}")


def check_transfer(ctx: Instance, n: Submodule, nb: Submodule, *_, notion: str) -> Outcome:
    """notion(N) must agree with notion(N><I), in both directions."""
    # predicates are called by their module-level names, so a wrapper on those
    # names (perfbench/tracer.py) sees every call; N's verdicts are kept on M,
    # N><I's on the instance
    if notion == "prime":
        noun, predicate, vd = "prime", is_prime_submodule, ctx.prime(nb)
    elif notion == "weakly_prime_af":
        noun, predicate = "weakly prime (af)", is_weakly_prime_submodule_af
        vd = ctx.weakly_prime(nb, "af")
    elif notion == "primary":
        noun, predicate, vd = "primary", is_primary_submodule, ctx.primary(nb)
    else:
        raise ValueError(f"unknown transfer notion {notion!r}")
    vb = memo(n.module, notion, n.mask, predicate, n)
    if vb.holds == vd.holds:
        return "pass", f"base={vb.holds} duplicate={vd.holds}"
    if vb.holds:
        return "fail", (f"statement gap (base to duplicate): N is {noun} but N><I is not;"
                        f" {vd.witness_text}")
    return "fail", (f"statement gap (duplicate to base): N><I is {noun} but N is not;"
                    f" {vb.witness_text}")


def _iff(
    lhs: Verdict, lhs_name: str, noun: str, violation: str, cond_name: str, cond_holds: str,
) -> Outcome:
    """The outcome of "N><I is <noun> <=> a condition", from N><I's verdict
    and the condition's violation ("" when the condition holds)."""
    cond = not violation
    if lhs.holds == cond:
        return "pass", f"{lhs_name}={lhs.holds} {cond_name}={cond}"
    if lhs.holds:
        return "fail", f"statement gap (forward): N><I is {noun} but {violation}"
    return "fail", (f"statement gap (backward): {cond_holds} but N><I is not {noun}:"
                    f" {lhs.witness_text}")


def _quantifier_domain(ctx: Instance, reading: str) -> list[Submodule]:
    """The submodules of M><I that 'every submodule K><I' ranges over."""
    if reading == "bowtie":
        return [ctx.bowtie(k0) for k0 in ctx.base_submodules]
    if reading == "all-submodules":
        return ctx.bowtie_submodules
    raise ValueError(f"unknown reading {reading!r}")


def non_prime_colon(ctx: Instance, nb: Submodule, reading: str) -> str:
    """Witness of the first K of the domain, not inside N><I, whose colon
    (N><I : K) is not a prime ideal; "" when there is none."""
    ring = ctx.inst.bowtie_ring
    for k in _quantifier_domain(ctx, reading):
        if k.mask & nb.mask == k.mask:
            continue
        col = colon_mask(nb.classes, k.mask)
        v = ideal_is_prime(ring, col)
        if not v.holds:
            return (f"K={k.label_set()} gives colon {Ideal.from_mask(ring, col).label_set()},"
                    f" not prime: {v.witness_text}")
    return ""


def check_L3i(ctx: Instance, n: Submodule, nb: Submodule, variant: str, reading: str) -> Outcome:
    """Weakly prime <=> every colon into a non-contained K is a prime ideal."""
    return _iff(ctx.weakly_prime(nb, variant), "weakly_prime", f"weakly prime ({variant})",
                memo(ctx, "L3i", (nb.mask, reading), non_prime_colon, ctx, nb, reading),
                "all-colons-prime", "every eligible colon is prime")


def colon_chain_violation(ctx: Instance, nb: Submodule, reading: str) -> str:
    """Witness of the first K, L of the domain, neither inside N><I, whose
    colons are incomparable; "" when the colons form a chain.

    The colons form a chain when their distinct masks, sorted by size, each
    lie inside the next; only a violation pays for the search over pairs
    that names the lex-first one.
    """
    domain = [k for k in _quantifier_domain(ctx, reading) if k.mask & nb.mask != k.mask]
    colons = [colon_mask(nb.classes, k.mask) for k in domain]
    chain = sorted(set(colons), key=int.bit_count)
    if all(a & ~b == 0 for a, b in zip(chain, chain[1:])):
        return ""
    for i in range(len(domain)):
        for j in range(i + 1, len(domain)):
            a, b = colons[i], colons[j]
            if a & ~b and b & ~a:
                ring = ctx.inst.bowtie_ring
                onlya = ring.labels[lowest_bit(a & ~b)]
                onlyb = ring.labels[lowest_bit(b & ~a)]
                return (f"K={domain[i].label_set()} L={domain[j].label_set()}:"
                        f" colon(K) has {onlya} outside colon(L),"
                        f" colon(L) has {onlyb} outside colon(K)")
    return ""


def check_L3ii(ctx: Instance, n: Submodule, nb: Submodule, variant: str, reading: str) -> Outcome:
    """Weakly prime => colons into non-contained submodules form a chain."""
    if not ctx.weakly_prime(nb, variant).holds:
        return "na", f"hypothesis fails: N><I is not weakly prime ({variant})"
    witness = memo(ctx, "L3ii", (nb.mask, reading), colon_chain_violation, ctx, nb, reading)
    if witness:
        return "fail", witness
    return "pass", "colons form a chain"


def check_C_PPW(ctx: Instance, n: Submodule, nb: Submodule, variant: str, *_) -> Outcome:
    """Prime <=> primary and weakly prime."""
    p = ctx.prime(nb)
    pr = ctx.primary(nb)
    wp = ctx.weakly_prime(nb, variant)
    lhs, rhs = p.holds, pr.holds and wp.holds
    if lhs == rhs:
        return "pass", f"prime={p.holds} primary={pr.holds} weakly_prime={wp.holds}"
    if lhs:
        missing = "primary" if not pr.holds else f"weakly prime ({variant})"
        inner = pr.witness_text if not pr.holds else wp.witness_text
        return "fail", f"statement gap (forward): N><I is prime but not {missing}; {inner}"
    return "fail", (f"statement gap (backward): N><I is primary and weakly prime ({variant})"
                    f" but not prime; {p.witness_text}")


def t4_violation(ctx: Instance, nb: Submodule) -> str:
    """Witness of the first x, y with unequal element colons whose sums
    N><I + Ax and N><I + Ay meet in more than N><I; "" when there is none."""
    pack = ctx.npack(nb)
    rep_sum, sum_masks, rep_col = pack["rep_sum"], pack["sum_masks"], pack["rep_col"]
    for x, sx, cx in zip(pack["reps"], rep_sum, rep_col):
        bad = pack["bad_y"][sx] & ~pack["col_members"][cx]
        if bad:
            y = lowest_bit(bad)
            sy = rep_sum[pack["coset"][y]]
            extra = lowest_bit(sum_masks[sx] & sum_masks[sy] & ~pack["n_mask"])
            labels = ctx.inst.bowtie_module.labels
            return (f"x={labels[x]} y={labels[y]}: colons differ but the"
                    f" intersection keeps {labels[extra]} outside N><I")
    return ""


def check_T4(ctx: Instance, n: Submodule, nb: Submodule, variant: str, *_) -> Outcome:
    """Weakly prime <=> unequal element colons force the two-sum identity."""
    return _iff(ctx.weakly_prime(nb, variant), "weakly_prime", f"weakly prime ({variant})",
                memo(ctx, "T4", nb.mask, t4_violation, ctx, nb),
                "intersection-condition", "the intersection condition holds")


def check_R_T4(ctx: Instance, n: Submodule, nb: Submodule, *_) -> Outcome:
    """For prime N><I: a(x,x') in N><I forces x in N><I or a(y,y') in N><I."""
    if not ctx.prime(nb).holds:
        return "na", "hypothesis fails: N><I is not prime"
    mod = ctx.inst.bowtie_module
    colon = ctx.colon(nb).mask  # a union of N><I's scalar classes
    for p, scalars in nb.classes:
        if not scalars & colon and p & ~nb.mask:
            a, x, y = lowest_bit(scalars), lowest_bit(p & ~nb.mask), lowest_bit(~p)
            return "fail", (f"a={ctx.inst.bowtie_ring.labels[a]} x={mod.labels[x]}"
                            f" y={mod.labels[y]}: ax in N><I but x is outside and ay is outside")
    return "pass", "disjunction holds for all triples"


def c_irr_identity_violation(ctx: Instance, nb: Submodule) -> str:
    """Witness of the first a, x, y with a x in N><I whose sums N><I + Ax
    and N><I + A(ay) meet in more than N><I; "" when there is none."""
    pack = ctx.npack(nb)
    bad_y, sum_members = pack["bad_y"], pack["sum_members"]
    inst = ctx.inst
    images = scalar_images(inst.bowtie_module)
    for a, xs in enumerate(class_rows(nb.classes, inst.bowtie_ring.size)):
        image = images[a]
        bad_x = 0
        for s, bad in enumerate(bad_y):
            if image & bad:
                bad_x |= sum_members[s]
        bad_x &= xs
        if bad_x:
            x = lowest_bit(bad_x)
            row = inst.bowtie_module.act[a].tolist()
            targets = bad_y[pack["rep_sum"][pack["coset"][x]]]
            y = next(y for y, ay in enumerate(row) if targets >> ay & 1)
            labels = inst.bowtie_module.labels
            return (f"a={inst.bowtie_ring.labels[a]} x={labels[x]}"
                    f" y={labels[y]}: ax in N><I but the intersection identity fails")
    return ""


def check_C_IRR(ctx: Instance, n: Submodule, nb: Submodule, variant: str, *_) -> Outcome:
    """Under weakly prime N><I: the intersection identity, and irreducible => prime."""
    if not ctx.weakly_prime(nb, variant).holds:
        return "na", f"hypothesis fails: N><I is not weakly prime ({variant})"
    part1_witness = memo(ctx, "C_IRR", nb.mask, c_irr_identity_violation, ctx, nb)
    irr = memo(ctx, "irreducible", nb.mask, is_irreducible_submodule, nb, ctx.bowtie_submodules)
    p = ctx.prime(nb)
    pieces = []
    if part1_witness:
        pieces.append(f"part 1: {part1_witness}")
    if irr.holds and not p.holds:
        pieces.append(f"part 2: N><I is irreducible yet not prime: {p.witness_text}")
    if pieces:
        return "fail", "; ".join(pieces)
    return "pass", f"identity holds; irreducible={irr.holds} prime={p.holds}"


def colon_product_violation(ctx: Instance, nb: Submodule) -> str:
    """Witness of the first scalars s, t with (N><I : st) equal to neither
    (N><I : s) nor (N><I : t); "" when there are none."""
    ring = ctx.inst.bowtie_ring
    classes = nb.classes
    # pre[st] = {x : s(tx) in N><I} = {x : t(sx) in N><I} depends only on the classes of
    # s and t: their least scalars, which ascend, stand for them, so the first hit is lex-first
    reps = [lowest_bit(scalars) for _p, scalars in classes]
    prod = class_ids(classes, ring.size)[ring.mul[np.ix_(reps, reps)]]
    own = np.arange(len(classes))
    bad = (prod != own[:, None]) & (prod != own[None, :])
    if bad.any():
        s, t = divmod(int(bad.argmax()), len(classes))
        return (f"s={ring.labels[reps[s]]} t={ring.labels[reps[t]]}: (N><I : st) matches"
                " neither (N><I : s) nor (N><I : t)")
    return ""


def check_L_colon_prod(ctx: Instance, n: Submodule, nb: Submodule, variant: str, *_) -> Outcome:
    """Weakly prime <=> colon by a scalar product equals a factor colon."""
    return _iff(ctx.weakly_prime(nb, variant), "weakly_prime", f"weakly prime ({variant})",
                memo(ctx, "L_COLON_PROD", nb.mask, colon_product_violation, ctx, nb),
                "colon-product-condition", "the colon condition holds")


def check_R_CEX(ctx: Instance, n: Submodule, nb: Submodule, *_) -> Outcome:
    """Probe: fail exactly when (N><I : M><I) is not a weakly prime ideal."""
    col = ctx.colon(nb)
    v = memo(ctx, "wp_colon", nb.mask, is_weakly_prime_ideal, col)
    if v.holds:
        return "pass", f"colon {col.label_set()} is a weakly prime ideal"
    return "fail", f"colon {col.label_set()} is not weakly prime: {v.witness_text}"


def check_P_faithful(ctx: Instance, n: Submodule, nb: Submodule, variant: str, *_) -> Outcome:
    """Faithful cyclic M><I with weakly prime N><I: colon is weakly prime."""
    faithful, cyclic = ctx.faithful_cyclic
    wp = ctx.weakly_prime(nb, variant)
    missing = []
    if not faithful:
        missing.append("M><I is not faithful")
    if not cyclic:
        missing.append("M><I is not cyclic")
    if not wp.holds:
        missing.append(f"N><I is not weakly prime ({variant})")
    if missing:
        return "na", "hypothesis fails: " + "; ".join(missing)
    v = memo(ctx, "wp_colon", nb.mask, is_weakly_prime_ideal, ctx.colon(nb))
    if v.holds:
        return "pass", "colon is a weakly prime ideal"
    return "fail", f"colon is not a weakly prime ideal: {v.witness_text}"


def check_L_radical(ctx: Instance, n: Submodule, nb: Submodule, *_) -> Outcome:
    """Primary <=> every element colon outside N><I sits inside the radical."""
    lhs = ctx.primary(nb)
    mod = ctx.inst.bowtie_module
    rad = radical(ctx.colon(nb)).mask
    pack = ctx.npack(nb)
    violation = ""
    for b, cb in zip(pack["reps"], pack["rep_col"]):
        bad = pack["col_masks"][cb] & ~rad
        if nb.mask >> b & 1 or not bad:
            continue
        violation = (
            f"b={mod.labels[b]}: a={ctx.inst.bowtie_ring.labels[lowest_bit(bad)]} sends b"
            " into N><I but no power of a lands in the colon"
        )
        break
    return _iff(lhs, "primary", "primary", violation,
                "radical-condition", "the radical condition holds")


def check_P_colon_primary(ctx: Instance, n: Submodule, nb: Submodule, *_) -> Outcome:
    """For primary N><I: colon = Ann(M><I / N><I) and it is a primary ideal."""
    col = ctx.colon(nb)
    ann = ctx.npack(nb)["ann"]
    if ann != col.mask:
        return "fail", (f"colon {col.label_set()} differs from the quotient annihilator"
                        f" {ctx.inst.bowtie_ring.label_set(bits(ann))}")
    if not ctx.primary(nb).holds:
        return "na", "hypothesis fails: N><I is not primary (annihilator identity verified)"
    v = is_primary_ideal(col)
    if v.holds:
        return "pass", f"colon = quotient annihilator = {col.label_set()}, primary"
    return "fail", f"colon is not a primary ideal: {v.witness_text}"


def check_C_radical_prime(ctx: Instance, n: Submodule, nb: Submodule, *_) -> Outcome:
    """For primary N><I: the radical of the colon is a prime ideal."""
    if not ctx.primary(nb).holds:
        return "na", "hypothesis fails: N><I is not primary"
    rad = radical(ctx.colon(nb))
    v = ideal_is_prime(rad.ring, rad.mask)
    if v.holds:
        return "pass", f"radical {rad.label_set()} is prime"
    return "fail", f"radical {rad.label_set()} is not prime: {v.witness_text}"


def _quotient_iso(f: np.ndarray, target: TableModule, name: str, k: Submodule, k_name: str,
                  target_name: str, at: tuple[np.ndarray, ...]) -> tuple[list[str], int]:
    """The reasons f: M><I -> T, checked at the generators, fails to be a
    surjective module map with kernel K inducing M><I / K = T, and |M><I / K|.
    ``at`` holds L8's gens, the base scalars through which its scalars act on
    T, and M><I's sums and products at them, as check_module_map reads them.
    No quotient of M><I is built: by the first isomorphism theorem the
    induced map exists and is bijective exactly when (i) f is a module map,
    (ii) f is onto and (iii) ker f = K, compared as masks. Once (i) holds,
    f(x) = f(y) iff x - y lies in ker f, so f factors through M><I / K with
    an injective induced map iff K <= ker f <= K, which is (iii); once ker f
    = K, |M><I / K| = |T| iff f is onto, which is (ii). So the induced map
    fails exactly when one of (i)-(iii) does. By Lagrange, |M><I / K| =
    |M><I| / |K|."""
    gens, through, sums, products = at
    rows = target.act.take(through, axis=0)  # rows[i]: how the i-th scalar acts on T
    problems = []
    if not check_module_map(f, sums, products, target.add, rows, gens):
        problems.append(f"{name} is not a module map")
    if len(set(f.tolist())) != target.size:
        problems.append(f"{name} is not surjective")
    if pack(f == target.zero) != k.mask:
        problems.append(f"kernel of the {name} is not {k_name}")
    if problems:
        problems.append(f"induced map M><I / ({k_name}) -> {target_name} is not bijective")
    return problems, len(f) // k.mask.bit_count()


def check_L8(ctx: Instance) -> Outcome:
    """Both canonical quotient isomorphisms of M><I: the first projection onto
    M and the coset projection onto M / IM, scalars acting through the first."""
    inst = ctx.inst
    mod = inst.bowtie_module
    zero_cross_im, im_cross_im = ctx.distinguished
    gens = pair_generators(inst.module_pairs, inst.base_module.zero)
    scalars = (gens if inst.ring_pairs is inst.module_pairs
               else pair_generators(inst.ring_pairs, inst.base_ring.zero))
    # gathered once for both projections
    at = (gens, inst.ring_pairs[scalars, 0], mod.add.take(gens, axis=1),
          mod.act.take(scalars, axis=0).take(gens, axis=1))
    firsts = inst.module_pairs[:, 0]
    problems1, q1 = _quotient_iso(firsts, inst.base_module, "first projection",
                                  zero_cross_im, "0 x IM", "M", at)
    base_quo, bproj = quotient_module(inst.base_module, inst.im)
    problems2, q2 = _quotient_iso(bproj.take(firsts), base_quo, "coset projection",
                                  im_cross_im, "IM x IM", "M/IM", at)
    if problems1 or problems2:
        return "fail", "; ".join(problems1 + problems2)
    return "pass", f"quotient sizes {q1} and {q2}"


def check_T_final(ctx: Instance) -> Outcome:
    """Weakly-prime-module characterization of M><I and of 0 x IM."""
    inst = ctx.inst
    if inst.base_module.size == 1:
        return "na", "hypothesis fails: M is the zero module"
    wp_dup = is_weakly_prime_module(inst.bowtie_module, ctx.bowtie_submodules)
    # a fact of M alone; Lat(M) is built first, so a bounded Instance still refuses
    wp_base = derived(inst.base_module, "weakly_prime_module", is_weakly_prime_module,
                      inst.base_module, ctx.base_submodules)
    im_zero = inst.im.is_zero
    zero_cross_im, _ = ctx.distinguished
    wp_sub = ctx.weakly_prime(zero_cross_im, "behboodi")  # N = 0's behboodi rows share it
    note = (
        f"M><I wp-module={wp_dup.holds} IM=0:{im_zero} M wp-module={wp_base.holds}"
        f" 0xIM wp-submodule={wp_sub.holds}"
    )
    pieces = []
    if wp_dup.holds != (im_zero and wp_base.holds):
        inner = wp_dup.witness_text or wp_base.witness_text
        pieces.append(f"part 1 biconditional breaks ({note}); {inner}")
    if wp_sub.holds != wp_base.holds:
        inner = wp_sub.witness_text or wp_base.witness_text
        pieces.append(f"part 2 biconditional breaks ({note}); {inner}")
    if pieces:
        return "fail", "; ".join(pieces)
    return "pass", note


def check_divergence(ctx: Instance) -> Outcome:
    """Probe: af versus behboodi on the zero submodule of the base module.

    A fail outcome means the two definitions disagree there, which is the
    phenomenon this probe exists to surface.
    """
    base = ctx.inst.base_module
    if base.size == 1:
        return "na", "zero module has no proper zero submodule"
    zn = zero_submodule(base)
    af = memo(base, "weakly_prime_af", zn.mask, is_weakly_prime_submodule_af, zn)  # C_WP's key
    bb = is_weakly_prime_submodule_behboodi(zn, ctx.base_submodules)
    if af.holds == bb.holds:
        return "pass", f"af={af.holds} behboodi={bb.holds}: agree"
    loser = bb if not bb.holds else af
    return "fail", f"af={af.holds} behboodi={bb.holds}: definitions disagree; {loser.witness_text}"


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Checker:
    """How one checker runs. fn takes (ctx) when per_instance, otherwise
    (ctx, n, nb, variant, reading): N, the N><I that instance_rows derives
    once per N, and the row's printed cell. It returns (outcome, detail)."""

    fn: Callable[..., Outcome]
    per_instance: bool = False  # once per (ring, ideal), independent of N
    variant: str | None = "-"  # the rows' variant column; None: once per selected variant
    readable: bool = False  # once per reading of the submodule quantifier
    improper_n: bool = False  # also run on N = M
    about_m: bool = False  # per-instance, about M alone: keyed by N = 0 when M != 0

    def cells(self, variants: Sequence[str], readings: Sequence[str]) -> list[tuple[str, str]]:
        """The printed (variant, reading) of each row this checker reports."""
        return [(v, r) for v in (variants if self.variant is None else (self.variant,))
                for r in (readings if self.readable else ("-",))]


# Every checker, in report order. Callers reach a checker only through
# run_checker, looked up by its module-level name, so that per-checker
# timing can wrap that one function.
CHECKERS: dict[str, Checker] = {
    # colon identity (N><I : M><I) = (N : M) >< I
    "L1": Checker(check_L1, improper_n=True),
    # prime, weakly prime (af) and primary submodule transfer, both directions
    "L2": Checker(partial(check_transfer, notion="prime")),
    "C_WP": Checker(partial(check_transfer, notion="weakly_prime_af")),
    "P_PRIMARY": Checker(partial(check_transfer, notion="primary")),
    # weakly prime <=> every colon into a non-contained submodule is a prime
    # ideal; the reading selects the quantifier domain
    "L3i": Checker(check_L3i, variant=None, readable=True),
    # weakly prime => those colons form a chain
    "L3ii": Checker(check_L3ii, variant=None, readable=True),
    # prime <=> primary and weakly prime
    "C_PPW": Checker(check_C_PPW, variant=None),
    # weakly prime <=> unequal element colons force the two-sum intersection
    # identity
    "T4": Checker(check_T4, variant=None),
    # prime => (x in N><I or a(y,y') in N><I) whenever a(x,x') lands in N><I
    "R_T4": Checker(check_R_T4),
    # weakly prime => intersection identity, and irreducible => prime
    "C_IRR": Checker(check_C_IRR, variant=None),
    # weakly prime <=> colon by a product of scalars equals the colon by one
    # factor
    "L_COLON_PROD": Checker(check_L_colon_prod, variant=None),
    # probe: is (N><I : M><I) a weakly prime ideal (fail = counterexample)
    "R_CEX": Checker(check_R_CEX),
    # faithful cyclic M><I and weakly prime N><I => the colon is a weakly
    # prime ideal
    "P_FAITHFUL": Checker(check_P_faithful, variant=None),
    # primary <=> every element colon outside N><I lies in the radical of the
    # big colon
    "L_RADICAL": Checker(check_L_radical),
    # primary => the colon equals Ann(M><I / N><I) and is a primary ideal
    "P_COLON_PRIMARY": Checker(check_P_colon_primary),
    # primary => the radical of the colon is a prime ideal
    "C_RADICAL_PRIME": Checker(check_C_radical_prime),
    # the two canonical quotient isomorphisms of M><I
    "L8": Checker(check_L8, per_instance=True),
    # weakly-prime-module characterization of M><I and the 0 x IM submodule,
    # whose "weakly prime" is Behboodi's
    "T_FINAL": Checker(check_T_final, per_instance=True, variant="behboodi"),
    # probe: do the af and behboodi readings of "weakly prime" agree on the
    # zero submodule of M
    "DIVERGENCE": Checker(check_divergence, per_instance=True, about_m=True),
}

THEOREM_IDS = tuple(CHECKERS)


# ----------------------------------------------------------------- hunt


@dataclass(frozen=True)
class CorpusSpec:
    """A finite instance family: Z_n for 1 <= n <= max_n, every ideal."""

    family: str = "zn"
    max_n: int = 6

    def __post_init__(self) -> None:
        if self.family != "zn":
            raise ValueError(f"unknown corpus family {self.family!r}")
        if self.max_n < 0:
            raise ValueError("max_n must be nonnegative")

    def check_budget(self, budget: int) -> None:
        """Refuse a max_n above the budget. Every Z_n with n > budget is a
        skip, since |M><I| = n*|I| >= n, yet its tasks are listed in time
        quadratic in max_n and each holds a skip row per checker cell."""
        if self.max_n > budget:
            raise ValueError(f"max_n {self.max_n} exceeds the budget {budget};"
                             f" every Z_n with n > {budget} has |M><I| > {budget}")


def normalize_theorems(theorems: Iterable[str] | None) -> tuple[str, ...]:
    """The checker ids a selection names, in registry order. Each value is
    a comma list of ids, 'transfer-all' or 'all', in any case; blank items
    are ignored. None selects every checker, and a selection that names
    none raises ValueError."""
    if theorems is None:
        return THEOREM_IDS
    names = {t.lower(): (t,) for t in THEOREM_IDS}
    names.update({"all": THEOREM_IDS, "transfer-all": ("L2", "C_WP", "P_PRIMARY")})
    chosen = set()
    for token in (token for value in theorems for token in value.split(",")):
        key = token.strip().lower()
        if key and key not in names:
            raise ValueError(f"unknown theorem id {token!r}")
        chosen.update(names.get(key, ()))
    if not chosen:
        raise ValueError("no theorem id given")
    return tuple(t for t in THEOREM_IDS if t in chosen)


def row_cells(theorems: Sequence[str], variants: Sequence[str], readings: Sequence[str],
              ) -> list[tuple[str, str, str]]:
    """The (theorem, variant, reading) of each row the selected checkers report,
    in report order: the per-instance checkers, then the per-submodule ones,
    which instance_rows repeats on each N and a budget skip lists once."""
    chosen = sorted((t for t in THEOREM_IDS if t in theorems),
                    key=lambda t: not CHECKERS[t].per_instance)
    return [(t, v, r) for t in chosen for v, r in CHECKERS[t].cells(variants, readings)]


def run_checker(ctx: Instance, theorem: str, n: Submodule | None, variant: str = "-",
                reading: str = "-", nb: Submodule | None = None, key: str | None = None,
                ) -> TheoremReport:
    """Run a single checker and build its row; n is ignored for per-instance
    checkers, and variant and reading for checkers that do not take them.
    N><I and the row key are derived here unless given as nb and key."""
    checker = CHECKERS.get(theorem)
    if checker is None:
        raise ValueError(f"unknown theorem {theorem!r}")
    if checker.per_instance:
        outcome, detail = checker.fn(ctx)
        base = ctx.inst.base_module
        n = zero_submodule(base) if checker.about_m and base.size > 1 else None
    else:
        assert n is not None
        outcome, detail = checker.fn(ctx, n, ctx.bowtie(n) if nb is None else nb, variant, reading)
    return TheoremReport(ctx.key_for(n) if key is None else key, theorem,
                         variant if checker.variant is None else checker.variant,
                         reading if checker.readable else "-", outcome, detail)


def instance_rows(
    ctx: Instance,
    theorems: Sequence[str],
    variants: Sequence[str],
    readings: Sequence[str],
    submodules: Iterable[Submodule] | None = None,
) -> list[TheoremReport]:
    """The rows of the selected checkers on one instance, in row_cells'
    order: the per-instance checkers, then the per-submodule ones on each N
    of submodules, by default Lat(M). N><I and the row key are derived once
    per N that gets a row, and handed to every checker of that N."""
    cells = row_cells(theorems, variants, readings)
    per_n = [cell for cell in cells if not CHECKERS[cell[0]].per_instance]
    improper = [cell for cell in per_n if CHECKERS[cell[0]].improper_n]
    rows = [run_checker(ctx, t, None) for t, _v, _r in cells if CHECKERS[t].per_instance]
    if per_n:  # per-instance checkers alone build no Lat(M)
        for n in ctx.base_submodules if submodules is None else submodules:
            todo = per_n if n.is_proper else improper
            if todo:
                nb, key = ctx.bowtie(n), ctx.key_for(n)
                rows += [run_checker(ctx, t, n, variant, reading, nb, key)
                         for t, variant, reading in todo]
    return rows


@lru_cache(maxsize=1)
def _zn(n: int) -> tuple[TableRing, TableModule]:
    """Z_n and its regular module. A hunt's tasks ascend by n, so the ideals
    of one Z_n share the memos kept on its module; hunt() clears this cache
    when it ends."""
    ring = make_zn(n)
    return ring, ring_as_module(ring)


def _hunt_task(
    args: tuple[int, tuple[int, ...], tuple[str, ...], tuple[str, ...], tuple[str, ...], int]
) -> list[TheoremReport]:
    n, ideal_members, theorems, variants, readings, budget = args
    # Z_n is labeled 0..n-1, and its regular module has IM = I, so the key
    # and |M><I| = n*|I| are known before any table is built
    key = f"Z{n}|I=" + "{" + ",".join(map(str, ideal_members)) + "}"
    if len(ideal_members) > 1:  # a checker about M alone reports once per Z_n, at I = 0
        theorems = tuple(t for t in theorems if not CHECKERS[t].about_m)
    module_size = n * len(ideal_members)
    if module_size > budget:
        detail = f"budget exceeded: |M><I| = {module_size} > {budget}"
        return [TheoremReport(key, theorem, variant, reading, outcome="skip", detail=detail)
                for theorem, variant, reading in row_cells(theorems, variants, readings)]
    ring, module = _zn(n)
    ideal = Ideal.from_mask(ring, mask_of(ideal_members))  # dZ_n, from hunt
    rows = instance_rows(Instance(ring, ideal, module, key=key), theorems, variants, readings)
    # the per-instance rows come first, one per checker, and L8 is one of them
    per_instance = sum(CHECKERS[t].per_instance for t in theorems)
    if any(r.theorem_id == "L8" and r.outcome == "fail" for r in rows[:per_instance]):
        raise RuntimeError("construction bug: the canonical quotient maps failed on " + key)
    return rows


def hunt(
    corpus: CorpusSpec,
    theorems: Iterable[str] | None = None,
    variants: Sequence[str] | None = None,
    readings: Sequence[str] | None = None,
    workers: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[TheoremReport]:
    """Run the selected checkers over the whole corpus, deterministically.

    The report order is a function of the corpus alone: instances ascend
    by (n, ideal enumeration index), and rows within an instance follow
    submodule enumeration and registry order. Worker count never changes
    the output. A max_n above the budget raises ValueError
    (CorpusSpec.check_budget). The tasks on one Z_n share its module's
    memos in each process (_zn).
    """
    chosen = normalize_theorems(theorems)
    variants = tuple(variants) if variants else VARIANTS
    readings = tuple(readings) if readings else READINGS
    corpus.check_budget(budget)
    # the ideals of Z_n are the dZ_n for the divisors d of n, listed as
    # enumerate_ideals orders them: ascending size, so descending d
    tasks = [(n, tuple(range(0, n, d)), chosen, variants, readings, budget)
             for n in range(1, corpus.max_n + 1) for d in range(n, 0, -1) if n % d == 0]
    # more processes than tasks or cores buy nothing, and all start at once
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    try:
        if workers > 1:
            # imported here: the pool's import stack is for multi-worker hunts only
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunks = list(pool.map(_hunt_task, tasks))
        else:
            chunks = [_hunt_task(t) for t in tasks]
    finally:
        _zn.cache_clear()  # nothing outlives the hunt
    return [row for chunk in chunks for row in chunk]


def serialize_reports(
    reports: Iterable[TheoremReport], header: str | None = None
) -> str:
    lines = [] if header is None else [f"# {header}"]
    lines.extend(r.line() for r in reports)
    return "\n".join(lines) + "\n"


def summarize(reports: Sequence[TheoremReport]) -> str:
    """Pass/fail/na/skip counts per theorem and variant, plus probe firsts."""
    counts: dict[tuple[str, str], dict[str, int]] = {}
    for r in reports:
        cell = counts.setdefault((r.theorem_id, r.variant),
                                 {"pass": 0, "fail": 0, "na": 0, "skip": 0})
        cell[r.outcome] += 1
    lines = ["theorem\tvariant\tpass\tfail\tna\tskip"]
    order = {theorem: i for i, theorem in enumerate(THEOREM_IDS)}
    for (tid, variant), c in sorted(counts.items(), key=lambda item: (order[item[0][0]], item[0])):
        lines.append(f"{tid}\t{variant}\t{c['pass']}\t{c['fail']}\t{c['na']}\t{c['skip']}")
    first_div = next((r for r in reports if r.theorem_id == "DIVERGENCE" and r.outcome == "fail"),
                     None)
    if first_div is not None:
        lines.append(f"first divergence: {first_div.instance_key}: {first_div.detail}")
    skips = sum(1 for r in reports if r.outcome == "skip")
    if skips:
        lines.append(f"budget skips: {skips} (raise BOWTIE_BUDGET to cover them)")
    return "\n".join(lines)
