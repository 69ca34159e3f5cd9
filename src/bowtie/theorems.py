"""Executable checkers for the duplication transfer and structure statements.

Each checker evaluates one numbered claim on one finite instance, as a
biconditional where the claim is stated as one, and returns its outcome
(pass, fail or na) and a detail: a failure's replayable witness, or else a
note. run_checker builds the report row. The hunter sweeps a corpus of Z_n instances
deterministically, so report files are byte-stable across worker counts.

The checkers, and how each one is run, are the entries of CHECKERS, in
report order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .rings import (
    Ideal,
    TableRing,
    bits,
    ideal_radical,
    lowest_bit,
    make_zn,
    mask_of,
    memo,
    narrow_dtype,
    pack_rows,
    row_images,
)
from .modules import (
    ModuleMap,
    Submodule,
    TableModule,
    annihilator,
    check_module_map,
    colon_into_ring,
    cosets,
    enumerate_submodules,
    image,
    is_cyclic,
    kernel,
    quotient_module,
    ring_as_module,
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
)
from .duplication import (
    BowtieInstance,
    build_bowtie,
    bowtie_submodule,
    distinguished_submodules,
    pairs_in,
    restrict_scalars,
)

READINGS = ("bowtie", "all-submodules")

DEFAULT_BUDGET = 256


def default_budget() -> int:
    """The |M><I| cap, overridable through the BOWTIE_BUDGET variable."""
    raw = os.environ.get("BOWTIE_BUDGET", "")
    if raw.strip():
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"BOWTIE_BUDGET must be an integer, got {raw!r}") from exc
    return DEFAULT_BUDGET


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
    """A built duplication plus memoized enumerations shared by checkers;
    each lattice may hold at most ``lattice_limit`` submodules. What does
    not depend on I (Lat(M), N's verdicts, the colon (N : M)) is kept on M
    (rings.memo), so every Instance over one module object shares it."""

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
        # every memo is keyed by mask: a tuple of members rehashes on each lookup
        self._bowtie_n: dict[int, Submodule] = {}
        self._colon: dict[tuple[int, int], Ideal] = {}
        self._prime: dict[int, Verdict] = {}
        self._primary: dict[int, Verdict] = {}
        self._wp: dict[tuple[int, str], Verdict] = {}
        self._npack: dict[int, dict] = {}
        self._facts: dict[tuple[str, int, str], Any] = {}

    def fact(self, what: str, n: Submodule, compute: Callable[[], Any], reading: str = "-") -> Any:
        """compute(), a fact about one submodule n that no variant changes,
        computed once per (what, n, reading)."""
        key = (what, n.mask, reading)
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    def key_for(self, n: Submodule | None) -> str:
        if n is None:
            return self.base_key
        return self.fact("key", n, lambda: f"{self.base_key}|N={n.label_set()}")

    @cached_property
    def base_submodules(self) -> list[Submodule]:
        module, limit = self.inst.base_module, self.lattice_limit
        # kept on M as (mask, members) pairs, which refer to no module
        lattice = memo(module, "lattice", limit, lambda: [
            (n.mask, n.members) for n in enumerate_submodules(module, limit)])
        return [Submodule.from_mask(module, mask, members) for mask, members in lattice]

    @cached_property
    def bowtie_submodules(self) -> list[Submodule]:
        return enumerate_submodules(self.inst.bowtie_module, self.lattice_limit)

    @cached_property
    def bowtie_whole(self) -> Submodule:
        return whole_submodule(self.inst.bowtie_module)

    @cached_property
    def distinguished(self) -> tuple[Submodule, Submodule]:
        """0 x IM and IM x IM, shared by L8 and T_final."""
        return distinguished_submodules(self.inst)

    @cached_property
    def faithful_cyclic(self) -> tuple[bool, bool]:
        """Whether M><I is faithful, and whether it is cyclic."""
        return annihilator(self.bowtie_whole).is_zero, is_cyclic(self.inst.bowtie_module).holds

    @cached_property
    def bowtie_images(self) -> tuple[int, ...]:
        """images[a] = a*(M><I), as masks."""
        mod = self.inst.bowtie_module
        return row_images(mod.act, mod.size)

    def bowtie(self, n: Submodule) -> Submodule:
        key = n.mask
        if key not in self._bowtie_n:
            self._bowtie_n[key] = bowtie_submodule(self.inst, n)
        return self._bowtie_n[key]

    def colon(self, nb: Submodule, k: Submodule | None = None) -> Ideal:
        """(N><I : K) for a submodule K of M><I, by default M><I itself;
        built once per (N><I, K) and shared by L1, L3i, L3ii and the rest."""
        k = self.bowtie_whole if k is None else k
        key = (nb.mask, k.mask)
        if key not in self._colon:
            self._colon[key] = colon_into_ring(nb, k)
        return self._colon[key]

    def prime(self, nb: Submodule) -> Verdict:
        key = nb.mask
        if key not in self._prime:
            self._prime[key] = is_prime_submodule(nb)
        return self._prime[key]

    def primary(self, nb: Submodule) -> Verdict:
        key = nb.mask
        if key not in self._primary:
            self._primary[key] = is_primary_submodule(nb)
        return self._primary[key]

    def weakly_prime(self, nb: Submodule, variant: str) -> Verdict:
        key = (nb.mask, variant)
        if key not in self._wp:
            subs = None if variant == "af" else self.bowtie_submodules  # af reads no lattice
            self._wp[key] = weakly_prime_submodule(nb, variant, subs)
        return self._wp[key]

    def npack(self, nb: Submodule) -> dict:
        """Per-N geometry shared by T4, C_IRR and L_RADICAL, as masks.

        sum_ids[x]: id of the submodule N><I + Ax, numbered by first
        appearance; sum_masks[id]: its members; sum_members[id]: the x with
        that id. col_ids[x]: id of the element colon {a : a x in N><I};
        col_masks[id]: its members; col_members[id]: the x with that id.
        bad_y[id]: the y whose sum meets sum id ``id`` in more than N><I.
        Both maps are constant on each coset x + N><I (a(x + n) lies in
        ax + N><I), so they are computed once per coset; ascending x meets
        the cosets in id order, so the numbering is the one over all x.
        """
        key = nb.mask
        if key in self._npack:
            return self._npack[key]
        mod = self.inst.bowtie_module
        coset, reps = cosets(nb)
        r = len(reps)
        ids = coset.tolist()
        cos = coset.take(mod.act.take(reps, axis=1))  # cos[a, c]: coset of a*reps[c]
        # N + Ax is the union of the cosets of N that meet Ax: column x of cos
        sum_index: dict[int, int] = {}
        rep_sum = [sum_index.setdefault(m, len(sum_index)) for m in row_images(cos.T, r)]
        sum_ids = [rep_sum[c] for c in ids]
        members = _members_by_id(ids, r)  # each coset's members
        sum_masks = [sum(members[c] for c in bits(m)) for m in sum_index]  # disjoint unions
        # the colon of reps[c] is column c of the preimage table: a*reps[c] in N
        col_index: dict[int, int] = {}
        rep_col = [col_index.setdefault(c, len(col_index))
                   for c in pack_rows((cos == ids[mod.zero]).T)]
        col_ids = [rep_col[c] for c in ids]
        sum_members = _members_by_id(sum_ids, len(sum_masks))
        n_mask = nb.mask
        bad_y = []
        for s in sum_masks:
            bad = 0
            for t, other in enumerate(sum_masks):
                if s & other != n_mask:
                    bad |= sum_members[t]
            bad_y.append(bad)
        pack = {
            "sum_ids": sum_ids,
            "sum_masks": sum_masks,
            "sum_members": sum_members,
            "col_ids": col_ids,
            "col_masks": list(col_index),
            "col_members": _members_by_id(col_ids, len(col_index)),
            "bad_y": bad_y,
            "n_mask": n_mask,
        }
        self._npack[key] = pack
        return pack


def _members_by_id(ids: list[int], count: int) -> list[int]:
    """For each id, the mask of the positions that carry it."""
    out = [0] * count
    for x, i in enumerate(ids):
        out[i] |= 1 << x
    return out


def make_zn_instance(n: int, ideal_members: Iterable[int]) -> Instance:
    """Convenience builder: Z_n with its regular module."""
    ring = make_zn(n)
    ideal = Ideal(ring, ideal_members)
    return Instance(ring, ideal, ring_as_module(ring))


# -------------------------------------------------------------- checkers


def check_L1(ctx: Instance, n: Submodule) -> tuple[str, str]:
    """(N><I : M><I) must decode to {(a, a+i) : a in (N:M), i in I}."""
    inst = ctx.inst
    nb = ctx.bowtie(n)
    lhs = ctx.colon(nb)
    base_colon = memo(n.module, "colon", n.mask,
                      lambda: colon_into_ring(n, whole_submodule(n.module)).mask)
    # (N:M)><I: the pairs (a, a+i) whose first component lies in (N:M)
    rhs = pairs_in(inst.ring_pairs, 0, base_colon, inst.base_ring.size)
    if lhs.mask == rhs:
        return "pass", f"both sides = {lhs.label_set()}"
    first_diff = lowest_bit(lhs.mask ^ rhs)
    side = "left only" if lhs.mask >> first_diff & 1 else "right only"
    return "fail", (f"{inst.bowtie_ring.labels[first_diff]} is on one side only ({side});"
                    f" colon={lhs.label_set()}")


def check_transfer(ctx: Instance, n: Submodule, notion: str) -> tuple[str, str]:
    """notion(N) must agree with notion(N><I), in both directions."""
    # predicates are called by their module-level names, so a wrapper on those
    # names (perfbench/tracer.py) sees every call; N's verdicts are kept on M,
    # N><I's on the instance
    nb = ctx.bowtie(n)
    if notion == "prime":
        noun = "prime"
        vb = memo(n.module, notion, n.mask, lambda: is_prime_submodule(n))
        vd = ctx.prime(nb)
    elif notion == "weakly_prime_af":
        noun = "weakly prime (af)"
        vb = memo(n.module, notion, n.mask, lambda: is_weakly_prime_submodule_af(n))
        vd = ctx.weakly_prime(nb, "af")
    elif notion == "primary":
        noun = "primary"
        vb = memo(n.module, notion, n.mask, lambda: is_primary_submodule(n))
        vd = ctx.primary(nb)
    else:
        raise ValueError(f"unknown transfer notion {notion!r}")
    if vb.holds == vd.holds:
        return "pass", f"base={vb.holds} duplicate={vd.holds}"
    if vb.holds:
        return "fail", (f"statement gap (base to duplicate): N is {noun} but N><I is not;"
                        f" {vd.witness_text}")
    return "fail", (f"statement gap (duplicate to base): N><I is {noun} but N is not;"
                    f" {vb.witness_text}")


def _iff(
    lhs: Verdict, lhs_name: str, noun: str, violation: str, cond_name: str, cond_holds: str,
) -> tuple[str, str]:
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
    for k in _quantifier_domain(ctx, reading):
        if k.mask & nb.mask == k.mask:
            continue
        col = ctx.colon(nb, k)
        v = ideal_is_prime(col.ring, col.mask)
        if not v.holds:
            return f"K={k.label_set()} gives colon {col.label_set()}, not prime: {v.witness_text}"
    return ""


def check_L3i(ctx: Instance, n: Submodule, variant: str, reading: str) -> tuple[str, str]:
    """Weakly prime <=> every colon into a non-contained K is a prime ideal."""
    nb = ctx.bowtie(n)
    return _iff(ctx.weakly_prime(nb, variant), "weakly_prime", f"weakly prime ({variant})",
                ctx.fact("L3i", nb, lambda: non_prime_colon(ctx, nb, reading), reading),
                "all-colons-prime", "every eligible colon is prime")


def colon_chain_violation(ctx: Instance, nb: Submodule, reading: str) -> str:
    """Witness of the first K, L of the domain, neither inside N><I, whose
    colons are incomparable; "" when the colons form a chain.

    The colons form a chain when their distinct masks, sorted by size, each
    lie inside the next; only a violation pays for the search over pairs
    that names the lex-first one.
    """
    domain = [
        k for k in _quantifier_domain(ctx, reading)
        if k.mask & nb.mask != k.mask
    ]
    colons = [ctx.colon(nb, k).mask for k in domain]
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
                return (
                    f"K={domain[i].label_set()} L={domain[j].label_set()}:"
                    f" colon(K) has {onlya} outside colon(L),"
                    f" colon(L) has {onlyb} outside colon(K)"
                )
    return ""


def check_L3ii(ctx: Instance, n: Submodule, variant: str, reading: str) -> tuple[str, str]:
    """Weakly prime => colons into non-contained submodules form a chain."""
    nb = ctx.bowtie(n)
    if not ctx.weakly_prime(nb, variant).holds:
        return "na", f"hypothesis fails: N><I is not weakly prime ({variant})"
    witness = ctx.fact("L3ii", nb, lambda: colon_chain_violation(ctx, nb, reading), reading)
    if witness:
        return "fail", witness
    return "pass", "colons form a chain"


def check_C_PPW(ctx: Instance, n: Submodule, variant: str) -> tuple[str, str]:
    """Prime <=> primary and weakly prime."""
    nb = ctx.bowtie(n)
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
    sum_ids, sum_masks, col_ids = pack["sum_ids"], pack["sum_masks"], pack["col_ids"]
    for x, sx in enumerate(sum_ids):
        bad = pack["bad_y"][sx] & ~pack["col_members"][col_ids[x]]
        if bad:
            y = lowest_bit(bad)
            extra = lowest_bit(sum_masks[sx] & sum_masks[sum_ids[y]] & ~pack["n_mask"])
            labels = ctx.inst.bowtie_module.labels
            return (
                f"x={labels[x]} y={labels[y]}: colons differ but the"
                f" intersection keeps {labels[extra]} outside N><I"
            )
    return ""


def check_T4(ctx: Instance, n: Submodule, variant: str) -> tuple[str, str]:
    """Weakly prime <=> unequal element colons force the two-sum identity."""
    nb = ctx.bowtie(n)
    return _iff(ctx.weakly_prime(nb, variant), "weakly_prime", f"weakly prime ({variant})",
                ctx.fact("T4", nb, lambda: t4_violation(ctx, nb)),
                "intersection-condition", "the intersection condition holds")


def check_R_T4(ctx: Instance, n: Submodule) -> tuple[str, str]:
    """For prime N><I: a(x,x') in N><I forces x in N><I or a(y,y') in N><I."""
    nb = ctx.bowtie(n)
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
    sum_ids, bad_y, sum_members = pack["sum_ids"], pack["bad_y"], pack["sum_members"]
    inst = ctx.inst
    pre = [0] * inst.bowtie_ring.size  # pre[a], from N><I's scalar classes
    for p, scalars in nb.classes:
        for a in bits(scalars):
            pre[a] = p
    for a, xs in enumerate(pre):
        image = ctx.bowtie_images[a]
        bad_x = 0
        for s, bad in enumerate(bad_y):
            if image & bad:
                bad_x |= sum_members[s]
        bad_x &= xs
        if bad_x:
            x = lowest_bit(bad_x)
            row = inst.bowtie_module.act[a].tolist()
            targets = bad_y[sum_ids[x]]
            y = next(y for y, ay in enumerate(row) if targets >> ay & 1)
            labels = inst.bowtie_module.labels
            return (
                f"a={inst.bowtie_ring.labels[a]} x={labels[x]}"
                f" y={labels[y]}: ax in N><I but the intersection"
                " identity fails"
            )
    return ""


def check_C_IRR(ctx: Instance, n: Submodule, variant: str) -> tuple[str, str]:
    """Under weakly prime N><I: the intersection identity, and irreducible => prime."""
    nb = ctx.bowtie(n)
    if not ctx.weakly_prime(nb, variant).holds:
        return "na", f"hypothesis fails: N><I is not weakly prime ({variant})"
    part1_witness = ctx.fact("C_IRR", nb, lambda: c_irr_identity_violation(ctx, nb))
    irr = ctx.fact("irreducible", nb,
                   lambda: is_irreducible_submodule(nb, ctx.bowtie_submodules))
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
    cid = np.empty(ring.size, dtype=narrow_dtype(0, len(classes) - 1))  # each scalar's class
    for i, (_p, scalars) in enumerate(classes):
        cid[bits(scalars)] = i
    prod = cid.take(ring.mul)
    bad = (prod != cid[:, None]) & (prod != cid[None, :])
    if not bad.any():
        return ""
    s1, s2 = divmod(int(bad.argmax()), ring.size)
    return (
        f"s={ring.labels[s1]} t={ring.labels[s2]}: (N><I : st) matches neither"
        f" (N><I : s) nor (N><I : t)"
    )


def check_L_colon_prod(ctx: Instance, n: Submodule, variant: str) -> tuple[str, str]:
    """Weakly prime <=> colon by a scalar product equals a factor colon."""
    nb = ctx.bowtie(n)
    return _iff(ctx.weakly_prime(nb, variant), "weakly_prime", f"weakly prime ({variant})",
                ctx.fact("L_COLON_PROD", nb, lambda: colon_product_violation(ctx, nb)),
                "colon-product-condition", "the colon condition holds")


def check_R_CEX(ctx: Instance, n: Submodule) -> tuple[str, str]:
    """Probe: fail exactly when (N><I : M><I) is not a weakly prime ideal."""
    nb = ctx.bowtie(n)
    col = ctx.colon(nb)
    v = ctx.fact("wp_colon", nb, lambda: is_weakly_prime_ideal(col))
    if v.holds:
        return "pass", f"colon {col.label_set()} is a weakly prime ideal"
    return "fail", f"colon {col.label_set()} is not weakly prime: {v.witness_text}"


def check_P_faithful(ctx: Instance, n: Submodule, variant: str) -> tuple[str, str]:
    """Faithful cyclic M><I with weakly prime N><I: colon is weakly prime."""
    nb = ctx.bowtie(n)
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
    v = ctx.fact("wp_colon", nb, lambda: is_weakly_prime_ideal(ctx.colon(nb)))
    if v.holds:
        return "pass", "colon is a weakly prime ideal"
    return "fail", f"colon is not a weakly prime ideal: {v.witness_text}"


def check_L_radical(ctx: Instance, n: Submodule) -> tuple[str, str]:
    """Primary <=> every element colon outside N><I sits inside the radical."""
    nb = ctx.bowtie(n)
    lhs = ctx.primary(nb)
    mod = ctx.inst.bowtie_module
    rad = ideal_radical(ctx.colon(nb)).mask
    pack = ctx.npack(nb)
    violation = ""
    for b, cb in enumerate(pack["col_ids"]):
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


def check_P_colon_primary(ctx: Instance, n: Submodule) -> tuple[str, str]:
    """For primary N><I: colon = Ann(M><I / N><I) and it is a primary ideal."""
    nb = ctx.bowtie(n)
    col = ctx.colon(nb)
    quo, _ = quotient_module(ctx.inst.bowtie_module, nb)
    ann = annihilator(whole_submodule(quo))
    if ann.mask != col.mask:
        return "fail", (f"colon {col.label_set()} differs from the quotient annihilator"
                        f" {ann.label_set()}")
    if not ctx.primary(nb).holds:
        return "na", "hypothesis fails: N><I is not primary (annihilator identity verified)"
    v = is_primary_ideal(col)
    if v.holds:
        return "pass", f"colon = quotient annihilator = {col.label_set()}, primary"
    return "fail", f"colon is not a primary ideal: {v.witness_text}"


def check_C_radical_prime(ctx: Instance, n: Submodule) -> tuple[str, str]:
    """For primary N><I: the radical of the colon is a prime ideal."""
    nb = ctx.bowtie(n)
    if not ctx.primary(nb).holds:
        return "na", "hypothesis fails: N><I is not primary"
    rad = ideal_radical(ctx.colon(nb))
    v = ideal_is_prime(rad.ring, rad.mask)
    if v.holds:
        return "pass", f"radical {rad.label_set()} is prime"
    return "fail", f"radical {rad.label_set()} is not prime: {v.witness_text}"


def _induced_map(
    source_quotient: TableModule,
    projection: ModuleMap,
    f: ModuleMap,
) -> ModuleMap:
    """The map the quotient inherits from f along the projection."""
    table = [-1] * source_quotient.size
    for x in range(f.source.size):
        c = projection.table[x]
        if table[c] < 0:
            table[c] = f.table[x]
    return ModuleMap(source=source_quotient, target=f.target, table=tuple(table))


def _quotient_iso(
    f: ModuleMap, name: str, k: Submodule, k_name: str, target_name: str,
) -> tuple[list[str], int]:
    """The reasons f: M><I -> T fails to be a surjective module map with
    kernel K that induces M><I / K = T (none when it is one), and |M><I / K|."""
    problems = []
    if not check_module_map(f):
        problems.append(f"{name} is not a module map")
    if len(image(f)) != f.target.size:
        problems.append(f"{name} is not surjective")
    if kernel(f).members != k.members:
        problems.append(f"kernel of the {name} is not {k_name}")
    q, proj = quotient_module(f.source, k)
    g = _induced_map(q, proj, f)
    if not check_module_map(g) or len(set(g.table)) != q.size or q.size != f.target.size:
        problems.append(f"induced map M><I / ({k_name}) -> {target_name} is not bijective")
    return problems, q.size


def check_L8(ctx: Instance) -> tuple[str, str]:
    """Both canonical quotient isomorphisms of M><I, by explicit maps."""
    inst = ctx.inst
    mod = inst.bowtie_module
    zero_cross_im, im_cross_im = ctx.distinguished
    # the first projection onto M and the coset projection onto M / IM, both
    # with scalars acting through the first component
    firsts = inst.module_pairs[:, 0]
    first = ModuleMap(mod, restrict_scalars(inst, "first"), tuple(firsts.tolist()))
    problems1, q1 = _quotient_iso(first, "first projection", zero_cross_im, "0 x IM", "M")
    base_quo, bproj = quotient_module(inst.base_module, inst.im)
    coset = ModuleMap(mod, restrict_scalars(inst, "first", base_quo),
                      tuple(np.take(bproj.table, firsts).tolist()))
    problems2, q2 = _quotient_iso(coset, "coset projection", im_cross_im, "IM x IM", "M/IM")
    if problems1 or problems2:
        return "fail", "; ".join(problems1 + problems2)
    return "pass", f"quotient sizes {q1} and {q2}"


def check_T_final(ctx: Instance) -> tuple[str, str]:
    """Weakly-prime-module characterization of M><I and of 0 x IM."""
    inst = ctx.inst
    if inst.base_module.size == 1:
        return "na", "hypothesis fails: M is the zero module"
    wp_dup = is_weakly_prime_module(inst.bowtie_module, ctx.bowtie_submodules)
    wp_base = memo(inst.base_module, "weakly_prime_module", ctx.lattice_limit,
                   lambda: is_weakly_prime_module(inst.base_module, ctx.base_submodules))
    im_zero = inst.im.is_zero
    zero_cross_im, _ = ctx.distinguished
    wp_sub = is_weakly_prime_submodule_behboodi(zero_cross_im, ctx.bowtie_submodules)
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


def check_divergence(ctx: Instance) -> tuple[str, str]:
    """Probe: af versus behboodi on the zero submodule of the base module.

    A fail outcome means the two definitions disagree there, which is the
    phenomenon this probe exists to surface.
    """
    base = ctx.inst.base_module
    if base.size == 1:
        return "na", "zero module has no proper zero submodule"
    zn = zero_submodule(base)
    af = is_weakly_prime_submodule_af(zn)
    bb = is_weakly_prime_submodule_behboodi(zn, ctx.base_submodules)
    if af.holds == bb.holds:
        return "pass", f"af={af.holds} behboodi={bb.holds}: agree"
    loser = bb if not bb.holds else af
    return "fail", f"af={af.holds} behboodi={bb.holds}: definitions disagree; {loser.witness_text}"


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Checker:
    """How one checker runs. fn takes (ctx) when per_instance, otherwise
    (ctx, n), then a variant if varianted and a reading if readable, and
    returns (outcome, detail)."""

    fn: Callable[..., tuple[str, str]]
    per_instance: bool = False  # once per (ring, ideal), independent of N
    varianted: bool = False  # once per weakly-prime definition variant
    readable: bool = False  # once per reading of the submodule quantifier
    improper_n: bool = False  # also run on N = M
    variant_column: str = "-"  # the rows' variant column when not varianted
    zero_n_key: bool = False  # per-instance, but keyed by N = 0 when M != 0

    def cells(self, variants: Sequence[str], readings: Sequence[str]) -> list[tuple[str, str]]:
        """The (variant, reading) pairs this checker reports a row for."""
        return [(v, r) for v in (variants if self.varianted else ("-",))
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
    "L3i": Checker(check_L3i, varianted=True, readable=True),
    # weakly prime => those colons form a chain
    "L3ii": Checker(check_L3ii, varianted=True, readable=True),
    # prime <=> primary and weakly prime
    "C_PPW": Checker(check_C_PPW, varianted=True),
    # weakly prime <=> unequal element colons force the two-sum intersection
    # identity
    "T4": Checker(check_T4, varianted=True),
    # prime => (x in N><I or a(y,y') in N><I) whenever a(x,x') lands in N><I
    "R_T4": Checker(check_R_T4),
    # weakly prime => intersection identity, and irreducible => prime
    "C_IRR": Checker(check_C_IRR, varianted=True),
    # weakly prime <=> colon by a product of scalars equals the colon by one
    # factor
    "L_COLON_PROD": Checker(check_L_colon_prod, varianted=True),
    # probe: is (N><I : M><I) a weakly prime ideal (fail = counterexample)
    "R_CEX": Checker(check_R_CEX),
    # faithful cyclic M><I and weakly prime N><I => the colon is a weakly
    # prime ideal
    "P_FAITHFUL": Checker(check_P_faithful, varianted=True),
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
    "T_FINAL": Checker(check_T_final, per_instance=True, variant_column="behboodi"),
    # probe: do the af and behboodi readings of "weakly prime" agree on the
    # zero submodule of M
    "DIVERGENCE": Checker(check_divergence, per_instance=True, zero_n_key=True),
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
    if theorems is None:
        return THEOREM_IDS
    by_lower = {t.lower(): t for t in THEOREM_IDS}
    out = []
    for t in theorems:
        key = t.strip().lower()
        if key == "transfer-all":
            out.extend(["L2", "C_WP", "P_PRIMARY"])
            continue
        if key not in by_lower:
            raise ValueError(f"unknown theorem id {t!r}")
        out.append(by_lower[key])
    # stable registry order, deduplicated
    chosen = set(out)
    return tuple(t for t in THEOREM_IDS if t in chosen)


def run_checker(
    ctx: Instance,
    theorem: str,
    n: Submodule | None,
    variant: str = "-",
    reading: str = "-",
) -> TheoremReport:
    """Run a single checker and build its row; n is ignored for per-instance
    checkers, and variant and reading for checkers that do not take them."""
    checker = CHECKERS.get(theorem)
    if checker is None:
        raise ValueError(f"unknown theorem {theorem!r}")
    if checker.per_instance:
        outcome, detail = checker.fn(ctx)
        base = ctx.inst.base_module
        n = zero_submodule(base) if checker.zero_n_key and base.size > 1 else None
    else:
        assert n is not None
        args = [ctx, n]
        if checker.varianted:
            args.append(variant)
        if checker.readable:
            args.append(reading)
        outcome, detail = checker.fn(*args)
    return TheoremReport(
        ctx.key_for(n), theorem, variant if checker.varianted else checker.variant_column,
        reading if checker.readable else "-", outcome, detail,
    )


# (theorem, its registry entry, the (variant, reading) cells it reports)
Cells = list[tuple[str, Checker, list[tuple[str, str]]]]


def _checker_cells(
    theorems: Sequence[str], variants: Sequence[str], readings: Sequence[str]
) -> Cells:
    """Each selected checker, in the order of theorems, with its cells."""
    return [(t, CHECKERS[t], CHECKERS[t].cells(variants, readings)) for t in theorems]


def _submodule_rows(ctx: Instance, n: Submodule, cells: Cells) -> list[TheoremReport]:
    proper = n.is_proper
    return [
        run_checker(ctx, theorem, n, variant, reading)
        for theorem, checker, pairs in cells
        if not checker.per_instance and (proper or checker.improper_n)
        for variant, reading in pairs
    ]


def rows_for_submodule(
    ctx: Instance,
    n: Submodule,
    theorems: Sequence[str],
    variants: Sequence[str],
    readings: Sequence[str],
) -> list[TheoremReport]:
    """Rows of every selected per-submodule checker on one N, in the order
    of theorems."""
    return _submodule_rows(ctx, n, _checker_cells(theorems, variants, readings))


def instance_rows(
    ctx: Instance, theorems: Sequence[str], zero_ideal_probe: bool = True
) -> list[TheoremReport]:
    """Rows of every selected per-instance checker, in registry order.

    DIVERGENCE looks only at M, not at I; zero_ideal_probe=False leaves it out.
    """
    return [
        run_checker(ctx, theorem, None)
        for theorem, checker in CHECKERS.items()
        if checker.per_instance and theorem in theorems
        and (zero_ideal_probe or theorem != "DIVERGENCE")
    ]


def run_instance(
    ctx: Instance,
    theorems: Sequence[str],
    variants: Sequence[str],
    readings: Sequence[str],
    zero_ideal_probe: bool = True,
) -> list[TheoremReport]:
    """All selected checker rows for one instance, in canonical order."""
    rows = instance_rows(ctx, theorems, zero_ideal_probe)
    if any(r.theorem_id == "L8" and r.outcome == "fail" for r in rows):
        raise RuntimeError(
            "construction bug: the canonical quotient maps failed on " + ctx.base_key
        )
    cells = _checker_cells(theorems, variants, readings)
    if any(not checker.per_instance for _t, checker, _c in cells):
        for n in ctx.base_submodules:
            rows.extend(_submodule_rows(ctx, n, cells))
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
    module_size = n * len(ideal_members)
    if module_size > budget:
        detail = f"budget exceeded: |M><I| = {module_size} > {budget}"
        return [
            TheoremReport(key, theorem, variant, reading, outcome="skip", detail=detail)
            for theorem, _checker, pairs in _checker_cells(theorems, variants, readings)
            for variant, reading in pairs
        ]
    ring, module = _zn(n)
    ideal = Ideal.from_mask(ring, mask_of(ideal_members))  # dZ_n, from hunt
    ctx = Instance(ring, ideal, module, key=key)
    return run_instance(ctx, theorems, variants, readings, zero_ideal_probe=ideal.is_zero)


def hunt(
    corpus: CorpusSpec,
    theorems: Iterable[str] | None = None,
    variants: Sequence[str] | None = None,
    readings: Sequence[str] | None = None,
    workers: int = 0,
    budget: int | None = None,
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
    budget = default_budget() if budget is None else budget
    corpus.check_budget(budget)
    # the ideals of Z_n are the dZ_n for the divisors d of n, listed as
    # enumerate_ideals orders them: ascending size, so descending d
    tasks = [
        (n, tuple(range(0, n, d)), chosen, variants, readings, budget)
        for n in range(1, corpus.max_n + 1)
        for d in range(n, 0, -1)
        if n % d == 0
    ]
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
    for theorem in THEOREM_IDS:
        for (tid, variant), cell in sorted(counts.items()):
            if tid != theorem:
                continue
            lines.append(
                f"{tid}\t{variant}\t{cell['pass']}\t{cell['fail']}\t{cell['na']}\t{cell['skip']}"
            )
    first_div = next(
        (r for r in reports if r.theorem_id == "DIVERGENCE" and r.outcome == "fail"),
        None,
    )
    if first_div is not None:
        lines.append(f"first divergence: {first_div.instance_key}: {first_div.detail}")
    skips = sum(1 for r in reports if r.outcome == "skip")
    if skips:
        lines.append(f"budget skips: {skips} (raise BOWTIE_BUDGET to cover them)")
    return "\n".join(lines)
