"""Brute-force reference implementations, for tests only.

Everything here recomputes results from first principles with no shared
code paths: substructure enumeration by powerset filtering, primality by
direct quantifier evaluation, primary-ness by the literal exists-k
definition. Intended for carriers of at most 16 elements; the axiom
sweeps, the frozenset kernels, and the library's earlier element-wise
npack, per-scalar preimage kernel, pairwise lattice edges and pairwise
colon chain take larger carriers. Loops read a table through one ``.tolist()`` per call, so they
index Python ints, not numpy scalars.
"""

from itertools import combinations

import numpy as np

from bowtie import theorems
from bowtie.classify import Verdict, is_weakly_prime_module
from bowtie.modules import (
    Submodule, TableModule, check_module_map, cosets, enumerate_submodules, quotient_module,
)
from bowtie.rings import Ideal, TableRing, lowest_bit, mask_of


def _subsets_with_zero(size: int, zero: int):
    rest = [i for i in range(size) if i != zero]
    for r in range(len(rest) + 1):
        for comb in combinations(rest, r):
            yield frozenset((zero,) + comb)


def brute_submodules(module: TableModule) -> list[frozenset[int]]:
    """Every action- and addition-closed subset containing zero."""
    out = []
    add, act = module.add.tolist(), module.act.tolist()
    for s in _subsets_with_zero(module.size, module.zero):
        if not all(add[a][b] in s for a in s for b in s):
            continue
        if not all(row[m] in s for row in act for m in s):
            continue
        out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def join_submodules(module: TableModule) -> list[tuple[int, ...]]:
    """Every submodule as a join of cyclic ones, by pointwise frozenset sums.

    Closes the cyclic submodules under K + Rg = {k + y : k in K, y in Rg}
    and sorts by (size, members); takes carriers far beyond
    ``brute_submodules``.
    """
    add, act = module.add.tolist(), module.act.tolist()
    cyclics = [frozenset((module.zero,))]
    seen = set(cyclics)
    for g in range(module.size):
        c = frozenset(row[g] for row in act)
        if c not in seen:
            seen.add(c)
            cyclics.append(c)
    found = set(cyclics)
    work = list(cyclics)
    while work:
        cur = work.pop()
        for c in cyclics:
            if c <= cur:
                continue
            joined = frozenset(add[x][y] for x in cur for y in c)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    return sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t))


def module_map_holds(table, source: TableModule, target: TableModule, through=None) -> bool:
    """f(x+y) = f(x)+f(y) for every pair and f(sx) = s f(x) for every (s, x),
    f being the table and each scalar s of the source acting on the target as
    the target's scalar through[s] (s itself by default)."""
    t = np.asarray(table).tolist()
    through = range(source.ring.size) if through is None else np.asarray(through).tolist()
    src_add, tgt_add = source.add.tolist(), target.add.tolist()
    src_act, tgt_act = source.act.tolist(), target.act.tolist()
    for x in range(source.size):
        for y in range(source.size):
            if t[src_add[x][y]] != tgt_add[t[x]][t[y]]:
                return False
    for s in range(source.ring.size):
        for x in range(source.size):
            if t[src_act[s][x]] != tgt_act[through[s]][t[x]]:
                return False
    return True


def additive_closure(add: np.ndarray, gens) -> frozenset[int]:
    """Every sum of one or more elements of gens, added one generator at a
    time until nothing new appears: in a finite group, the subgroup they
    generate."""
    add, gens = add.tolist(), list(gens)
    found, frontier = set(gens), set(gens)
    while frontier:
        frontier = {add[x][g] for x in frontier for g in gens} - found
        found |= frontier
    return frozenset(found)


def induced_map(source_quotient: TableModule, projection, f) -> list[int]:
    """The table of the map the quotient inherits from f along the projection,
    entry by entry: f at the first x of each coset (the library's loop before
    L8 read it off the projection in one call)."""
    proj, values = np.asarray(projection).tolist(), np.asarray(f).tolist()
    table = [-1] * source_quotient.size
    for x, c in enumerate(proj):
        if table[c] < 0:
            table[c] = values[x]
    return table


def brute_ideals(ring: TableRing) -> list[frozenset[int]]:
    out = []
    add, mul = ring.add.tolist(), ring.mul.tolist()
    for s in _subsets_with_zero(ring.size, ring.zero):
        if not all(add[a][b] in s for a in s for b in s):
            continue
        if not all(row[m] in s for row in mul for m in s):
            continue
        out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def _powers(mul: list[list[int]], a: int):
    """a, a**2, ..., a**k for the k x k multiplication table ``mul``."""
    p = a
    for _ in range(len(mul)):
        yield p
        p = mul[p][a]


def brute_radical(ring: TableRing, members: frozenset[int]) -> frozenset[int]:
    mul = ring.mul.tolist()
    return frozenset(
        a for a in range(ring.size) if any(p in members for p in _powers(mul, a))
    )


def brute_primary_ideal(ring: TableRing, members: frozenset[int]) -> bool:
    """Literal definition: ab in J forces a in J or some power of b in J."""
    if len(members) == ring.size:
        raise ValueError("improper")
    mul = ring.mul.tolist()
    for a in range(ring.size):
        for b in range(ring.size):
            if mul[a][b] not in members:
                continue
            if a in members:
                continue
            if not any(p in members for p in _powers(mul, b)):
                return False
    return True


def brute_primary_submodule(n: Submodule) -> bool:
    """Literal definition: ax in N, x outside N forces a^k M inside N."""
    module = n.module
    ring = module.ring
    if len(n) == module.size:
        raise ValueError("improper")
    everything = range(module.size)
    act, mul = module.act.tolist(), ring.mul.tolist()
    members = set(n.members)
    for a in range(ring.size):
        for x in everything:
            if act[a][x] not in members or x in members:
                continue
            if not any(
                all(act[p][m] in members for m in everything)
                for p in _powers(mul, a)
            ):
                return False
    return True


def brute_prime_ideal(ring: TableRing, members: frozenset[int]) -> bool:
    """Complement formulation: proper, and the complement is closed under *."""
    if len(members) == ring.size:
        raise ValueError("improper")
    outside = [a for a in range(ring.size) if a not in members]
    mul = ring.mul.tolist()
    return all(mul[a][b] not in members for a in outside for b in outside)


def brute_prime_submodule(n: Submodule) -> bool:
    module = n.module
    ring = module.ring
    if len(n) == module.size:
        raise ValueError("improper")
    act = module.act.tolist()
    members = set(n.members)
    for a in range(ring.size):
        sends_all_in = all(
            act[a][m] in members for m in range(module.size)
        )
        if sends_all_in:
            continue
        for x in range(module.size):
            if x in members:
                continue
            if act[a][x] in members:
                return False
    return True


def brute_irreducible(n: Submodule, subs: list[frozenset[int]] | None = None) -> bool:
    """No submodules K, L of M other than N with K & L = N.

    K and L range over ``brute_submodules(M)``, or over ``subs`` if given.
    """
    subs = brute_submodules(n.module) if subs is None else subs
    members = set(n.members)
    return not any(
        k & l == members and k != members and l != members
        for k in subs for l in subs
    )


def brute_weakly_prime_af(n: Submodule) -> bool:
    module = n.module
    ring = module.ring
    if len(n) == module.size:
        raise ValueError("improper")
    act = module.act.tolist()
    members = set(n.members)
    for a in range(ring.size):
        sends_all_in = all(
            act[a][m] in members for m in range(module.size)
        )
        if sends_all_in:
            continue
        for x in range(module.size):
            if x in members:
                continue
            ax = act[a][x]
            if ax in members and ax != module.zero:
                return False
    return True


def closure_violation(noun: str, over, members, act: np.ndarray, scalars, closed: str):
    """The message Subset._check raises for this subset of ``over``, or
    None: its loop over tuple rows before it moved onto arrays. At each
    member a, ascending, the sums a+b come first, then the products s*a,
    b and s ascending."""
    mset = frozenset(members)
    if over.zero not in mset:
        return f"{noun} must contain zero"
    add, act, labels = over.add.tolist(), act.tolist(), over.labels
    for a in sorted(mset):
        for b in sorted(mset):
            if add[a][b] not in mset:
                return f"not add-closed at ({labels[a]},{labels[b]})"
        for s, row in enumerate(act):
            if row[a] not in mset:
                return f"not {closed} at {scalars[s]}*{labels[a]}"
    return None


# ------------------------------------------------------- axiom sweeps
#
# Exhaustive O(k^3) numpy sweeps over every triple, in blocks of rows.
# Each returns every violated axiom, named by the message the library's
# validator raises for it, in the order the validator checks them; a
# table that is not a total operation stops the sweep there.

_BLOCK = 64


def _blocks(k: int):
    for lo in range(0, k, _BLOCK):
        yield np.arange(lo, min(lo + _BLOCK, k), dtype=np.int32)


def _associative(tbl: np.ndarray) -> bool:
    """(a op b) op c == a op (b op c) for every triple."""
    idx = np.arange(len(tbl), dtype=np.int32)
    for rows in _blocks(len(tbl)):
        lhs = tbl[tbl[rows][:, :, None], idx[None, None, :]]
        rhs = tbl[rows[:, None, None], tbl[None, :, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def ring_axiom_violations(ring: TableRing) -> list[str]:
    k = ring.size
    if k == 0:
        return ["empty carrier"]
    found = []
    add = ring.add.astype(np.int32)
    mul = ring.mul.astype(np.int32)
    for tbl, op in ((add, "add"), (mul, "mul")):
        if tbl.shape != (k, k) or tbl.min() < 0 or tbl.max() >= k:
            return found + [f"{op} table is not a total operation on the carrier"]
        if not np.array_equal(tbl, tbl.T):
            found.append(f"{op} is not commutative")
    idx = np.arange(k, dtype=np.int32)
    if not np.array_equal(add[ring.zero], idx):
        found.append("zero is not an additive identity")
    if not np.array_equal(mul[ring.one], idx):
        found.append("one is not a multiplicative identity")
    if k > 1 and ring.one == ring.zero:
        found.append("one equals zero in a nontrivial ring")
    if not np.all((add == ring.zero).any(axis=1)):
        found.append("some element has no additive inverse")
    if not _associative(add):
        found.append("add is not associative")
    if not _associative(mul):
        found.append("mul is not associative")
    for rows in _blocks(k):
        # a*(b+c) == a*b + a*c
        lhs = mul[rows[:, None, None], add[None, :, :]]
        mb = mul[rows]
        rhs = add[mb[:, :, None], mb[:, None, :]]
        if not np.array_equal(lhs, rhs):
            found.append("mul does not distribute over add")
            break
    return found


def module_axiom_violations(module: TableModule) -> list[str]:
    k = module.size
    r = module.ring.size
    if k == 0:
        return ["empty module carrier"]
    found = []
    add = module.add.astype(np.int32)
    act = module.act.astype(np.int32)
    radd = module.ring.add.astype(np.int32)
    rmul = module.ring.mul.astype(np.int32)
    idx = np.arange(k, dtype=np.int32)
    if add.shape != (k, k) or add.min() < 0 or add.max() >= k:
        return ["module add is not a total operation"]
    if act.shape != (r, k) or act.min() < 0 or act.max() >= k:
        return ["action table has the wrong shape"]
    if not np.array_equal(add, add.T):
        found.append("module add is not commutative")
    if not np.array_equal(add[module.zero], idx):
        found.append("module zero is not an identity")
    if not np.all((add == module.zero).any(axis=1)):
        found.append("some module element has no additive inverse")
    if not np.array_equal(act[module.ring.one], idx):
        found.append("action is not unital")
    if not _associative(add):
        found.append("module add is not associative")
    broken = dict.fromkeys((
        "action is not additive in the module argument",
        "action is not additive in the scalar argument",
        "action does not respect ring multiplication",
    ), False)
    for rows in _blocks(r):
        ab = act[rows]
        # r(m+n) == rm + rn
        lhs = act[rows[:, None, None], add[None, :, :]]
        rhs = add[ab[:, :, None], ab[:, None, :]]
        broken["action is not additive in the module argument"] |= not np.array_equal(lhs, rhs)
        # (r+s)m == rm + sm; rhs[i, s, m] = add[act[rows[i], m], act[s, m]]
        lhs = act[radd[rows], :]
        rhs = add[ab[:, None, :], act[None, :, :]]
        broken["action is not additive in the scalar argument"] |= not np.array_equal(lhs, rhs)
        # (rs)m == r(sm)
        lhs = act[rmul[rows], :]
        rhs = act[rows[:, None, None], act[None, :, :]]
        broken["action does not respect ring multiplication"] |= not np.array_equal(lhs, rhs)
    return found + [msg for msg, bad in broken.items() if bad]


# --------------------------------------------------- frozenset kernels
#
# The predicate scans, colons and checker conditions as plain loops over
# member frozensets, with no bitmask and no preimage table: the reference
# the library's bitmask kernel must agree with, verdict for verdict and
# witness for witness. Each scans in canonical index order, so its witness
# is the lexicographically first violation.


def colon_members(n: Submodule, k: Submodule) -> frozenset[int]:
    """{a : a*K inside N}."""
    members = set(n.members)
    return frozenset(
        a for a, row in enumerate(n.module.act.tolist())
        if all(row[x] in members for x in k.members)
    )


def scalar_colon_members(n: Submodule, a: int) -> frozenset[int]:
    """{m : a*m in N}."""
    members = set(n.members)
    return frozenset(m for m, am in enumerate(n.module.act[a].tolist()) if am in members)


def _whole_colon(n: Submodule) -> frozenset[int]:
    members = set(n.members)
    return frozenset(
        a for a, row in enumerate(n.module.act.tolist())
        if all(ax in members for ax in row)
    )


def _proper(members, size: int) -> None:
    if len(members) == size:
        raise ValueError("improper")


def prime_ideal(j: Ideal) -> Verdict:
    r = j.ring
    _proper(j.members, r.size)
    mul = r.mul.tolist()
    members = set(j.members)
    for a in range(r.size):
        if a in members:
            continue
        for b in range(r.size):
            ab = mul[a][b]
            if b not in members and ab in members:
                return Verdict(
                    holds=False, witness=(a, b),
                    witness_text=f"a={r.labels[a]} b={r.labels[b]} ab={r.labels[ab]}",
                )
    return Verdict(holds=True)


def weakly_prime_ideal(j: Ideal) -> Verdict:
    r = j.ring
    _proper(j.members, r.size)
    mul = r.mul.tolist()
    members = set(j.members)
    for a in range(r.size):
        if a in members:
            continue
        for b in range(r.size):
            ab = mul[a][b]
            if b not in members and ab != r.zero and ab in members:
                return Verdict(
                    holds=False, witness=(a, b),
                    witness_text=f"a={r.labels[a]} b={r.labels[b]} ab={r.labels[ab]}",
                )
    return Verdict(holds=True)


def primary_ideal(j: Ideal) -> Verdict:
    r = j.ring
    _proper(j.members, r.size)
    members = set(j.members)
    rad = brute_radical(r, members)
    mul = r.mul.tolist()
    for a in range(r.size):
        if a in members:
            continue
        for b in range(r.size):
            ab = mul[a][b]
            if b not in rad and ab in members:
                return Verdict(
                    holds=False, witness=(a, b),
                    witness_text=(
                        f"a={r.labels[a]} b={r.labels[b]} ab={r.labels[ab]}"
                        f" and no power of b enters {j.label_set()}"
                    ),
                )
    return Verdict(holds=True)


def _submodule_scan(n: Submodule, exempt, nonzero: bool, suffix: str) -> Verdict:
    mod = n.module
    _proper(n.members, mod.size)
    act = mod.act.tolist()
    members = set(n.members)
    for a in range(mod.ring.size):
        if a in exempt:
            continue
        for x in range(mod.size):
            ax = act[a][x]
            if x in members or ax not in members:
                continue
            if nonzero and ax == mod.zero:
                continue
            return Verdict(
                holds=False, witness=(a, x),
                witness_text=(
                    f"a={mod.ring.labels[a]} x={mod.labels[x]} ax={mod.labels[ax]}{suffix}"
                ),
            )
    return Verdict(holds=True)


def prime_submodule(n: Submodule) -> Verdict:
    return _submodule_scan(n, _whole_colon(n), False, "")


def weakly_prime_af(n: Submodule) -> Verdict:
    return _submodule_scan(n, _whole_colon(n), True, "")


def primary_submodule(n: Submodule) -> Verdict:
    rad = brute_radical(n.module.ring, _whole_colon(n))
    return _submodule_scan(n, rad, False, " and no power of a multiplies M into N")


def weakly_prime_azizi(n: Submodule, subs: list[Submodule]) -> Verdict:
    """a*b*T in N implies a*T or b*T in N, for every T in subs."""
    mod = n.module
    _proper(n.members, mod.size)
    rsize = mod.ring.size
    mul = mod.ring.mul.tolist()
    members = set(n.members)
    in_n = [
        [all(row[x] in members for x in t.members) for t in subs]
        for row in mod.act.tolist()
    ]
    for a in range(rsize):
        for b in range(rsize):
            ab = mul[a][b]
            for t in range(len(subs)):
                if in_n[ab][t] and not in_n[a][t] and not in_n[b][t]:
                    return Verdict(
                        holds=False, witness=(a, b, t),
                        witness_text=(
                            f"a={mod.ring.labels[a]} b={mod.ring.labels[b]}"
                            f" T={subs[t].label_set()}"
                        ),
                    )
    return Verdict(holds=True)


def azizi_pair_loop(n: Submodule, subs: list[Submodule]) -> Verdict:
    """Azizi over every scalar pair (a, b), on preimage masks.

    The library's earlier kernel: sends[c] holds the lattice indices t
    with c*T inside N, and the first (a, b) with some t in
    sends[ab] - sends[a] - sends[b] is the witness, t its lowest index.
    """
    mod = n.module
    _proper(n.members, mod.size)
    by_pre: dict[int, int] = {}
    sends = []
    for p in preimage_masks(n.module.act, n.members, n.module.size):
        if p not in by_pre:
            by_pre[p] = mask_of(t for t, sub in enumerate(subs) if sub.mask & p == sub.mask)
        sends.append(by_pre[p])
    mul = mod.ring.mul.tolist()
    for a, sa in enumerate(sends):
        row = mul[a]
        for b, sb in enumerate(sends):
            bad = sends[row[b]] & ~(sa | sb)
            if bad:
                t = lowest_bit(bad)
                return Verdict(
                    holds=False, witness=(a, b, t),
                    witness_text=(
                        f"a={mod.ring.labels[a]} b={mod.ring.labels[b]}"
                        f" T={subs[t].label_set()}"
                    ),
                )
    return Verdict(holds=True)


def weakly_prime_behboodi(n: Submodule) -> Verdict:
    """Behboodi's definition read literally: M/N is a weakly prime module.

    Builds the quotient and enumerates its own lattice, so s_index and the
    S of a witness are those of M/N.
    """
    _proper(n.members, n.module.size)
    quo, _ = quotient_module(n.module, n)
    inner = is_weakly_prime_module(quo, enumerate_submodules(quo))
    if inner.holds:
        return inner
    return Verdict(
        holds=False, witness=inner.witness,
        witness_text=f"in M/N: {inner.witness_text}",
    )


def irreducible_submodule(n: Submodule, subs: list[Submodule]) -> Verdict:
    """No two strictly larger submodules meet exactly in N."""
    _proper(n.members, n.module.size)
    members = set(n.members)
    above = [(i, s, k) for i, s in enumerate(subs) if members < (k := set(s.members))]
    for pos, (i, k, k_members) in enumerate(above):
        for j, l, l_members in above[pos + 1:]:
            if k_members & l_members == members:
                return Verdict(
                    holds=False, witness=(i, j),
                    witness_text=f"K={k.label_set()} L={l.label_set()}",
                )
    return Verdict(holds=True)


# ------------------------------------------- replays of one witness


def violates_prime_ideal(j: Ideal, a: int, b: int) -> bool:
    members = set(j.members)
    return a not in members and b not in members and int(j.ring.mul[a, b]) in members


def violates_weakly_prime_ideal(j: Ideal, a: int, b: int) -> bool:
    return violates_prime_ideal(j, a, b) and int(j.ring.mul[a, b]) != j.ring.zero


def violates_primary_ideal(j: Ideal, a: int, b: int) -> bool:
    members = set(j.members)
    return (
        a not in members
        and b not in brute_radical(j.ring, members)
        and int(j.ring.mul[a, b]) in members
    )


def violates_prime_submodule(n: Submodule, a: int, x: int) -> bool:
    members = set(n.members)
    return (
        a not in _whole_colon(n)
        and x not in members
        and int(n.module.act[a, x]) in members
    )


def violates_weakly_prime_submodule_af(n: Submodule, a: int, x: int) -> bool:
    return violates_prime_submodule(n, a, x) and int(n.module.act[a, x]) != n.module.zero


def violates_primary_submodule(n: Submodule, a: int, x: int) -> bool:
    members = set(n.members)
    return (
        a not in brute_radical(n.module.ring, _whole_colon(n))
        and x not in members
        and int(n.module.act[a, x]) in members
    )


def violates_weakly_prime_submodule_azizi(
    n: Submodule, a: int, b: int, t: Submodule
) -> bool:
    act = n.module.act.tolist()
    members = set(n.members)

    def sends(c: int) -> bool:
        return all(act[c][x] in members for x in t.members)

    return sends(int(n.module.ring.mul[a, b])) and not sends(a) and not sends(b)


# ------------------------------------------------ checker conditions
#
# Each returns the witness text of the first violation in scan order, or
# "" when the condition holds. ``nb`` is any submodule of the duplicated
# module of the instance ``ctx``.


def _sum_and_colon_ids(ctx, nb: Submodule):
    """Per element x: id of N + Ax and id of {a : a x in N}, first-seen order.

    Also returns meets(s, t): do sum sets s and t intersect exactly in N,
    cached per pair of ids.
    """
    mod = ctx.inst.bowtie_module
    add, act = mod.add.tolist(), mod.act.tolist()
    members = set(nb.members)
    sums: dict[frozenset[int], int] = {}
    cols: dict[frozenset[int], int] = {}
    sum_ids, col_ids = [], []
    for x in range(mod.size):
        cyc = {row[x] for row in act}
        s = frozenset(add[p][q] for p in nb.members for q in cyc)
        sum_ids.append(sums.setdefault(s, len(sums)))
        col = frozenset(a for a, row in enumerate(act) if row[x] in members)
        col_ids.append(cols.setdefault(col, len(cols)))
    sum_sets = list(sums)
    cache: dict[tuple[int, int], bool] = {}

    def meets(s: int, t: int) -> bool:
        if (s, t) not in cache:
            cache[(s, t)] = sum_sets[s] & sum_sets[t] == members
        return cache[(s, t)]

    return sum_ids, sum_sets, col_ids, meets


def npack(ctx, nb: Submodule) -> dict:
    """Instance.npack element by element (the library's before it worked on
    the cosets of N): the sum N + Ax and the colon {a : a x in N} of every
    x, numbered by first appearance, and bad_y for each sum by a loop over
    every pair of sums."""
    mod = ctx.inst.bowtie_module
    k = mod.size
    act = mod.act
    coset, reps = cosets(nb)
    meets = np.zeros((k, len(reps)), dtype=bool)
    meets[np.arange(k), coset[act]] = True
    sum_index: dict[int, int] = {}
    sum_ids = [sum_index.setdefault(m, len(sum_index)) for m in pack_rows(meets[:, coset])]
    sum_masks = list(sum_index)
    inside = np.zeros(k, dtype=bool)
    inside[list(nb.members)] = True
    col_index: dict[int, int] = {}
    col_ids = [col_index.setdefault(c, len(col_index)) for c in pack_rows(inside[act].T)]
    sum_members = _members_by_id(sum_ids, len(sum_masks))
    bad_y = []
    for s in sum_masks:
        bad = 0
        for t, other in enumerate(sum_masks):
            if s & other != nb.mask:
                bad |= sum_members[t]
        bad_y.append(bad)
    return {
        "sum_ids": sum_ids,
        "sum_masks": sum_masks,
        "sum_members": sum_members,
        "col_ids": col_ids,
        "col_masks": list(col_index),
        "col_members": _members_by_id(col_ids, len(col_index)),
        "bad_y": bad_y,
        "n_mask": nb.mask,
    }


def _members_by_id(ids: list[int], count: int) -> list[int]:
    out = [0] * count
    for x, i in enumerate(ids):
        out[i] |= 1 << x
    return out


def sum_condition_violations(ctx, nb: Submodule) -> tuple[str, str]:
    """Witnesses of the T4 and C_IRR part 1 conditions, from one set of sums.

    T4: unequal element colons force (N + Ax) and (N + Ay) to meet in N.
    C_IRR part 1: ax in N forces (N + Ax) and (N + A ay) to meet in N.
    """
    mod = ctx.inst.bowtie_module
    sum_ids, sum_sets, col_ids, meets = _sum_and_colon_ids(ctx, nb)
    members = set(nb.members)
    t4 = c_irr = ""
    for x in range(mod.size):
        y = next(
            (y for y in range(mod.size)
             if col_ids[y] != col_ids[x] and not meets(sum_ids[x], sum_ids[y])),
            None,
        )
        if y is not None:
            extra = min(sum_sets[sum_ids[x]] & sum_sets[sum_ids[y]] - members)
            t4 = (
                f"x={mod.labels[x]} y={mod.labels[y]}: colons differ but the"
                f" intersection keeps {mod.labels[extra]} outside N><I"
            )
            break
    for a, row in enumerate(mod.act.tolist()):
        right = {sum_ids[row[y]] for y in range(mod.size)}
        x = next(
            (x for x in range(mod.size)
             if row[x] in members
             and not all(meets(sum_ids[x], t) for t in right)),
            None,
        )
        if x is not None:
            y = next(y for y in range(mod.size) if not meets(sum_ids[x], sum_ids[row[y]]))
            c_irr = (
                f"a={mod.ring.labels[a]} x={mod.labels[x]}"
                f" y={mod.labels[y]}: ax in N><I but the intersection"
                " identity fails"
            )
            break
    return t4, c_irr


def colon_product_violation(ctx, nb: Submodule) -> str:
    """(N : st) equals (N : s) or (N : t), for every pair of scalars."""
    ring = ctx.inst.bowtie_ring
    mul = ring.mul.tolist()
    cols = [scalar_colon_members(nb, s) for s in range(ring.size)]
    for s in range(ring.size):
        for t in range(ring.size):
            cp = cols[mul[s][t]]
            if cp != cols[s] and cp != cols[t]:
                return (
                    f"s={ring.labels[s]} t={ring.labels[t]}: (N><I : st) matches neither"
                    f" (N><I : s) nor (N><I : t)"
                )
    return ""


def colon_chain_pairs(ctx, nb: Submodule, reading: str) -> str:
    """L3ii's condition over every pair (K, L) of the quantifier domain,
    neither inside N><I, in domain order: the library's loop before it
    sorted the distinct colons first. Each colon (N><I : K) is read element
    by element: s is in it when s*x lies in N><I for every x of K."""
    domain = [
        k for k in theorems._quantifier_domain(ctx, reading)
        if k.mask & nb.mask != k.mask
    ]
    act, inside_n = nb.module.act.tolist(), set(nb.members)
    colons = [
        mask_of(s for s, row in enumerate(act) if all(row[x] in inside_n for x in k.members))
        for k in domain
    ]
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


def quotient_iso(module: TableModule, scalars: np.ndarray, f: np.ndarray, target: TableModule,
                 name: str, k_mask: int, k_name: str, target_name: str,
                 at: tuple[np.ndarray, ...]) -> tuple[list[str], int]:
    """L8's (problems, |M><I / K|) for f: M><I -> T with kernel K (given by its
    mask, as theorems._quotient_iso takes it), read off the
    quotient module M><I / K and its induced map (the library reads neither,
    only ker f = K as masks). ``scalars`` are L8's scalars of A><I, and ``at``
    is as theorems._quotient_iso takes it. The induced map g is f scattered through
    the quotient's projection p, g[p] = f, into an array filled with f(0):
    g(p(x)) = f(x) checks that f factors through p, whichever x of a coset
    the scatter keeps, and a coset p misses keeps f(0), so g has under q
    values. g is then checked as a module map of its own, at the generators'
    cosets p.take(gens)."""
    gens, through, sums, products = at
    rows = target.act.take(through, axis=0)
    problems = []
    if not check_module_map(f, sums, products, target.add, rows, gens):
        problems.append(f"{name} is not a module map")
    if len(set(f.tolist())) != target.size:
        problems.append(f"{name} is not surjective")
    if not np.array_equal(f == target.zero, inside(k_mask, len(f))):
        problems.append(f"kernel of the {name} is not {k_name}")
    q, p = quotient_module(module, Submodule.from_mask(module, k_mask))
    bijective = q.size == target.size and 0 <= p.min() and p.max() < q.size
    if bijective:
        g = np.full(q.size, f[0], dtype=f.dtype)
        g[p] = f
        at_q = p.take(gens)
        bijective = bool((g.take(p) == f).all()
                         and check_module_map(g, q.add.take(at_q, axis=1),
                                              q.act.take(scalars, axis=0).take(at_q, axis=1),
                                              target.add, rows, at_q)
                         and len(set(g.tolist())) == q.size)
    if not bijective:
        problems.append(f"induced map M><I / ({k_name}) -> {target_name} is not bijective")
    return problems, q.size


def quotient_module_by_dicts(module: TableModule, n: Submodule) -> tuple[TableModule, tuple]:
    """M/N entry by entry through dicts, on the tables as lists: each coset is
    indexed by its least member, in ascending order (the library's
    quotient_module before it moved onto arrays)."""
    add, act = module.add.tolist(), module.act.tolist()
    rep_of = [-1] * module.size
    reps: list[int] = []
    for m in range(module.size):
        if rep_of[m] >= 0:
            continue
        coset = sorted(add[m][x] for x in n.members)
        reps.append(coset[0])
        for c in coset:
            rep_of[c] = coset[0]
    reps.sort()
    index = {rep: i for i, rep in enumerate(reps)}
    quo = TableModule(
        ring=module.ring, size=len(reps),
        add=[[index[rep_of[add[x][y]]] for y in reps] for x in reps],
        act=[[index[rep_of[row[x]]] for x in reps] for row in act],
        zero=index[rep_of[module.zero]],
        labels=tuple(f"[{module.labels[rep]}]" for rep in reps), name=f"{module.name}/N",
    )
    return quo, tuple(index[rep_of[m]] for m in range(module.size))


# ------------------------------------------- per-scalar preimage kernel
#
# The library's kernel before it read preimage tables by scalar class:
# one mask per scalar, converted row by row with int.from_bytes, and the
# colons and prime-type scans as loops over every scalar.


def pack_rows(hits: np.ndarray) -> tuple[int, ...]:
    """Row i of a boolean matrix as the mask of its True columns."""
    packed = np.packbits(hits, axis=1, bitorder="little")
    raw = packed.tobytes()
    width = packed.shape[1]
    return tuple(
        int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)
    )


def row_images(rows: np.ndarray, size: int) -> tuple[int, ...]:
    """The entries of each row, indices into a carrier of this size, as
    masks: the library's form beyond 64 elements, one boolean row per row
    filled at its entries and packed."""
    hits = np.zeros((len(rows), size), dtype=bool)
    hits[np.arange(len(rows))[:, None], rows] = True
    return pack_rows(hits)


def cumsum_cosets(add: np.ndarray, members) -> tuple[np.ndarray, np.ndarray]:
    """The coset numbering as the library once computed it, in one block:
    the least member of each x + N, each coset numbered by the running count
    of representatives up to its own; and the representatives."""
    rep_of = add.take(np.asarray(members), axis=1).min(axis=1)
    is_rep = rep_of == np.arange(len(add))
    return (np.cumsum(is_rep, dtype=np.int32) - 1).take(rep_of), np.flatnonzero(is_rep)


def inside(mask: int, size: int) -> list[bool]:
    """Bit x of the mask for every x below size, one bit at a time."""
    return [mask >> x & 1 == 1 for x in range(size)]


def bits(mask: int, width: int) -> list[int]:
    """The set bits of a mask below width, ascending, one bit at a time."""
    return [i for i in range(width) if mask >> i & 1]


def preimage_masks(table: np.ndarray, members, size: int) -> tuple[int, ...]:
    """pre[a] = {x : table[a][x] in members}, for a carrier of the given size."""
    inside = np.zeros(size, dtype=bool)
    inside[list(members)] = True
    return pack_rows(inside[table])


def colon_mask(pre: tuple[int, ...], k_mask: int) -> int:
    """{a : pre[a] contains K}, as a mask over the scalars."""
    return mask_of(a for a, p in enumerate(pre) if p & k_mask == k_mask)


def first_violation(pre, exempt: int, outside: int, zero_pre=None):
    """The lowest (a, x) with a not in ``exempt`` and x in pre[a] & outside.

    With ``zero_pre`` (the preimage of zero), a*x must also be nonzero.
    """
    for a, p in enumerate(pre):
        if exempt >> a & 1:
            continue
        bad = p & outside
        if zero_pre is not None:
            bad &= ~zero_pre[a]
        if bad:
            return a, lowest_bit(bad)
    return None


def hasse_edges(subs: list[Submodule]) -> list[tuple[int, int]]:
    """The covering pairs (i, j), S_i < S_j with nothing strictly between,
    by pairwise frozenset comparison (the lattice command's earlier edges)."""
    sets = [set(s.members) for s in subs]
    below = [
        [j for j in range(len(subs)) if i != j and sets[i] < sets[j]]
        for i in range(len(subs))
    ]
    edges = []
    for i, ups in enumerate(below):
        for j in ups:
            if not any(k in below[i] and j in below[k] for k in ups if k != j):
                edges.append((i, j))
    return edges
