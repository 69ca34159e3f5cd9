"""Brute-force reference implementations, for tests only.

Everything here recomputes results from first principles with no shared
code paths: substructure enumeration by powerset filtering, primality by
direct quantifier evaluation, primary-ness by the literal exists-k
definition. Intended for carriers of at most 16 elements; the axiom
sweeps at the end take carriers up to 256.
"""

from itertools import combinations

import numpy as np

from bowtie.modules import Submodule, TableModule
from bowtie.rings import TableRing


def _subsets_with_zero(size: int, zero: int):
    rest = [i for i in range(size) if i != zero]
    for r in range(len(rest) + 1):
        for comb in combinations(rest, r):
            yield frozenset((zero,) + comb)


def brute_submodules(module: TableModule) -> list[frozenset[int]]:
    """Every action- and addition-closed subset containing zero."""
    out = []
    rsize = module.ring.size
    for s in _subsets_with_zero(module.size, module.zero):
        if not all(module.add[a][b] in s for a in s for b in s):
            continue
        if not all(module.act[r][m] in s for r in range(rsize) for m in s):
            continue
        out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def brute_ideals(ring: TableRing) -> list[frozenset[int]]:
    out = []
    for s in _subsets_with_zero(ring.size, ring.zero):
        if not all(ring.add[a][b] in s for a in s for b in s):
            continue
        if not all(ring.mul[r][m] in s for r in range(ring.size) for m in s):
            continue
        out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def _powers(ring: TableRing, a: int):
    p = a
    for _ in range(ring.size):
        yield p
        p = ring.mul[p][a]


def brute_radical(ring: TableRing, members: frozenset[int]) -> frozenset[int]:
    return frozenset(
        a for a in range(ring.size) if any(p in members for p in _powers(ring, a))
    )


def brute_primary_ideal(ring: TableRing, members: frozenset[int]) -> bool:
    """Literal definition: ab in J forces a in J or some power of b in J."""
    if len(members) == ring.size:
        raise ValueError("improper")
    for a in range(ring.size):
        for b in range(ring.size):
            if ring.mul[a][b] not in members:
                continue
            if a in members:
                continue
            if not any(p in members for p in _powers(ring, b)):
                return False
    return True


def brute_primary_submodule(n: Submodule) -> bool:
    """Literal definition: ax in N, x outside N forces a^k M inside N."""
    module = n.module
    ring = module.ring
    if len(n) == module.size:
        raise ValueError("improper")
    everything = range(module.size)
    for a in range(ring.size):
        for x in everything:
            if module.act[a][x] not in n.member_set or x in n.member_set:
                continue
            if not any(
                all(module.act[p][m] in n.member_set for m in everything)
                for p in _powers(ring, a)
            ):
                return False
    return True


def brute_prime_ideal(ring: TableRing, members: frozenset[int]) -> bool:
    """Complement formulation: proper, and the complement is closed under *."""
    if len(members) == ring.size:
        raise ValueError("improper")
    outside = [a for a in range(ring.size) if a not in members]
    return all(ring.mul[a][b] not in members for a in outside for b in outside)


def brute_prime_submodule(n: Submodule) -> bool:
    module = n.module
    ring = module.ring
    if len(n) == module.size:
        raise ValueError("improper")
    for a in range(ring.size):
        sends_all_in = all(
            module.act[a][m] in n.member_set for m in range(module.size)
        )
        if sends_all_in:
            continue
        for x in range(module.size):
            if x in n.member_set:
                continue
            if module.act[a][x] in n.member_set:
                return False
    return True


def brute_weakly_prime_af(n: Submodule) -> bool:
    module = n.module
    ring = module.ring
    if len(n) == module.size:
        raise ValueError("improper")
    for a in range(ring.size):
        sends_all_in = all(
            module.act[a][m] in n.member_set for m in range(module.size)
        )
        if sends_all_in:
            continue
        for x in range(module.size):
            if x in n.member_set:
                continue
            ax = module.act[a][x]
            if ax in n.member_set and ax != module.zero:
                return False
    return True


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
    add = np.asarray(ring.add, dtype=np.int32)
    mul = np.asarray(ring.mul, dtype=np.int32)
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
    add = np.asarray(module.add, dtype=np.int32)
    act = np.asarray(module.act, dtype=np.int32)
    radd = np.asarray(module.ring.add, dtype=np.int32)
    rmul = np.asarray(module.ring.mul, dtype=np.int32)
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
