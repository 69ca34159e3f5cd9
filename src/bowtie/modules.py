"""Finite unital modules over a TableRing.

A module is an addition table plus a scalar-action table (ring index x
module index). A submodule is stored as its bitmask, with its members
read off it in ascending order, so every enumeration and witness is
reproducible; the scalar classes of the preimage masks
pre[a] = {x : a*x in N} are computed once per distinct N and action
table, and colons are read off them. The lattice is enumerated on masks
too: the cyclic submodules come from one packed table, and each distinct
one is joined onto the lattice found so far, a join being an OR of
cosets. A small lattice is joined pair by pair in Python; from WIDE
nodes on, each cyclic is joined onto all of them in one numpy gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .rings import (
    DEFAULT_VALIDATION_LIMIT,
    _additive_generators,
    _associative_at,
    _mask,
    _negatives,
    _row_keys,
    Ideal,
    RingAxiomError,
    Subset,
    TableRing,
    bits,
    carrier_table,
    derived,
    ideal_of,
    lowest_bit,
    mask_of,
    narrow_dtype,
    pack_rows,
    subset_classes,
    table_array,
)


@dataclass(frozen=True, eq=False)
class TableModule:
    """A finite unital module on the carrier 0..size-1.

    ``add`` and ``act`` (act[r, m], r a ring index) are stored as their
    table_array, like a TableRing's; the regular module stores the ring's.
    """

    ring: TableRing
    size: int
    add: np.ndarray
    act: np.ndarray
    zero: int
    labels: tuple[str, ...]
    name: str = "module"
    derived_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "add", table_array(self.add))
        object.__setattr__(self, "act", table_array(self.act))

    def classes(self, mask: int, members: Iterable[int]) -> tuple[tuple[int, int], ...]:
        """The scalar classes of pre[a] = {m : a*m in S} for the subset S with
        this mask and these members, computed once per action table: a module
        acting by its ring's multiplication (the regular module, M><I of a
        regular M) shares the ring's memo."""
        owner = self.ring if self.act is self.ring.mul else self
        return subset_classes(owner, self.act, mask, members)

    @property
    def zero_classes(self) -> tuple[tuple[int, int], ...]:
        """The scalar classes of zero_pre[a] = {m : a*m = 0}."""
        return self.classes(1 << self.zero, (self.zero,))

    @property
    def zero_pre(self) -> tuple[int, ...]:
        """zero_pre[a] = {m : a*m = 0}, by scalar, for the af scan."""
        return derived(self, "zero_pre", lambda: pack_rows(self.act == self.zero))

    @property
    def neg(self) -> tuple[int, ...]:
        return derived(self, "neg", lambda: _negatives(self.add, self.zero))

    def label_set(self, members: Iterable[int]) -> str:
        return "{" + ",".join(self.labels[m] for m in sorted(members)) + "}"

    def __repr__(self) -> str:
        return f"TableModule({self.name}, size={self.size}, over={self.ring.name})"


def validate_module(module: TableModule, limit: int | None = None) -> None:
    """Check every abelian-group and action axiom; skipped above the limit.

    As in validate_ring, the axioms that are additive in a module argument
    are checked at the points g in {zero} + G, for additive generators G of
    the module: Light's test for +, then r(m+g) = rm + rg, (r+s)g = rg + sg
    and (rs)g = r(sg). Each is an instance of its axiom and, once the ones
    before it hold, implies that axiom everywhere.
    """
    limit = DEFAULT_VALIDATION_LIMIT if limit is None else limit
    k = module.size
    r = module.ring.size
    if k == 0:
        raise RingAxiomError("empty module carrier")
    if max(k, r) > limit:
        return
    add = module.add
    act = module.act
    radd = module.ring.add
    rmul = module.ring.mul
    idx = np.arange(k, dtype=np.int32)
    if add.shape != (k, k) or add.min() < 0 or add.max() >= k:
        raise RingAxiomError("module add is not a total operation")
    if act.shape != (r, k) or act.min() < 0 or act.max() >= k:
        raise RingAxiomError("action table has the wrong shape")
    if not np.array_equal(add, add.T):
        raise RingAxiomError("module add is not commutative")
    if not np.array_equal(add[module.zero], idx):
        raise RingAxiomError("module zero is not an identity")
    if not np.all((add == module.zero).any(axis=1)):
        raise RingAxiomError("some module element has no additive inverse")
    if not np.array_equal(act[module.ring.one], idx):
        raise RingAxiomError("action is not unital")
    points = [module.zero, *_additive_generators(module.add, module.zero)]
    if not _associative_at(add, points):
        raise RingAxiomError("module add is not associative")
    code = narrow_dtype(0, k * k - 1)  # holds the flat index x*k + y of add[x, y]
    for g in points:
        # r(m+g) == rm + rg
        if not np.array_equal(act.take(add[:, g], axis=1),
                              add.ravel().take(act.astype(code) * k + act[:, g, None])):
            raise RingAxiomError("action is not additive in the module argument")
    for g in points:
        # (r+s)g == rg + sg
        col = act[:, g]
        if not np.array_equal(col.take(radd), add.take(col, axis=0).take(col, axis=1)):
            raise RingAxiomError("action is not additive in the scalar argument")
    for g in points:
        # (rs)g == r(sg)
        col = act[:, g]
        if not np.array_equal(col.take(rmul), act.take(col, axis=1)):
            raise RingAxiomError("action does not respect ring multiplication")


class Submodule(Subset):
    """A subset closed under addition and the full scalar action."""

    __slots__ = ("module", "over", "members", "mask", "_cosets")

    def __init__(self, module: TableModule, members: Iterable[int]):
        self._check(module, members, module.act, module.ring.labels, "action-closed")

    def _store(self, module: TableModule, mask: int, members: tuple[int, ...]) -> None:
        self.module = self.over = module
        self.mask, self.members, self._cosets = mask, members, None

    @property
    def classes(self) -> tuple[tuple[int, int], ...]:
        """The scalar classes of pre[a] = {x : a*x in N}, computed once per
        distinct N in its module's memo (TableModule.classes).

        Every colon and prime-type scan of N reads this one table.
        """
        return self.module.classes(self.mask, self.members)


@dataclass(frozen=True, eq=False)
class ModuleMap:
    """A total map between modules over the same ring, as an index table."""

    source: TableModule
    target: TableModule
    table: tuple[int, ...]

    def __call__(self, m: int) -> int:
        return self.table[m]


def ring_as_module(ring: TableRing) -> TableModule:
    """The regular module: the ring acting on itself by multiplication."""
    return TableModule(
        ring=ring,
        size=ring.size,
        add=ring.add,
        act=ring.mul,
        zero=ring.zero,
        labels=ring.labels,
        name=f"{ring.name}-reg",
    )


def zero_submodule(module: TableModule) -> Submodule:
    return Submodule.from_mask(module, 1 << module.zero, (module.zero,))


def whole_submodule(module: TableModule) -> Submodule:
    return Submodule.from_mask(module, (1 << module.size) - 1, range(module.size))


def cyclic_masks(module: TableModule) -> tuple[int, ...]:
    """cyclic[g] = Rg, the submodule generated by g, as a mask; computed once."""

    def compute() -> tuple[int, ...]:
        act = module.act
        hits = np.zeros((module.size, module.size), dtype=bool)
        hits[np.arange(module.size), act] = True  # hits[g, s*g]
        return pack_rows(hits)

    return derived(module, "cyclic_masks", compute)


def _join(
    add: np.ndarray, k_mask: int, k_members: Sequence[int], other: int,
    cosets: dict[int, int],
) -> int:
    """K + S for a submodule K and a subset S, as a mask.

    K + S is the union of the cosets y + K over y in S, and a union of
    cosets of K that contains y contains y + K, so only the y of S not yet
    covered add a coset. ``cosets`` caches y + K by y, and may be shared by
    every join onto the same K.
    """
    joined = k_mask
    rest = other & ~joined
    while rest:
        y = lowest_bit(rest)
        coset = cosets.get(y)
        if coset is None:
            coset = cosets[y] = mask_of(add[y].take(k_members).tolist())
        joined |= coset
        rest &= ~joined
    return joined


def submodule_generated(module: TableModule, gens: Iterable[int]) -> Submodule:
    """The sum of the cyclic submodules of the generators."""
    cyclic = cyclic_masks(module)
    add = module.add
    k = 1 << module.zero
    for g in gens:
        g = int(g)
        if not 0 <= g < module.size:
            raise ValueError(f"generator index {g} out of range")
        k = _join(add, k, bits(k), cyclic[g], {})
    return Submodule.from_mask(module, k)


class LatticeLimitError(ValueError):
    """A submodule lattice has more nodes than the enumeration may find."""


# From this many submodules found on, each cyclic is joined onto all of them
# in one gather. The switch follows the number of nodes found, since that
# is what the gather's fixed cost is spread over: on the small lattices of
# the Z_n hunts, gathering from the first node on more than doubles the
# lattice time and from 8 or 16 nodes on costs 10-25% more, while 32, 64
# and never measure alike; on the wide lattices of the table documents,
# gathering from the first node on or never costs 40-70% more than from
# 16, 32 or 64 nodes on.
WIDE = 32


def enumerate_submodules(module: TableModule, limit: int | None = None) -> list[Submodule]:
    """All submodules, in (size, members) order.

    Each distinct cyclic C, by size, is joined onto every K found so far, so
    the found set holds the joins of every subset of the cyclics taken; a C
    already found is such a join. While fewer than WIDE submodules are
    found, a join ORs the cosets y + C, cached across the K, or the cosets
    y + K when C is small against K; from then on _join_wide joins C onto
    every K at once. Finding more than ``limit`` submodules raises
    LatticeLimitError.
    """
    found = {1 << module.zero: [module.zero]}  # mask -> sorted members
    if limit is not None and len(found) > limit:
        raise LatticeLimitError(f"more than {limit} submodules")
    add = module.add
    cyclics = sorted(dict.fromkeys(cyclic_masks(module)), key=int.bit_count)
    for i, c in enumerate(cyclics):
        if len(found) >= WIDE:
            _join_wide(module, found, cyclics[i:], limit)
            break
        if c in found:
            continue
        c_members, translates = bits(c), {}
        for k, k_members in list(found.items()):
            if c & ~k:
                joined = (_join(add, k, k_members, c, {})
                          if len(c_members) * (c & k).bit_count() < len(k_members)
                          else _join(add, c, c_members, k, translates))
                if joined not in found:
                    found[joined] = bits(joined)
                    if limit is not None and len(found) > limit:
                        raise LatticeLimitError(f"more than {limit} submodules")
    ordered = sorted(found.items(), key=lambda item: (len(item[1]), item[1]))
    return [Submodule.from_mask(module, mask, members) for mask, members in ordered]


def _join_wide(
    module: TableModule, found: dict[int, list[int]], cyclics: Sequence[int],
    limit: int | None,
) -> None:
    """Join each cyclic onto every submodule found, adding the new joins to
    ``found`` (mask -> sorted members).

    The found set is one boolean matrix, a row per submodule. For each C not
    yet found, K + C is the union of the cosets y + C over y in K, so the
    rows K that do not contain C mark each coset they meet (one gather of
    the elements by coset and one OR) and read the marks back onto the
    elements (one gather); the new rows are kept by their row keys. Only
    boolean matrices are built, none with an entry per member of each K.
    """
    add = module.add
    count = len(found)
    rows = np.zeros((2 * count, module.size), dtype=bool)
    for i, members in enumerate(found.values()):
        rows[i, members] = True
    # the found rows by row key, so that only new rows become int masks
    seen = set(_row_keys(rows[:count]))
    for c in cyclics:
        if c in found:
            continue
        held = rows[:count]
        c_members = bits(c)
        outside = held[~held.take(c_members, axis=1).all(axis=1)]
        # x + C is named by its least member, and every coset has |C|
        # members. by_coset lists the elements coset by coset; grid lists
        # the j-th member of every coset for each j, so the OR runs over |C|
        # whole slabs: along a short last axis it measured up to 4x slower.
        width = len(c_members)
        by_coset = np.argsort(add.take(c_members, axis=1).min(axis=1))
        coset = np.empty_like(by_coset)
        coset[by_coset] = np.arange(module.size) // width
        grid = by_coset.reshape(-1, width).T.ravel()
        marked = outside.take(grid, axis=1).reshape(len(outside), width, -1).any(axis=1)
        joined = marked.take(coset, axis=1)
        new = []
        for i, key in enumerate(_row_keys(joined)):
            if key not in seen:
                seen.add(key)
                mask = _mask(key)
                found[mask] = bits(mask)
                new.append(i)
                if limit is not None and len(found) > limit:
                    raise LatticeLimitError(f"more than {limit} submodules")
        if len(found) > len(rows):
            rows = np.concatenate([rows, np.zeros_like(rows)])
        rows[count:len(found)] = joined.take(new, axis=0)
        count = len(found)


def _same_module(n: Submodule, k: Submodule) -> TableModule:
    if n.module is not k.module:
        raise ValueError("submodules live in different modules")
    return n.module


def colon_mask(classes: tuple[tuple[int, int], ...], k_mask: int) -> int:
    """{a : pre[a] contains K}, as a mask over the scalars: the union (here
    a sum) of the disjoint scalar classes whose row contains K."""
    return sum(scalars for p, scalars in classes if p & k_mask == k_mask)


def colon_into_ring(n: Submodule, k: Submodule) -> Ideal:
    """The ideal {a in ring : a*K inside N}, interned on the ring."""
    mod = _same_module(n, k)
    return ideal_of(mod.ring, colon_mask(n.classes, k.mask))


def colon_by_scalar(n: Submodule, a: int) -> Submodule:
    """The submodule {m : a*m in N}; always contains N."""
    return Submodule.from_mask(n.module, next(p for p, s in n.classes if s >> a & 1))


def annihilator(k: Submodule) -> Ideal:
    """(0 : K), from the zero submodule's preimage table, interned on the ring."""
    mod = k.module
    return ideal_of(mod.ring, colon_mask(mod.zero_classes, k.mask))


def is_faithful(module: TableModule) -> bool:
    return annihilator(whole_submodule(module)).is_zero


class CyclicResult(NamedTuple):
    holds: bool
    generator: int | None


def is_cyclic(module: TableModule) -> CyclicResult:
    """Whether one element generates everything; first generator if so."""
    whole = (1 << module.size) - 1
    for g, c in enumerate(cyclic_masks(module)):
        if c == whole:
            return CyclicResult(True, g)
    return CyclicResult(False, None)


def cosets(n: Submodule) -> tuple[np.ndarray, np.ndarray]:
    """The cosets m + N: each element's coset index, numbered by least
    member, and those least members, ascending; computed once per N."""
    if n._cosets is None:
        rep_of = n.module.add.take(n.members, axis=1).min(axis=1)
        is_rep = rep_of == np.arange(n.module.size)
        n._cosets = (np.cumsum(is_rep, dtype=np.int32) - 1).take(rep_of), np.flatnonzero(is_rep)
    return n._cosets


def quotient_module(module: TableModule, n: Submodule) -> tuple[TableModule, ModuleMap]:
    """Cosets of a submodule, indexed by minimal member.

    Returns the quotient and the projection map.
    """
    if n.module is not module:
        raise ValueError("submodule belongs to a different module")
    index, reps = cosets(n)
    size = len(reps)
    proj = carrier_table(index, size)
    quo = TableModule(
        ring=module.ring,
        size=size,
        add=carrier_table(proj.take(module.add.take(reps, axis=0).take(reps, axis=1)), size),
        act=carrier_table(proj.take(module.act.take(reps, axis=1)), size),
        zero=int(proj[module.zero]),
        labels=tuple(f"[{module.labels[rep]}]" for rep in reps.tolist()),
        name=f"{module.name}/N",
    )
    return quo, ModuleMap(source=module, target=quo, table=tuple(proj.tolist()))


def check_module_map(f: ModuleMap) -> bool:
    """Additivity at every pair (x, y) and action compatibility at every (s, x).

    Both are whole-table comparisons: f(x+y) against f(x)+f(y), and f(sx)
    against s f(x).
    """
    src, tgt = f.source, f.target
    if src.ring is not tgt.ring:
        raise ValueError("source and target are over different rings")
    if len(f.table) != src.size:
        raise ValueError("map table length differs from the source size")
    t = table_array(f.table)  # narrow, so that the gathered tables stay small
    # both sides of each comparison have the shape of the source's table
    return bool(
        (t.take(src.add) == tgt.add.take(t, axis=0).take(t, axis=1)).all()
        and (t.take(src.act) == tgt.act.take(t, axis=1)).all()
    )


def kernel(f: ModuleMap) -> Submodule:
    """The preimage of zero; a submodule when f is a module map."""
    members = [m for m in range(f.source.size) if f.table[m] == f.target.zero]
    return Submodule.from_mask(f.source, mask_of(members), members)


def image(f: ModuleMap) -> Submodule:
    """The image of f; a submodule when f is a module map."""
    return Submodule.from_mask(f.target, mask_of(f.table))
