"""Finite unital modules over a TableRing.

A module is an addition table plus a scalar-action table (ring index x
module index). Submodules are canonically stored as sorted index tuples
and as bitmasks, so every enumeration and witness is reproducible; the
scalar classes of the preimage masks pre[a] = {x : a*x in N} are computed
once per distinct N and action table, and colons are read off them. The
lattice is enumerated on masks too: the cyclic submodules come from one
packed table, and each distinct one is joined onto the lattice found so
far, a join being an OR of cosets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .rings import (
    DEFAULT_VALIDATION_LIMIT,
    _additive_generators,
    _associative_at,
    _negatives,
    Ideal,
    RingAxiomError,
    Subset,
    Table,
    TableRing,
    bits,
    carrier_table,
    derived,
    ideal_of,
    lowest_bit,
    mask_of,
    pack_rows,
    store_tables,
    subset_classes,
    table_array,
)


@dataclass(frozen=True, eq=False)
class TableModule:
    """A finite unital module on the carrier 0..size-1.

    Its tables are stored as ``add_array`` and ``act_array`` (act[r][m], r
    a ring index; see rings.Table); the regular module stores the ring's.
    """

    ring: TableRing
    size: int
    add: tuple[tuple[int, ...], ...] = Table()
    act: tuple[tuple[int, ...], ...] = Table()
    zero: int
    labels: tuple[str, ...]
    name: str = "module"
    derived_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        store_tables(self, "add", "act")

    def classes(self, mask: int, members: Iterable[int]) -> tuple[tuple[int, int], ...]:
        """The scalar classes of pre[a] = {m : a*m in S} for the subset S with
        this mask and these members, computed once per action table: a module
        acting by its ring's multiplication (the regular module, M><I of a
        regular M) shares the ring's memo."""
        owner = self.ring if self.act_array is self.ring.mul_array else self
        return subset_classes(owner, self.act_array, mask, members)

    @property
    def zero_classes(self) -> tuple[tuple[int, int], ...]:
        """The scalar classes of zero_pre[a] = {m : a*m = 0}."""
        return self.classes(1 << self.zero, (self.zero,))

    @property
    def zero_pre(self) -> tuple[int, ...]:
        """zero_pre[a] = {m : a*m = 0}, by scalar, for the af scan."""
        return derived(self, "zero_pre", lambda: pack_rows(self.act_array == self.zero))

    @property
    def neg(self) -> tuple[int, ...]:
        return derived(self, "neg", lambda: _negatives(self.add_array, self.zero))

    def sub(self, m: int, n: int) -> int:
        return int(self.add_array[m, self.neg[n]])

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
    add = module.add_array
    act = module.act_array
    radd = module.ring.add_array
    rmul = module.ring.mul_array
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
    for g in points:
        # r(m+g) == rm + rg
        if not np.array_equal(act[:, add[:, g]], add[act, act[:, g, None]]):
            raise RingAxiomError("action is not additive in the module argument")
    for g in points:
        # (r+s)g == rg + sg
        col = act[:, g]
        if not np.array_equal(col[radd], add[col[:, None], col[None, :]]):
            raise RingAxiomError("action is not additive in the scalar argument")
    for g in points:
        # (rs)g == r(sg)
        col = act[:, g]
        if not np.array_equal(col[rmul], act[:, col]):
            raise RingAxiomError("action does not respect ring multiplication")


class Submodule(Subset):
    """A subset closed under addition and the full scalar action."""

    __slots__ = ("module", "over", "members", "member_set", "mask", "_cosets")

    def __init__(self, module: TableModule, members: Iterable[int], _checked: bool = False):
        mset = frozenset(int(m) for m in members)
        self.module = self.over = module
        self.member_set, self.mask = mset, mask_of(mset)
        self._cosets = None
        self.members: tuple[int, ...] = tuple(sorted(mset))
        if not _checked:
            self._validate(module.act, module.ring.labels, "action-closed")

    @classmethod
    def from_mask(cls, module: TableModule, mask: int, members: Sequence[int] = ()) -> Submodule:
        """A submodule known to be closed, from its mask (and sorted members, if at hand)."""
        sub = cls.__new__(cls)
        sub.module = sub.over = module
        sub.mask, sub._cosets = mask, None
        sub.members = tuple(members or bits(mask))
        sub.member_set = frozenset(sub.members)
        return sub

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
        add=ring.add_array,
        act=ring.mul_array,
        zero=ring.zero,
        labels=ring.labels,
        name=f"{ring.name}-reg",
    )


def zero_submodule(module: TableModule) -> Submodule:
    return Submodule(module, (module.zero,), _checked=True)


def whole_submodule(module: TableModule) -> Submodule:
    return Submodule.from_mask(module, (1 << module.size) - 1, range(module.size))


def cyclic_masks(module: TableModule) -> tuple[int, ...]:
    """cyclic[g] = Rg, the submodule generated by g, as a mask; computed once."""

    def compute() -> tuple[int, ...]:
        act = module.act_array
        hits = np.zeros((module.size, module.size), dtype=bool)
        hits[np.arange(module.size), act] = True  # hits[g, s*g]
        return pack_rows(hits)

    return derived(module, "cyclic_masks", compute)


def _join(
    add: Sequence[Sequence[int]], k_mask: int, k_members: Sequence[int], other: int,
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
            row = add[y]
            coset = 0
            for m in k_members:
                coset |= 1 << row[m]
            cosets[y] = coset
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


def enumerate_submodules(module: TableModule, limit: int | None = None) -> list[Submodule]:
    """All submodules, in (size, members) order.

    Each distinct cyclic C, by size, is joined onto every K found so far, so
    the found set holds the joins of every subset of the cyclics taken; a C
    already found is such a join. A join ORs the cosets y + C, cached across
    the K, or the cosets y + K when C is small against K. Finding more than
    ``limit`` submodules raises LatticeLimitError.
    """
    found = {1 << module.zero: [module.zero]}  # mask -> sorted members
    add = module.add
    for c in sorted(dict.fromkeys(cyclic_masks(module)), key=int.bit_count):
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
        rep_of = n.module.add_array[:, list(n.members)].min(axis=1)
        is_rep = rep_of == np.arange(n.module.size)
        n._cosets = (np.cumsum(is_rep) - 1)[rep_of], np.flatnonzero(is_rep)
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
        add=carrier_table(proj[module.add_array[reps][:, reps]], size),
        act=carrier_table(proj[module.act_array[:, reps]], size),
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
        (t[src.add_array] == tgt.add_array[t[:, None], t[None, :]]).all()
        and (t[src.act_array] == tgt.act_array[:, t]).all()
    )


def kernel(f: ModuleMap) -> Submodule:
    """The preimage of zero; a submodule when f is a module map."""
    members = [m for m in range(f.source.size) if f.table[m] == f.target.zero]
    return Submodule(f.source, members, _checked=True)


def image(f: ModuleMap) -> Submodule:
    """The image of f; a submodule when f is a module map."""
    return Submodule(f.target, set(f.table), _checked=True)
