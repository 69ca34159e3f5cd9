"""Finite unital modules over a TableRing.

A module is an addition table plus a scalar-action table (ring index x
module index). A submodule is stored as its bitmask, its members read
off it in ascending order when first asked for, so every enumeration and
witness is reproducible; the scalar classes of the preimage masks
pre[a] = {x : a*x in N} are computed once per distinct N and action
table, and colons are read off them. The lattice is enumerated on masks
too: the cyclic submodules come from one packed table, and each distinct
one is joined onto the lattice found so far, a join being an OR of
cosets. A small lattice is joined pair by pair in Python; from WIDE
nodes on, each cyclic is joined onto all of them in one numpy gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .rings import (
    DEFAULT_VALIDATION_LIMIT,
    _additive_generators,
    _associative_at,
    _join,
    _mask,
    _row_keys,
    _sums_at,
    Carrier,
    Ideal,
    RingAxiomError,
    Subset,
    TableRing,
    bits,
    carrier_table,
    class_rows,
    derived,
    generated_mask,
    in_range,
    inside,
    inside_rows,
    lex_key,
    memo,
    principal_masks,
    row_block,
    row_images,
    subset_classes,
    table_array,
)


@dataclass(frozen=True, eq=False)
class TableModule(Carrier):
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

    @property
    def table_owner(self) -> TableRing | TableModule:
        """Where the facts of the action table are kept: the ring when the
        module acts by its multiplication (the regular module, M><I of a
        regular M), whose zero is then the ring's, else the module itself."""
        return self.ring if self.act is self.ring.mul else self

    def classes(self, mask: int) -> tuple[tuple[int, int], ...]:
        """The scalar classes of pre[a] = {m : a*m in S} for the subset S with
        this mask, computed once per action table."""
        return subset_classes(self.table_owner, self.act, mask)

    @property
    def zero_classes(self) -> tuple[tuple[int, int], ...]:
        """The scalar classes of zero_pre[a] = {m : a*m = 0}."""
        return self.classes(1 << self.zero)

    @property
    def zero_pre(self) -> tuple[int, ...]:
        """zero_pre[a] = {m : a*m = 0} for the af scan, read off zero_classes on table_owner."""
        return derived(self.table_owner, "zero_pre", class_rows, self.zero_classes, self.ring.size)

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
    if add.shape != (k, k) or not in_range(add, k):
        raise RingAxiomError("module add is not a total operation")
    if act.shape != (r, k) or not in_range(act, k):
        raise RingAxiomError("action table has the wrong shape")
    if not (add == add.T).all():
        raise RingAxiomError("module add is not commutative")
    if not (0 <= module.zero < k and (add[module.zero] == idx).all()):
        raise RingAxiomError("module zero is not an identity")
    if not (add == module.zero).any(axis=1).all():
        raise RingAxiomError("some module element has no additive inverse")
    if not (act[module.ring.one] == idx).all():
        raise RingAxiomError("action is not unital")
    points = [module.zero, *_additive_generators(module.add, module.zero)]
    if not _associative_at(add, points):
        raise RingAxiomError("module add is not associative")
    # each axiom compared at every point g at once, as (g, m, r) and
    # (g, r, s) arrays, gathered as whole rows where the tables allow
    by_element = np.ascontiguousarray(act.T)  # by_element[m, r] = rm
    # (m+g)r == mr + gr
    if not (by_element.take(add[points], axis=0)
            == _sums_at(add, by_element[None], by_element[points][:, None])).all():
        raise RingAxiomError("action is not additive in the module argument")
    cols = by_element[points]  # cols[g, r] = rg
    # (r+s)g == rg + sg
    if not (cols.take(radd, axis=1) == _sums_at(add, cols[:, :, None], cols[:, None])).all():
        raise RingAxiomError("action is not additive in the scalar argument")
    # (rs)g == r(sg), as (g, s, r) arrays
    if not (cols.take(rmul.T, axis=1) == by_element.take(cols, axis=0)).all():
        raise RingAxiomError("action does not respect ring multiplication")


class Submodule(Subset):
    """A subset closed under addition and the full scalar action."""

    __slots__ = ("module",)

    def __init__(self, module: TableModule, members: Iterable[int]):
        self._check(module, members, module.act, module.ring.labels, "action-closed")

    def _store(self, module: TableModule, mask: int, members: tuple[int, ...] | None) -> None:
        self.module = self.over = module
        self.mask, self._members = mask, members

    @property
    def classes(self) -> tuple[tuple[int, int], ...]:
        """The scalar classes of pre[a] = {x : a*x in N}, computed once per
        distinct N in its module's memo (TableModule.classes).

        Every colon and prime-type scan of N reads this one table.
        """
        return self.module.classes(self.mask)


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
    return Submodule.from_mask(module, 1 << module.zero)


def whole_submodule(module: TableModule) -> Submodule:
    return Submodule.from_mask(module, (1 << module.size) - 1)


def cyclic_masks(module: TableModule) -> tuple[int, ...]:
    """cyclic[g] = Rg, the submodule generated by g, as a mask; computed once.
    A module acting by its ring's ``mul`` reads the ring's principal ideals:
    the ring is commutative, so Rg = gR."""
    if module.table_owner is module.ring:
        return principal_masks(module.ring)
    return derived(module, "cyclic_masks", row_images, module.act.T, module.size)


def scalar_images(module: TableModule) -> tuple[int, ...]:
    """images[a] = a*M, as masks; computed once, as principal_masks on a regular M."""
    if module.table_owner is module.ring:
        return principal_masks(module.ring)
    return derived(module, "images", row_images, module.act, module.size)


def submodule_generated(module: TableModule, gens: Iterable[int]) -> Submodule:
    """The sum of the cyclic submodules of the generators."""
    return Submodule.from_mask(
        module, generated_mask(module.add, module.zero, cyclic_masks(module), gens))


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
    found, a join ORs the cosets y + C over the y of K, cached across the K,
    so only C's members are ever decoded; from then on _join_wide joins C
    onto every K at once. Finding more than ``limit`` submodules raises
    LatticeLimitError. The found set holds masks.
    """
    found: set[int] = set()
    _found(found, 1 << module.zero, limit)
    add = module.add
    cyclics = sorted(dict.fromkeys(cyclic_masks(module)), key=int.bit_count)
    for i, c in enumerate(cyclics):
        if len(found) >= WIDE:
            _join_wide(module, found, cyclics[i:], limit)
            break
        if c in found:
            continue
        c_members, translates = bits(c), {}
        for k in list(found):
            if c & ~k:
                joined = _join(add, c, c_members, k, translates)
                if joined not in found:
                    _found(found, joined, limit)
    width = (module.size + 7) // 8
    ordered = sorted(found, key=lambda mask: (mask.bit_count(), lex_key(mask, width)))
    return [Submodule.from_mask(module, mask) for mask in ordered]


def _found(found: set[int], mask: int, limit: int | None) -> None:
    """Add a new submodule's mask to the found set; LatticeLimitError once
    that holds more than ``limit``."""
    found.add(mask)
    if limit is not None and len(found) > limit:
        raise LatticeLimitError(f"more than {limit} submodules")


def _join_wide(
    module: TableModule, found: set[int], cyclics: Sequence[int], limit: int | None,
) -> None:
    """Join each cyclic onto every submodule found, adding the new joins to
    ``found``.

    The found set is one boolean matrix, a row per submodule. For each C not
    yet found, K + C is the union of the cosets y + C over y in K, so the
    rows K that do not contain C mark each coset they meet (one gather of
    the elements by coset and one OR) and read the marks back onto the
    elements (one gather); the new rows are kept by their row keys. Only
    boolean matrices are built, none with an entry per member of each K.
    """
    add = module.add
    count = len(found)
    # the found rows, unpacked straight into a matrix with room for as many
    # again: a second count x size array held beside it raised the peak RSS
    # of `hunt --max 64 --budget 4096` from 134 to 145 MB
    rows = inside_rows([*found, *[0] * count], module.size)
    # the found rows by row key, so that only new rows become int masks
    seen = set(_row_keys(rows[:count]))
    for c in cyclics:
        if c in found:
            continue
        held = rows[:count]
        c_members = inside(c, module.size).nonzero()[0]
        outside = held[~held.take(c_members, axis=1).all(axis=1)]
        # _cosets names each coset of C by its least member r, and its members
        # are the r + C[j]. grid lists the j-th member of every coset for each
        # j, so the OR runs over |C| whole slabs: along a short last axis it
        # measured up to 4x slower.
        coset, reps = _cosets(add, c_members)
        grid = add[c_members[:, None], reps].ravel()
        marked = outside.take(grid, axis=1).reshape(len(outside), len(c_members), -1).any(axis=1)
        joined = marked.take(coset, axis=1)
        new = []
        for i, key in enumerate(_row_keys(joined)):
            if key not in seen:
                seen.add(key)
                new.append(i)
                _found(found, _mask(key), limit)
        if len(found) > len(rows):
            rows = np.concatenate([rows, np.zeros_like(rows)])
        rows[count:len(found)] = joined.take(new, axis=0)
        count = len(found)


def _same_module(n: Submodule, k: Submodule) -> TableModule:
    if n.module is not k.module:
        raise ValueError("submodules live in different modules")
    return n.module


def colon_mask(classes: tuple[tuple[int, int], ...], k_mask: int) -> int:
    """{a : pre[a] contains K}, as a mask over the scalars: the union of the
    scalar classes whose row contains K. A plain loop: Azizi calls this once
    per submodule T, and a generator costs it half as much again."""
    colon = 0
    for p, scalars in classes:
        if p & k_mask == k_mask:
            colon |= scalars
    return colon


def colon_into_ring(n: Submodule, k: Submodule) -> Ideal:
    """The ideal {a in ring : a*K inside N}."""
    mod = _same_module(n, k)
    return Ideal.from_mask(mod.ring, colon_mask(n.classes, k.mask))


def colon_by_scalar(n: Submodule, a: int) -> Submodule:
    """The submodule {m : a*m in N}; always contains N."""
    return Submodule.from_mask(n.module, next(p for p, s in n.classes if s >> a & 1))


def annihilator(k: Submodule) -> Ideal:
    """(0 : K), from the zero submodule's preimage table."""
    mod = k.module
    return Ideal.from_mask(mod.ring, colon_mask(mod.zero_classes, k.mask))


def is_cyclic(module: TableModule) -> bool:
    """Whether one element generates everything."""
    return (1 << module.size) - 1 in cyclic_masks(module)


def cosets(n: Submodule) -> tuple[np.ndarray, np.ndarray]:
    """The cosets m + N: each element's coset index, numbered by least
    member, and those least members, ascending; computed once per
    (module, mask), so two objects for one N share them, and N's members
    are read only on a miss."""
    return memo(n.module, "cosets", n.mask, _subset_cosets, n)


def _subset_cosets(n: Submodule) -> tuple[np.ndarray, np.ndarray]:
    return _cosets(n.module.add, n.members)


def _cosets(add: np.ndarray, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The cosets as ``cosets`` returns them, the least member of each x + N
    read off a block of rows of add at a time."""
    members = np.asarray(members)
    step = row_block(len(members))
    if step >= len(add):
        rep_of = add.take(members, axis=1).min(axis=1)
    else:
        rep_of = np.empty(len(add), dtype=add.dtype)
        for rows in (slice(start, start + step) for start in range(0, len(add), step)):
            add[rows].take(members, axis=1).min(axis=1, out=rep_of[rows])
    reps = (rep_of == np.arange(len(add))).nonzero()[0]
    number = np.empty(len(add), dtype=np.int32)  # read only at the representatives
    number[reps] = np.arange(len(reps), dtype=np.int32)
    return number.take(rep_of), reps


def quotient_module(module: TableModule, n: Submodule) -> tuple[TableModule, np.ndarray]:
    """Cosets of a submodule, indexed by minimal member.

    Returns the quotient and the projection, proj[x] the coset of x.
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
    return quo, proj


def check_module_map(table: np.ndarray, sums: np.ndarray, products: np.ndarray,
                     target_add: np.ndarray, target_act_rows: np.ndarray,
                     gens: np.ndarray) -> bool:
    """f(x+g) = f(x)+f(g) and f(sg) = s f(g) for every x of the source, g of
    gens and s of the scalars, f being ``table``. The source enters as its sums
    at gens, sums[x, j] = x + gens[j], and its products at the scalars,
    products[i, j] = s_i gens[j]; target_act_rows[i] is the target's row by
    which s_i acts. If the source is a module, the target one over the same ring
    through those rows, gens generates the source additively and the scalars
    the ring, f is then a module map. Proof: x = 0 gives f(0) = 0; the y
    additive at every x are closed under +, so are all of the source; both
    sides of f(sg) = s f(g) are additive in s and in g."""
    if len(table) != len(sums):
        raise ValueError("map table length differs from the source size")
    at = table.take(gens)  # f(g) for each g of gens
    return bool((table.take(sums) == target_add.take(at, axis=1).take(table, axis=0)).all()
                and (table.take(products) == target_act_rows.take(at, axis=1)).all())
