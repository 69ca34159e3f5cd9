"""Finite commutative rings with identity, given by explicit operation tables.

Every ring here is extensional: a carrier 0..k-1 plus full addition and
multiplication tables. Constructions (products, subrings, quotients) are
index bookkeeping, and every constructed ring is validated against the
ring axioms exhaustively while the carrier stays within a configurable
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

# Axiom validation is O(g k^2) numpy work for g additive generators; above
# this carrier size it is skipped (constructions stay correct by construction).
DEFAULT_VALIDATION_LIMIT = 256


class RingAxiomError(ValueError):
    """A constructed table violates a ring axiom."""


class ClosureError(ValueError):
    """A subset is not closed under the ambient operations.

    The offending pair of carrier indices is kept in ``pair``.
    """

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


def _as_table(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in r) for r in rows)


def table_array(table: Sequence[Sequence[int]]) -> np.ndarray:
    """A read-only numpy copy of an operation table.

    Entries are stored as uint8 or uint16 when they all fit, so that the
    copies cached next to the tuple tables stay small; a table with an entry
    outside that range (which validation then rejects) is int32.
    """
    for dtype in (np.uint8, np.uint16):
        try:
            arr = np.asarray(table, dtype=dtype)
            break
        except OverflowError:  # an entry is negative or too large for dtype
            continue
    else:
        arr = np.asarray(table, dtype=np.int32)
    arr.setflags(write=False)
    return arr


# ------------------------------------------------------------- bitmasks
#
# A subset of a carrier is an int whose bit x is set when x is a member.
# Ascending bit order is index order, so the lowest set bit of a mask of
# violations is the lexicographically first one.


def mask_of(members: Iterable[int]) -> int:
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


def lowest_bit(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def pack_rows(hits: np.ndarray) -> tuple[int, ...]:
    """Row i of a boolean matrix as the mask of its True columns."""
    packed = np.packbits(hits, axis=1, bitorder="little")
    raw = packed.tobytes()
    width = packed.shape[1]
    return tuple(
        int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)
    )


def preimage_masks(table: np.ndarray, members: Iterable[int], size: int) -> tuple[int, ...]:
    """pre[a] = {x : table[a][x] in members}, for a carrier of the given size."""
    inside = np.zeros(size, dtype=bool)
    inside[list(members)] = True
    return pack_rows(inside[table])


def derived(obj: Any, key: str, compute: Callable[[], Any]) -> Any:
    """A value derived from a table object, computed on first use.

    Kept in the object's ``derived_cache`` field rather than with
    functools.cached_property: a write into an instance's ``__dict__``
    costs CPython its fast path for every later attribute load on that
    instance, and the table loops load ``add``, ``mul`` and ``act`` per
    entry.
    """
    cache = obj.derived_cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


@dataclass(frozen=True, eq=False)
class TableRing:
    """A finite commutative ring with identity on the carrier 0..size-1."""

    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    labels: tuple[str, ...]
    name: str = "ring"
    derived_cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def add_array(self) -> np.ndarray:
        return derived(self, "add_array", lambda: table_array(self.add))

    @property
    def mul_array(self) -> np.ndarray:
        return derived(self, "mul_array", lambda: table_array(self.mul))

    @property
    def zero_pre(self) -> tuple[int, ...]:
        """zero_pre[a] = {b : a*b = 0}, as masks."""
        return derived(
            self, "zero_pre", lambda: preimage_masks(self.mul_array, (self.zero,), self.size)
        )

    @property
    def neg(self) -> tuple[int, ...]:
        """Additive inverse of every element."""
        return derived(self, "neg", lambda: tuple(row.index(self.zero) for row in self.add))

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def power(self, a: int, n: int) -> int:
        """a**n for n >= 1 by repeated multiplication."""
        if n < 1:
            raise ValueError("exponent must be positive")
        acc = a
        for _ in range(n - 1):
            acc = self.mul[acc][a]
        return acc

    def label(self, a: int) -> str:
        return self.labels[a]

    def label_set(self, members: Iterable[int]) -> str:
        return "{" + ",".join(self.labels[m] for m in sorted(members)) + "}"

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"TableRing({self.name}, size={self.size})"


def _additive_generators(add: Sequence[Sequence[int]], zero: int) -> list[int]:
    """Greedy generators, lowest index first: with zero they generate the
    carrier under the table ``add``.

    The closure is taken in the magma the table defines, assuming no axiom.
    Callers check first that the table is commutative, so one argument
    order suffices.
    """
    members = {zero}
    work = [zero]
    gens: list[int] = []
    for x in range(len(add)):
        if x not in members:
            gens.append(x)
            members.add(x)
            work.append(x)
        while work:
            row = add[work.pop()]
            for z in tuple(members):
                s = row[z]
                if s not in members:
                    members.add(s)
                    work.append(s)
    return gens


def _associative_at(op: np.ndarray, points: Sequence[int]) -> bool:
    """(x.g).y == x.(g.y) for all x, y and every g in points."""
    return all(np.array_equal(op[op[:, g]], op[:, op[g]]) for g in points)


def validate_ring(ring: TableRing, limit: int | None = None) -> None:
    """Check every ring axiom; raise RingAxiomError on failure.

    The O(k^2) axioms are checked entry by entry. Associativity and
    distributivity are checked at the points g in {zero} + G, for additive
    generators G; each such check is an instance of its axiom, and together
    they imply it everywhere. For + this is Light's associativity test
    (Clifford and Preston, vol. 1, sec. 1.2). The elements g that
    distribute, and then those that associate under *, are closed under +.

    Skipped (silently) when the carrier exceeds the validation limit.
    """
    limit = DEFAULT_VALIDATION_LIMIT if limit is None else limit
    k = ring.size
    if k == 0:
        raise RingAxiomError("empty carrier")
    if k > limit:
        return
    add = ring.add_array
    mul = ring.mul_array
    for tbl, op in ((add, "add"), (mul, "mul")):
        if tbl.shape != (k, k) or tbl.min() < 0 or tbl.max() >= k:
            raise RingAxiomError(f"{op} table is not a total operation on the carrier")
        if not np.array_equal(tbl, tbl.T):
            raise RingAxiomError(f"{op} is not commutative")
    idx = np.arange(k, dtype=np.int32)
    if not np.array_equal(add[ring.zero], idx):
        raise RingAxiomError("zero is not an additive identity")
    if not np.array_equal(mul[ring.one], idx):
        raise RingAxiomError("one is not a multiplicative identity")
    if k > 1 and ring.one == ring.zero:
        raise RingAxiomError("one equals zero in a nontrivial ring")
    # every row of add must reach zero (additive inverses)
    if not np.all((add == ring.zero).any(axis=1)):
        raise RingAxiomError("some element has no additive inverse")
    points = [ring.zero, *_additive_generators(ring.add, ring.zero)]
    if not _associative_at(add, points):
        raise RingAxiomError("add is not associative")
    # holds everywhere only once distributivity holds too
    if not _associative_at(mul, points):
        raise RingAxiomError("mul is not associative")
    for g in points:
        # a*(b+g) == a*b + a*g
        if not np.array_equal(mul[:, add[:, g]], add[mul, mul[:, g, None]]):
            raise RingAxiomError("mul does not distribute over add")


def make_zn(n: int, limit: int | None = None) -> TableRing:
    """The ring of integers modulo n, elements labeled 0..n-1."""
    if n < 1:
        raise ValueError("modulus must be at least 1")
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    ring = TableRing(
        size=n,
        add=add,
        mul=mul,
        zero=0,
        one=1 % n,
        labels=tuple(str(a) for a in range(n)),
        name=f"Z{n}",
    )
    validate_ring(ring, limit)
    return ring


def direct_product(r1: TableRing, r2: TableRing, limit: int | None = None) -> TableRing:
    """Componentwise product ring; element (a, b) sits at index a*|R2| + b."""
    k1, k2 = r1.size, r2.size

    def pair(a: int, b: int) -> int:
        return a * k2 + b

    size = k1 * k2
    add = []
    mul = []
    for a in range(k1):
        for b in range(k2):
            add.append(tuple(pair(r1.add[a][c], r2.add[b][d]) for c in range(k1) for d in range(k2)))
            mul.append(tuple(pair(r1.mul[a][c], r2.mul[b][d]) for c in range(k1) for d in range(k2)))
    labels = tuple(
        f"({r1.labels[a]},{r2.labels[b]})" for a in range(k1) for b in range(k2)
    )
    ring = TableRing(
        size=size,
        add=tuple(add),
        mul=tuple(mul),
        zero=pair(r1.zero, r2.zero),
        one=pair(r1.one, r2.one),
        labels=labels,
        name=f"({r1.name}x{r2.name})",
    )
    validate_ring(ring, limit)
    return ring


def subring_from_subset(
    ring: TableRing, subset: Iterable[int], limit: int | None = None
) -> tuple[TableRing, tuple[int, ...]]:
    """Re-index a closed subset as a ring of its own.

    Returns the subring and the decode map (new index -> ambient index).
    The subset must contain zero and one and be closed under add, additive
    inverse, and mul; the first violating pair is reported otherwise.
    """
    decode = tuple(sorted(set(int(s) for s in subset)))
    index = {amb: i for i, amb in enumerate(decode)}
    if ring.zero not in index:
        raise ClosureError("subset misses the ambient zero", (ring.zero, ring.zero))
    if ring.one not in index:
        raise ClosureError("subset misses the ambient one", (ring.one, ring.one))
    for a in decode:
        if ring.neg[a] not in index:
            raise ClosureError(
                f"subset not closed under negation at {ring.labels[a]}", (a, a)
            )
        for b in decode:
            if ring.add[a][b] not in index:
                raise ClosureError(
                    f"subset not closed under add at ({ring.labels[a]},{ring.labels[b]})",
                    (a, b),
                )
            if ring.mul[a][b] not in index:
                raise ClosureError(
                    f"subset not closed under mul at ({ring.labels[a]},{ring.labels[b]})",
                    (a, b),
                )
    add = tuple(tuple(index[ring.add[a][b]] for b in decode) for a in decode)
    mul = tuple(tuple(index[ring.mul[a][b]] for b in decode) for a in decode)
    sub = TableRing(
        size=len(decode),
        add=add,
        mul=mul,
        zero=index[ring.zero],
        one=index[ring.one],
        labels=tuple(ring.labels[a] for a in decode),
        name=f"sub({ring.name})",
    )
    validate_ring(sub, limit)
    return sub, decode


class Ideal:
    """A closed subset of a ring: contains zero, add-closed, absorbs mul."""

    __slots__ = ("ring", "members", "member_set", "mask", "_pre")

    def __init__(self, ring: TableRing, members: Iterable[int], _checked: bool = False):
        mset = frozenset(int(m) for m in members)
        self.ring = ring
        self.members: tuple[int, ...] = tuple(sorted(mset))
        self.member_set: frozenset[int] = mset
        self.mask: int = mask_of(self.members)
        self._pre: tuple[int, ...] | None = None
        if not _checked:
            self._validate()

    @property
    def pre(self) -> tuple[int, ...]:
        """pre[a] = {b : a*b in J}, as masks; computed once."""
        if self._pre is None:
            self._pre = preimage_masks(self.ring.mul_array, self.members, self.ring.size)
        return self._pre

    def _validate(self) -> None:
        r = self.ring
        if r.zero not in self.member_set:
            raise ValueError("ideal must contain zero")
        for a in self.members:
            for b in self.members:
                if r.add[a][b] not in self.member_set:
                    raise ValueError(
                        f"not add-closed at ({r.labels[a]},{r.labels[b]})"
                    )
            for s in range(r.size):
                if r.mul[s][a] not in self.member_set:
                    raise ValueError(
                        f"not absorbing at {r.labels[s]}*{r.labels[a]}"
                    )

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.ring.size

    @property
    def is_zero(self) -> bool:
        return self.members == (self.ring.zero,)

    def __contains__(self, a: int) -> bool:
        return a in self.member_set

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ideal)
            and other.ring is self.ring
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.members))

    def label_set(self) -> str:
        return self.ring.label_set(self.members)

    def __repr__(self) -> str:
        return f"Ideal({self.ring.name}, {self.label_set()})"


def quotient_ring(
    ring: TableRing, j: Ideal, limit: int | None = None
) -> tuple[TableRing, tuple[int, ...]]:
    """Cosets of an ideal, indexed by minimal member; returns (ring, projection)."""
    if j.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    rep_of = [-1] * ring.size
    reps: list[int] = []
    for a in range(ring.size):
        if rep_of[a] >= 0:
            continue
        coset = sorted(ring.add[a][m] for m in j.members)
        rep = coset[0]
        reps.append(rep)
        for c in coset:
            rep_of[c] = rep
    reps.sort()
    index = {rep: i for i, rep in enumerate(reps)}
    projection = tuple(index[rep_of[a]] for a in range(ring.size))
    add = tuple(
        tuple(index[rep_of[ring.add[x][y]]] for y in reps) for x in reps
    )
    mul = tuple(
        tuple(index[rep_of[ring.mul[x][y]]] for y in reps) for x in reps
    )
    q = TableRing(
        size=len(reps),
        add=add,
        mul=mul,
        zero=index[rep_of[ring.zero]],
        one=index[rep_of[ring.one]],
        labels=tuple(f"[{ring.labels[rep]}]" for rep in reps),
        name=f"{ring.name}/J",
    )
    validate_ring(q, limit)
    return q, projection


def _additive_closure(add: Sequence[Sequence[int]], seed: Iterable[int], zero: int) -> frozenset[int]:
    members = set(seed)
    members.add(zero)
    work = list(members)
    while work:
        x = work.pop()
        for y in tuple(members):
            z = add[x][y]
            if z not in members:
                members.add(z)
                work.append(z)
    return frozenset(members)


def ideal_generated(ring: TableRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing the generators: multiples, then sums."""
    multiples = {ring.zero}
    for g in gens:
        g = int(g)
        if not 0 <= g < ring.size:
            raise ValueError(f"generator index {g} out of range")
        multiples.update(ring.mul[s][g] for s in range(ring.size))
    closed = _additive_closure(ring.add, multiples, ring.zero)
    return Ideal(ring, closed, _checked=True)


def enumerate_ideals(ring: TableRing) -> list[Ideal]:
    """Every ideal: the submodules of the regular module, in (size, members) order."""
    from .modules import enumerate_submodules, ring_as_module  # modules imports rings

    return [Ideal(ring, n.members, _checked=True)
            for n in enumerate_submodules(ring_as_module(ring))]


def _same_ring(a: Ideal, b: Ideal) -> TableRing:
    if a.ring is not b.ring:
        raise ValueError("ideals live in different rings")
    return a.ring


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    ring = _same_ring(a, b)
    closed = _additive_closure(ring.add, a.member_set | b.member_set, ring.zero)
    return Ideal(ring, closed, _checked=True)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    ring = _same_ring(a, b)
    prods = {ring.mul[x][y] for x in a.members for y in b.members}
    closed = _additive_closure(ring.add, prods, ring.zero)
    return Ideal(ring, closed, _checked=True)


def ideal_power(a: Ideal, n: int) -> Ideal:
    if n < 1:
        raise ValueError("exponent must be positive")
    acc = a
    for _ in range(n - 1):
        acc = ideal_product(acc, a)
    return acc


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    ring = _same_ring(a, b)
    return Ideal(ring, a.member_set & b.member_set, _checked=True)


def radical(j: Ideal) -> Ideal:
    """Elements with some power inside the ideal.

    Power walks stop after carrier-size steps: in a finite ring the power
    sequence of any element cycles within that many steps.
    """
    ring = j.ring
    members = set()
    for a in range(ring.size):
        p = a
        seen = set()
        for _ in range(ring.size):
            if p in j.member_set:
                members.add(a)
                break
            if p in seen:
                break
            seen.add(p)
            p = ring.mul[p][a]
    return Ideal(ring, members, _checked=True)
