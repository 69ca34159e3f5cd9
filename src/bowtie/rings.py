"""Finite commutative rings with identity, given by explicit operation tables.

Every ring here is extensional: a carrier 0..k-1 plus full addition and
multiplication tables. Constructions (products, subrings, quotients) are
index bookkeeping and rings by theorem, so they are not re-validated;
validate_ring checks tables that come from outside (see instances.py),
and the tests check the constructions against the axioms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

# Axiom validation is O(g k^2) numpy work for g additive generators; above
# this carrier size validate_ring and validate_module skip it unless the
# caller passes a larger limit.
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


# table_array's dtypes, narrowest first, with the range each holds
_DTYPES = (np.uint8, np.uint16, np.int32)
_NARROW = tuple((d, int(np.iinfo(d).min), int(np.iinfo(d).max)) for d in _DTYPES)


def narrow_dtype(lo: int, hi: int) -> type:
    """The dtype table_array gives a table whose entries range over lo..hi."""
    for dtype, low, high in _NARROW:
        if low <= lo and hi <= high:
            return dtype
    raise OverflowError(f"table entries {lo}..{hi} are out of bounds for int32")


def table_array(table: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """A read-only numpy copy of an operation table, nested sequences or array.

    Entries are stored as uint8 or uint16 when they all fit, so that the
    stored tables stay small; a table with an entry outside that range
    (which validation then rejects) is int32. An array that is read-only
    in one of these dtypes already, as the constructions build theirs, is
    returned as it is; an entry that is not an integer raises ValueError.
    """
    if isinstance(table, np.ndarray):
        if not table.flags.writeable and table.dtype in _DTYPES:
            return table
        if table.dtype.kind not in "biu":
            raise ValueError(f"table entries must be integers, not {table.dtype}")
        # casting an array to a narrower dtype wraps silently, so the
        # dtype is chosen from the entries' range
        lo, hi = (int(table.min()), int(table.max())) if table.size else (0, 0)
        arr = table.astype(narrow_dtype(lo, hi))
    else:
        # casting nested sequences raises OverflowError at an entry out of
        # range but truncates a float, which makes the sum of all a float
        for dtype in _DTYPES[:2]:
            try:
                arr = np.asarray(table, dtype=dtype)
                break
            except OverflowError:
                continue
        else:
            arr = np.asarray(table, dtype=np.int32)
        if not isinstance(sum(map(sum, table)), (int, np.integer)):
            raise ValueError("table entries must be integers")
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


# a gather through a table reads about this many entries at a time: np.take
# widens its indices to int64, so a whole k x k gather would hold 8 bytes
# per entry; a table of at most this many entries is one block
GATHER_BLOCK = 1 << 18


def row_block(width: int) -> int:
    """How many rows of a table this wide one gather reads."""
    return max(1, GATHER_BLOCK // width)


def bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# Byte b with its bits reversed and complemented. Mapped through this, the
# little-endian bytes of two masks with as many set bits compare as their
# ascending member lists do: the lesser list holds the least element of the
# symmetric difference, the lowest bit at which the two differ.
_LEX_BYTES = bytes(0xFF ^ int(f"{b:08b}"[::-1], 2) for b in range(256))


def lex_key(mask: int, width: int) -> bytes:
    """A sort key, among masks with as many set bits, for the order of their
    ascending member lists, read off the mask's ``width`` bytes without
    listing its members."""
    return mask.to_bytes(width, "little").translate(_LEX_BYTES)


def _row_keys(hits: np.ndarray) -> list:
    """Row i of a boolean matrix, all rows in one conversion: the mask of its
    True columns up to 64 columns, its little-endian bytes beyond."""
    packed = np.packbits(hits, axis=1, bitorder="little")
    rows, width = packed.shape
    if width > 8:  # packbits of a transposed input is not C-contiguous
        return np.ascontiguousarray(packed).view(f"V{width}").ravel().tolist()
    wide = np.zeros((rows, 8), dtype=np.uint8)
    wide[:, :width] = packed
    return wide.view("<u8").ravel().tolist()


def _mask(key: int | bytes) -> int:
    return key if type(key) is int else int.from_bytes(key, "little")


def pack_rows(hits: np.ndarray) -> tuple[int, ...]:
    """Row i of a boolean matrix as the mask of its True columns."""
    return tuple(map(_mask, _row_keys(hits)))


def inside(mask: int, size: int) -> np.ndarray:
    """Bit x of the mask for every x of a carrier of this size, as a boolean
    vector: the one conversion of a subset into numpy."""
    packed = np.frombuffer(mask.to_bytes((size + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").view(bool)


def pack(hits: np.ndarray) -> int:
    """The mask of a boolean vector's True entries: inside's inverse."""
    return int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")


def inside_rows(masks: Sequence[int], size: int) -> np.ndarray:
    """inside(mask, size) for each mask, as the rows of one boolean matrix."""
    width = (size + 7) // 8
    packed = np.frombuffer(b"".join([m.to_bytes(width, "little") for m in masks]), np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=size,
                         bitorder="little").view(bool)


def preimage_classes(table: np.ndarray, mask: int, size: int) -> tuple[tuple[int, int], ...]:
    """The scalar classes of pre[a] = {x : table[a][x] in S}, for the subset S
    with this mask of a carrier of the given size: each distinct row p with
    the mask of the scalars a whose pre[a] is p, ordered by least scalar.
    Colons and scans depend on a only through pre[a], so they loop over
    these classes."""
    member = inside(mask, size)
    classes: dict = {}
    step = row_block(table.shape[1])
    for start in range(0, len(table), step):
        for a, key in enumerate(_row_keys(member.take(table[start:start + step])), start):
            classes[key] = classes.get(key, 0) | 1 << a
    return tuple((_mask(key), scalars) for key, scalars in classes.items())


def derived(obj: Any, key: str, compute: Callable[..., Any], *args: Any) -> Any:
    """compute(*args), a value derived from a table object on first use.

    Kept in the object's ``derived_cache`` field rather than with
    functools.cached_property: a write into an instance's ``__dict__``
    costs CPython its fast path for every later attribute load on that
    instance.
    """
    cache = obj.derived_cache
    if key not in cache:
        cache[key] = compute(*args)
    return cache[key]


def memo(owner: Any, what: str, key: Any, compute: Callable[..., Any], *args: Any) -> Any:
    """compute(*args), a value derived from an object and a key, computed
    once per (what, key) in the object's ``derived_cache``. A value that
    referred back to the object would make a reference cycle, so callers
    store masks, ints, verdicts and objects that do not refer to it. Nearly
    every lookup hits, so callers pass the function and its arguments, not
    a closure that a hit would build for nothing."""
    try:
        values = owner.derived_cache[what]
    except KeyError:  # once per owner and what
        values = owner.derived_cache[what] = {}
    if key in values:
        return values[key]
    value = values[key] = compute(*args)
    return value


def subset_classes(owner: Any, table: np.ndarray, mask: int) -> tuple[tuple[int, int], ...]:
    """preimage_classes of the subset with this mask under ``table``, owner's
    multiplication or action table, once per (owner, mask)."""
    return memo(owner, "classes", mask, preimage_classes, table, mask, table.shape[1])


def class_ids(classes: tuple[tuple[int, int], ...], size: int) -> np.ndarray:
    """Each scalar's index in its classes, the one expansion of classes into per-scalar
    values: the row of the set bit in each column of their scalar masks, unpacked."""
    return inside_rows([scalars for _p, scalars in classes], size).argmax(axis=0)


def class_rows(classes: tuple[tuple[int, int], ...], size: int) -> tuple[int, ...]:
    """pre[a] for each scalar a, read off its class."""
    return tuple([classes[i][0] for i in class_ids(classes, size).tolist()])


def carrier_table(values: np.ndarray, size: int) -> np.ndarray:
    """A computed table whose entries index a carrier of the given size,
    read-only in table_array's dtype for it (the row of zero or of one
    holds every element); ``values`` itself when it has that dtype."""
    arr = values.astype(narrow_dtype(0, size - 1), copy=False)
    arr.setflags(write=False)
    return arr


def _neg(add: np.ndarray, zero: int) -> np.ndarray:
    return table_array((add == zero).argmax(axis=1))


class Carrier:
    """What a TableRing and a TableModule read off their addition table and
    labels alone."""

    @property
    def neg(self) -> np.ndarray:
        """Additive inverses as a table_array: neg[x] is the y with x + y = zero."""
        return derived(self, "neg", _neg, self.add, self.zero)

    def label_set(self, members: Iterable[int]) -> str:
        return "{" + ",".join(self.labels[m] for m in sorted(members)) + "}"


@dataclass(frozen=True, eq=False)
class TableRing(Carrier):
    """A finite commutative ring with identity on the carrier 0..size-1.

    ``add`` and ``mul`` are stored as their table_array, whatever the
    constructor was given.
    """

    size: int
    add: np.ndarray
    mul: np.ndarray
    zero: int
    one: int
    labels: tuple[str, ...]
    name: str = "ring"
    derived_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "add", table_array(self.add))
        object.__setattr__(self, "mul", table_array(self.mul))

    @property
    def zero_pre(self) -> tuple[int, ...]:
        """zero_pre[a] = {b : a*b = 0}, as masks, read off the zero ideal's classes."""
        zero = subset_classes(self, self.mul, 1 << self.zero)
        return derived(self, "zero_pre", class_rows, zero, self.size)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"TableRing({self.name}, size={self.size})"


def _additive_generators(add: np.ndarray, zero: int) -> list[int]:
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
            row = add[work.pop()].tolist()
            for z in tuple(members):
                s = row[z]
                if s not in members:
                    members.add(s)
                    work.append(s)
    return gens


def _associative_at(op: np.ndarray, points: Sequence[int]) -> bool:
    """(x.g).y == x.(g.y) for all x, y and every g in points, in one
    comparison. For a commutative op both sides are entries of the
    (g, x, y) array t = (g.x).y, read off whole rows of op: (x.g).y is
    t[g, x, y] and x.(g.y) = (g.y).x is t[g, y, x]."""
    t = op.take(op[points], axis=0)
    return bool((t == t.transpose(0, 2, 1)).all())


def _sums_at(add: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """add[left, right] entrywise, for index arrays that broadcast
    together, through one narrow flat index."""
    k = len(add)
    return add.ravel().take(left.astype(narrow_dtype(0, k * k - 1)) * k + right)


def in_range(table: np.ndarray, size: int) -> bool:
    """Whether every entry indexes a carrier of this size; table_array's
    unsigned dtypes hold no negative entry."""
    return (table.dtype.kind == "u" or table.min() >= 0) and table.max() < size


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
    add = ring.add
    mul = ring.mul
    for tbl, op in ((add, "add"), (mul, "mul")):
        if tbl.shape != (k, k) or not in_range(tbl, k):
            raise RingAxiomError(f"{op} table is not a total operation on the carrier")
        if not (tbl == tbl.T).all():
            raise RingAxiomError(f"{op} is not commutative")
    idx = np.arange(k, dtype=np.int32)
    if not (0 <= ring.zero < k and (add[ring.zero] == idx).all()):
        raise RingAxiomError("zero is not an additive identity")
    if not (0 <= ring.one < k and (mul[ring.one] == idx).all()):
        raise RingAxiomError("one is not a multiplicative identity")
    if k > 1 and ring.one == ring.zero:
        raise RingAxiomError("one equals zero in a nontrivial ring")
    # every row of add must reach zero (additive inverses)
    if not (add == ring.zero).any(axis=1).all():
        raise RingAxiomError("some element has no additive inverse")
    points = [ring.zero, *_additive_generators(ring.add, ring.zero)]
    if not _associative_at(add, points):
        raise RingAxiomError("add is not associative")
    # holds everywhere only once distributivity holds too
    if not _associative_at(mul, points):
        raise RingAxiomError("mul is not associative")
    # (b+g)*a == b*a + g*a, as (g, b, a) arrays of whole rows
    if not (mul.take(add[points], axis=0)
            == _sums_at(add, mul[None], mul[points][:, None])).all():
        raise RingAxiomError("mul does not distribute over add")


def make_zn(n: int) -> TableRing:
    """The ring of integers modulo n, elements labeled 0..n-1."""
    if n < 1:
        raise ValueError("modulus must be at least 1")
    a = np.arange(n, dtype=np.int64)
    return TableRing(
        size=n,
        add=carrier_table(np.add.outer(a, a) % n, n),
        mul=carrier_table(np.multiply.outer(a, a) % n, n),
        zero=0,
        one=1 % n,
        labels=tuple(str(a) for a in range(n)),
        name=f"Z{n}",
    )


def direct_product(r1: TableRing, r2: TableRing) -> TableRing:
    """Componentwise product ring; element (a, b) sits at index a*|R2| + b."""
    k1, k2 = r1.size, r2.size
    size = k1 * k2

    def combine(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        # entry ((a, b), (c, d)) is t1[a, c]*k2 + t2[b, d], summed in the
        # table's own dtype: only the k1 x k1 products are int64
        high = (t1.astype(np.int64) * k2).astype(narrow_dtype(0, size - 1))
        t = high[:, None, :, None] + t2[None, :, None, :]
        return carrier_table(t.reshape(size, size), size)

    labels = tuple(
        f"({r1.labels[a]},{r2.labels[b]})" for a in range(k1) for b in range(k2)
    )
    return TableRing(
        size=size,
        add=combine(r1.add, r2.add),
        mul=combine(r1.mul, r2.mul),
        zero=r1.zero * k2 + r2.zero,
        one=r1.one * k2 + r2.one,
        labels=labels,
        name=f"({r1.name}x{r2.name})",
    )


def subring_from_subset(
    ring: TableRing, subset: Iterable[int]
) -> tuple[TableRing, tuple[int, ...]]:
    """Re-index a closed subset as a ring of its own.

    Returns the subring and the decode map (new index -> ambient index).
    The subset must contain zero and one and be closed under add, additive
    inverse, and mul; the first violating pair is reported otherwise.
    """
    decode = tuple(sorted(set(int(s) for s in subset)))
    if ring.zero not in decode:
        raise ClosureError("subset misses the ambient zero", (ring.zero, ring.zero))
    if ring.one not in decode:
        raise ClosureError("subset misses the ambient one", (ring.one, ring.one))
    d = np.asarray(decode)
    index = np.full(ring.size, -1, dtype=np.int64)  # ambient -> new index
    index[d] = np.arange(len(d))
    neg = index[ring.neg[d]]
    add = index.take(ring.add.take(d, axis=0).take(d, axis=1))
    mul = index.take(ring.mul.take(d, axis=0).take(d, axis=1))
    # the first a whose negation, or some sum or product with a b, leaves
    # the subset; at that a, negation is reported first, then b ascending
    outside = (add < 0) | (mul < 0)
    bad_rows = (neg < 0) | outside.any(axis=1)
    if bad_rows.any():
        i = int(bad_rows.argmax())
        a = decode[i]
        if neg[i] < 0:
            raise ClosureError(f"subset not closed under negation at {ring.labels[a]}", (a, a))
        j = int(outside[i].argmax())
        b, op = decode[j], "add" if add[i, j] < 0 else "mul"
        raise ClosureError(
            f"subset not closed under {op} at ({ring.labels[a]},{ring.labels[b]})", (a, b)
        )
    sub = TableRing(
        size=len(decode),
        add=carrier_table(add, len(decode)),
        mul=carrier_table(mul, len(decode)),
        zero=int(index[ring.zero]),
        one=int(index[ring.one]),
        labels=tuple(ring.labels[a] for a in decode),
        name=f"sub({ring.name})",
    )
    return sub, decode


class Subset:
    """What an Ideal or a Submodule reads off its mask alone; its slot
    ``over`` holds the ring or the module it lives in.

    A subset is stored once, as its mask; its members ascending are read
    off it on first use. Calling the class validates the members (the
    trust boundary); constructions, which build subsets closed by theorem,
    call from_mask.
    """

    __slots__ = ("over", "mask", "_members")

    @classmethod
    def from_mask(cls, over: Any, mask: int) -> Subset:
        """A subset known to be closed, from its mask."""
        sub = cls.__new__(cls)
        sub._store(over, mask, None)
        return sub

    @property
    def members(self) -> tuple[int, ...]:
        """The members, ascending, read off the mask once."""
        members = self._members
        if members is None:
            members = self._members = tuple(bits(self.mask))
        return members

    def _check(self, over: Any, members: Iterable[int], act: np.ndarray,
               scalars: Sequence[str], closed: str) -> None:
        """Store the given members of ``over`` after checking that they
        contain zero and are closed under + and under the action table
        ``act``, whose scalars have these labels; ValueError otherwise.

        The violation reported is the first at the least member a: a sum
        a+b, b ascending, before a product s*a, s ascending.
        """
        mask = 0
        for x in members:
            x = operator.index(x)
            if not 0 <= x < over.size:
                raise ValueError(f"element index {x} out of range")
            mask |= 1 << x
        if not mask >> over.zero & 1:
            raise ValueError(f"{type(self).__name__.lower()} must contain zero")
        member = inside(mask, over.size)
        idx = member.nonzero()[0]
        outside = ~member
        sums = outside.take(over.add.take(idx, axis=0).take(idx, axis=1))
        products = outside.take(act.take(idx, axis=1).T)  # products[i, s]: s*idx[i]
        bad = sums.any(axis=1) | products.any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            labels = over.labels
            a = labels[idx[i]]
            if sums[i].any():
                b = labels[idx[int(sums[i].argmax())]]
                raise ValueError(f"not add-closed at ({a},{b})")
            s = scalars[int(products[i].argmax())]
            raise ValueError(f"not {closed} at {s}*{a}")
        self._store(over, mask, tuple(idx.tolist()))

    @property
    def is_proper(self) -> bool:
        return self.mask.bit_count() < self.over.size

    @property
    def is_zero(self) -> bool:
        return self.mask == 1 << self.over.zero

    def __contains__(self, x: int) -> bool:
        x = operator.index(x)
        return x >= 0 and self.mask >> x & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and other.over is self.over
                and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((id(self.over), self.mask))

    def label_set(self) -> str:
        """The members' labels, rendered once per mask of ``over``: subsets
        built afresh from one mask share the text, and decode no member."""
        return memo(self.over, "label_set", self.mask, _label_text, self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.over.name}, {self.label_set()})"


def _label_text(sub: Subset) -> str:
    return sub.over.label_set(sub.members)


class Ideal(Subset):
    """A closed subset of a ring: contains zero, add-closed, absorbs mul."""

    __slots__ = ("ring",)

    def __init__(self, ring: TableRing, members: Iterable[int]):
        self._check(ring, members, ring.mul, ring.labels, "absorbing")

    def _store(self, ring: TableRing, mask: int, members: tuple[int, ...] | None) -> None:
        self.ring = self.over = ring
        self.mask, self._members = mask, members

    @property
    def classes(self) -> tuple[tuple[int, int], ...]:
        """The scalar classes of pre[a] = {b : a*b in J}, computed once per
        distinct J in the ring's memo, which the regular module shares."""
        return subset_classes(self.ring, self.ring.mul, self.mask)


def _join(
    add: np.ndarray, k_mask: int, k_members: Sequence[int], other: int,
    cosets: dict[int, int],
) -> int:
    """K + S for an additive subgroup K and a subset S, as a mask, from the
    group's addition table.

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


def subgroup_sum(add: np.ndarray, zero: int, pieces: Iterable[int]) -> int:
    """The sum of additive subgroups, given by their masks, as a mask: each
    piece not yet inside is joined onto the sum so far, by the cosets of
    that sum.

    The one sum of ideals and submodules: submodule_generated (and through
    it ideal_generated) and duplication.product_submodule build theirs here.
    """
    total = 1 << zero
    for piece in pieces:
        if piece & ~total:
            total = _join(add, total, bits(total), piece, {})
    return total


def row_images(rows: np.ndarray, size: int) -> tuple[int, ...]:
    """The entries of each row, indices into a carrier of this size, as
    masks: sM from row s of an action table, Rg from its column g. A block
    of rows at a time."""
    masks: list[int] = []
    step = row_block(max(size, rows.shape[1]))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        hits = np.zeros((len(block), size), dtype=bool)
        hits[np.arange(len(block))[:, None], block] = True
        masks.extend(pack_rows(hits))
    return tuple(masks)


def principal_masks(ring: TableRing) -> tuple[int, ...]:
    """principal[a] = aA, the principal ideal of a, as a mask; computed once.
    It is also the cyclic submodule of a, and the image a*M, in every module
    acting by ``mul``."""
    return derived(ring, "principal_masks", row_images, ring.mul, ring.size)


def generated_mask(add: np.ndarray, zero: int, cyclic: Sequence[int], gens: Iterable[int]) -> int:
    """The sum of the cyclic pieces cyclic[g] of the generators, as a mask."""
    pieces = []
    for g in gens:
        g = int(g)
        if not 0 <= g < len(cyclic):
            raise ValueError(f"generator index {g} out of range")
        pieces.append(cyclic[g])
    return subgroup_sum(add, zero, pieces)


def ideal_generated(ring: TableRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing the generators: the sum of the principal
    ideals gA."""
    return Ideal.from_mask(ring, generated_mask(ring.add, ring.zero, principal_masks(ring), gens))


def enumerate_ideals(ring: TableRing) -> list[Ideal]:
    """Every ideal: the submodules of the regular module, in (size, members) order."""
    from .modules import enumerate_submodules, ring_as_module  # modules imports rings

    return [Ideal.from_mask(ring, n.mask) for n in enumerate_submodules(ring_as_module(ring))]


def radical(j: Ideal) -> Ideal:
    """Elements with some power inside the ideal, computed once per distinct
    ideal of the ring."""
    ring = j.ring
    return Ideal.from_mask(ring, memo(ring, "radicals", j.mask, _radical_mask, ring, j.mask))


def _radical_mask(ring: TableRing, mask: int) -> int:
    """The a with a**(2**t) in the ideal with this mask, for the least t with
    2**t >= size. Some power of a lies in J exactly when the class of a in
    A/J is nilpotent; its index of nilpotency is then at most |A/J| <= size,
    so a**(2**t) lies in J."""
    powers = derived(ring, "top_powers", _top_powers, ring.mul)
    return pack(inside(mask, ring.size).take(powers))


def _top_powers(mul: np.ndarray) -> np.ndarray:
    """a**(2**t) for every a, 2**t the least power of two >= the carrier
    size: t squarings, each a gather along mul's diagonal."""
    square = mul.diagonal()
    powers = np.arange(len(mul))
    for _ in range((len(mul) - 1).bit_length()):
        powers = square.take(powers)
    return powers
