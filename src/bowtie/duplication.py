"""Amalgamated duplication of a ring along an ideal, and of a module.

For a ring A with ideal I, the duplication is the subring
{(a, a+i) : a in A, i in I} of A x A. For an A-module M it is the set of
pairs (m, m') with m - m' in IM, which is a module over the duplicated
ring under (a, a+i).(m, m') = (a m, (a+i) m'). Everything is carried in
pair notation end to end: witnesses decode to pairs of base elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rings import (
    ClosureError, Ideal, TableRing, carrier_table, inside, mask_of, memo, narrow_dtype, pack,
    row_block, row_images, subgroup_sum,
)
from .modules import Submodule, TableModule


@dataclass(frozen=True, eq=False)
class BowtieInstance:
    """A built duplication: base data, pairs and generator blocks; the
    duplicated ring and module build their tables on first read.

    ``ring_pairs`` and ``module_pairs`` are read-only (k, 2) arrays: row x
    holds the base indices of the pair at index x, (a, a+i) for the ring,
    (m, m') for the module, and ``ring_index`` and ``module_index`` their
    lookups (_pairs); for a regular M they are one. ``gens`` and ``scalars``
    index the pair generators of M><I and A><I; M><I's generator blocks are
    ``sums[x, j] = x + gens[j]`` and ``products[i, j] = scalars[i] gens[j]``.
    """

    base_ring: TableRing
    ideal: Ideal
    base_module: TableModule
    im: Submodule  # the submodule I*M of the base module
    ring_pairs: np.ndarray
    module_pairs: np.ndarray
    ring_index: np.ndarray
    module_index: np.ndarray
    gens: np.ndarray
    scalars: np.ndarray
    sums: np.ndarray
    products: np.ndarray

    @cached_property
    def bowtie_ring(self) -> TableRing:
        ring, pairs, index = self.base_ring, self.ring_pairs, self.ring_index
        n = ring.size
        return TableRing(
            size=len(pairs), add=_componentwise(ring.add, pairs, pairs, index, n, "add"),
            mul=_componentwise(ring.mul, pairs, pairs, index, n, "mul"),
            zero=int(index[ring.zero * n + ring.zero]), one=int(index[ring.one * n + ring.one]),
            labels=tuple(f"({ring.labels[a]},{ring.labels[b]})" for a, b in pairs.tolist()),
            name=f"sub(({ring.name}x{ring.name}))")

    @cached_property
    def bowtie_module(self) -> TableModule:
        module, ring, pairs, index = (self.base_module, self.bowtie_ring, self.module_pairs,
                                      self.module_index)
        k, regular = module.size, pairs is self.ring_pairs
        return TableModule(
            ring=ring, size=len(pairs),
            add=ring.add if regular else _componentwise(module.add, pairs, pairs, index, k, "add"),
            act=ring.mul if regular else _componentwise(module.act, self.ring_pairs, pairs, index,
                                                        k, "act"),
            zero=int(index[module.zero * k + module.zero]),
            labels=(ring.labels if regular and module.labels is self.base_ring.labels
                    else tuple(f"({module.labels[m]},{module.labels[mp]})"
                               for m, mp in pairs.tolist())),
            name=f"{module.name}><{self.ideal.label_set()}")

    def __repr__(self) -> str:
        return (f"BowtieInstance({self.base_ring.name}, I={self.ideal.label_set()},"
                f" |ring|={len(self.ring_pairs)}, |module|={len(self.module_pairs)})")


def product_submodule(ideal: Ideal, module: TableModule) -> Submodule:
    """The submodule I*M: the sum of the submodules s*M, s in I."""
    if ideal.ring is not module.ring:
        raise ValueError("ideal and module are over different rings")
    pieces = row_images(module.act.take(ideal.members, axis=0), module.size)
    return Submodule.from_mask(module, subgroup_sum(module.add, module.zero, pieces))


def im_submodule(ideal: Ideal, module: TableModule) -> Submodule:
    """I*M as predicted_sizes and build_bowtie read it. When M is the regular
    module of A (it acts by the ring's own ``mul``), IM = IA = I; else it is
    product_submodule's, summed once per (M, I) and kept on M as its mask."""
    if ideal.ring is not module.ring:
        raise ValueError("ideal and module are over different rings")
    if module.table_owner is ideal.ring:
        return Submodule.from_mask(module, ideal.mask)
    return Submodule.from_mask(module, memo(module, "im", ideal.mask, _im_mask, ideal, module))


def _im_mask(ideal: Ideal, module: TableModule) -> int:
    return product_submodule(ideal, module).mask


def predicted_sizes(ring: TableRing, ideal: Ideal, module: TableModule) -> tuple[int, int]:
    """(|A join I|, |M join I|) without building anything large."""
    return ring.size * len(ideal), module.size * len(im_submodule(ideal, module))


def table_bytes(ring: TableRing, module: TableModule, ring_size: int, module_size: int) -> int:
    """The bytes of A><I's add and mul and, unless M is regular and M><I
    shares them, of M><I's add and act, at these sizes in table_array's
    dtypes (int32 past its range, where no table can be built)."""
    def held(rows: int, size: int) -> int:  # rows of entries indexing a carrier of this size
        return rows * size * np.dtype(narrow_dtype(0, min(size, 1 << 31) - 1)).itemsize
    rows = 0 if module.table_owner is ring else ring_size + module_size
    return held(2 * ring_size, ring_size) + held(rows, module_size)


def _pairs(codes: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """For sorted pair codes a*width + b: the pairs as a read-only
    (count, 2) array, and the pair index by code in the narrowest dtype
    that holds count, which is the index of a pair outside the carrier."""
    count = len(codes)
    pairs = carrier_table(np.stack(np.divmod(codes, width), axis=1), width)
    lookup = np.full(width * width, count, dtype=narrow_dtype(0, count))
    lookup[codes] = np.arange(count)
    return pairs, lookup


def pairs_in(pairs: np.ndarray, component: int, mask: int, size: int) -> int:
    """The mask of the pairs whose component (0 the first, 1 the second)
    lies in the subset with this mask of a base carrier of this size."""
    return pack(inside(mask, size).take(pairs[:, component]))


def pair_generators(pairs: np.ndarray, zero: int) -> np.ndarray:
    """Indices of the additive generators (x, x) and (0, t): (x, x') = (x, x) + (0, x' - x)."""
    return np.flatnonzero((pairs[:, 0] == pairs[:, 1]) | (pairs[:, 0] == zero))


def _componentwise(op: np.ndarray, rows: np.ndarray, cols: np.ndarray, lookup: np.ndarray,
                   width: int, what: str, at: np.ndarray | None = None) -> np.ndarray:
    """The table (r, r').(c, c') = (r op c, r' op c') through the pair index,
    on the columns ``cols[at]`` when ``at`` is given.

    A result outside the carrier of cols raises ClosureError at the first
    such entry, with its two pairs as codes a*width + b. The codes are built
    in the narrowest dtype that holds them, a block of rows at a time, and
    looked up in the lookup's dtype, so the table is the one large array of
    the call; it comes back read-only in table_array's dtype.
    """
    size = len(cols)  # the lookup's index for a pair outside
    cols = cols if at is None else cols.take(at, axis=0)
    t = op.astype(narrow_dtype(0, width * width - 1))
    # firsts[a, c] = a op c for the first component c of each column pair
    firsts, seconds = t.take(cols[:, 0], axis=1), t.take(cols[:, 1], axis=1)
    table = np.empty((len(rows), len(cols)), dtype=lookup.dtype)
    step = row_block(len(cols))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        codes = firsts.take(block[:, 0], axis=0)
        codes *= width
        codes += seconds.take(block[:, 1], axis=0)
        table[start:start + step] = lookup.take(codes)
    if table.max() == size:
        i, j = (int(v) for v in np.argwhere(table == size)[0])
        (a, b), (x, y) = rows[i].tolist(), cols[j].tolist()
        raise ClosureError(f"subset not closed under {what} at (({a},{b}),({x},{y}))",
                           (a * width + b, x * width + y))
    return carrier_table(table, size)


def build_bowtie(ring: TableRing, ideal: Ideal, module: TableModule) -> BowtieInstance:
    """Construct the duplication from its pairs; no table of it is built.

    Both carriers are sorted pairs, the lexicographic order of A x A and
    M x M, operated on componentwise. They are a ring and a module by
    theorem (D'Anna-Fontana; Bouba-Mahdou-Tamekkante), so nothing is
    re-validated, but a pair set P that is not closed raises ClosureError:
    P is closed under + iff P + g lies in P for each generator g, and then
    under a product iff each product of two generators does, by
    bilinearity, so the generator blocks of M><I (and of A><I, unless M is
    regular) are the check. When M is the regular module of A (it acts by
    the ring's own ``mul``), IM = IA = I and M><I is A><I's regular module.
    """
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    if module.ring is not ring:
        raise ValueError("module is over a different ring")
    im = im_submodule(ideal, module)
    n, k = ring.size, module.size
    # ring carrier: the pairs (a, a+i), as codes a*n + (a+i), sorted
    ring_codes = np.sort((np.arange(n)[:, None] * n
                          + ring.add.take(ideal.members, axis=1)).ravel())
    ring_pairs, ring_index = _pairs(ring_codes, n)
    scalars = pair_generators(ring_pairs, ring.zero)
    scalar_pairs = ring_pairs.take(scalars, axis=0)
    if module.table_owner is ring:
        module_pairs, module_index, gens = ring_pairs, ring_index, scalars
        add, act, acts = ring.add, ring.mul, "mul"
    else:
        # A><I's own blocks, for the check alone: M><I's may miss a non-ideal I
        _componentwise(ring.add, ring_pairs, ring_pairs, ring_index, n, "add", scalars)
        _componentwise(ring.mul, scalar_pairs, ring_pairs, ring_index, n, "mul", scalars)
        # module carrier: pairs (m, m') with m - m' in IM, in lexicographic order
        diff = module.add.take(module.neg, axis=1)  # diff[m, m'] = m - m'
        module_pairs, module_index = _pairs(np.flatnonzero(inside(im.mask, k).take(diff)), k)
        gens = pair_generators(module_pairs, module.zero)
        add, act, acts = module.add, module.act, "act"
    return BowtieInstance(
        base_ring=ring, ideal=ideal, base_module=module, im=im, ring_pairs=ring_pairs,
        module_pairs=module_pairs, ring_index=ring_index, module_index=module_index,
        gens=gens, scalars=scalars,
        sums=_componentwise(add, module_pairs, module_pairs, module_index, k, "add", gens),
        products=_componentwise(act, scalar_pairs, module_pairs, module_index, k, acts, gens))


def bowtie_submodule(inst: BowtieInstance, n: Submodule) -> Submodule:
    """N join I: the pairs whose first component lies in N."""
    if n.module is not inst.base_module:
        raise ValueError("submodule belongs to a different module")
    return Submodule.from_mask(inst.bowtie_module,
                               pairs_in(inst.module_pairs, 0, n.mask, n.module.size))


def detect_bowtie_form(inst: BowtieInstance, s: Submodule) -> Submodule | None:
    """Recover N with (N join I) = S, when S has that shape.

    N is the set of first components of S, its image under the first
    projection and so a submodule of M; S has the shape when rebuilding
    from N reproduces it exactly.
    """
    if s.module is not inst.bowtie_module:
        raise ValueError("submodule belongs to a different module")
    n = Submodule.from_mask(inst.base_module,
                            mask_of(inst.module_pairs[:, 0].take(s.members).tolist()))
    return n if bowtie_submodule(inst, n).mask == s.mask else None
