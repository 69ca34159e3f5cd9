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
from typing import Sequence

import numpy as np

from .rings import ClosureError, Ideal, TableRing, carrier_table, closure_mask, pack_rows
from .modules import Submodule, TableModule


@dataclass(frozen=True, eq=False)
class BowtieInstance:
    """A built duplication: base data, duplicated ring and module, decodes."""

    base_ring: TableRing
    ideal: Ideal
    base_module: TableModule
    im: Submodule  # the submodule I*M of the base module
    bowtie_ring: TableRing
    bowtie_module: TableModule
    ring_pairs: tuple[tuple[int, int], ...]  # ring index -> (a, a+i) base indices
    module_pairs: tuple[tuple[int, int], ...]

    @cached_property
    def ring_pair_index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.ring_pairs)}

    def __repr__(self) -> str:
        return (
            f"BowtieInstance({self.base_ring.name}, I={self.ideal.label_set()},"
            f" |ring|={self.bowtie_ring.size}, |module|={self.bowtie_module.size})"
        )


def product_submodule(ideal: Ideal, module: TableModule) -> Submodule:
    """The submodule I*M: the additive closure of the products i*m."""
    if ideal.ring is not module.ring:
        raise ValueError("ideal and module are over different rings")
    return Submodule.from_mask(module, _products_closure(module, ideal.members))


def _products_closure(module: TableModule, scalars: Sequence[int]) -> int:
    """The additive closure of the products s*m, s among the scalars, as a mask."""
    hits = np.zeros((1, module.size), dtype=bool)
    hits[0, module.act.take(list(scalars), axis=0)] = True
    return closure_mask(module.add, pack_rows(hits)[0], module.zero)


def predicted_sizes(ring: TableRing, ideal: Ideal, module: TableModule) -> tuple[int, int]:
    """(|A join I|, |M join I|) without building anything large."""
    im = product_submodule(ideal, module)
    return ring.size * len(ideal), module.size * len(im)


def _pairs(codes: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """For sorted pair codes a*width + b: the pairs as a (count, 2) array,
    the pair index by code (-1 for a pair outside the carrier), and the
    pairs as tuples."""
    pairs = np.stack(np.divmod(codes, width), axis=1)
    lookup = np.full(width * width, -1, dtype=np.int64)
    lookup[codes] = np.arange(len(codes))
    return pairs, lookup, tuple(map(tuple, pairs.tolist()))


def _componentwise(op: np.ndarray, rows: np.ndarray, cols: np.ndarray, lookup: np.ndarray,
                   width: int, what: str) -> np.ndarray:
    """The table (r, r').(c, c') = (r op c, r' op c') through the pair index.

    A result outside the carrier raises ClosureError at the first such
    entry, with its two pairs as codes a*width + b. The table comes back
    read-only in table_array's dtype, so no int64 copy outlives the call.
    """
    t = op.astype(np.int64)
    # codes are built in place: they are a build's largest temporaries
    codes = t.take(rows[:, 0], axis=0).take(cols[:, 0], axis=1)
    codes *= width
    codes += t.take(rows[:, 1], axis=0).take(cols[:, 1], axis=1)
    table = lookup.take(codes)
    if (table < 0).any():
        i, j = (int(v) for v in np.argwhere(table < 0)[0])
        (a, b), (x, y) = rows[i].tolist(), cols[j].tolist()
        raise ClosureError(
            f"subset not closed under {what} at (({a},{b}),({x},{y}))",
            (a * width + b, x * width + y),
        )
    # the entries index the carrier of cols
    return carrier_table(table, len(cols))


def build_bowtie(ring: TableRing, ideal: Ideal, module: TableModule) -> BowtieInstance:
    """Construct the duplicated ring and module from their pairs.

    Both carriers are sorted pairs, the lexicographic order of A x A and
    M x M, and both are operated on componentwise. They are a ring and a
    module by theorem (D'Anna-Fontana; Bouba-Mahdou-Tamekkante), so
    nothing is re-validated; a pair set that is not closed raises
    ClosureError. When M is the regular module of A (it stores the ring's
    own arrays), IM = I, so M><I has the pairs of A><I and is its regular
    module: it shares the ring's arrays instead of computing two more.
    """
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    if module.ring is not ring:
        raise ValueError("module is over a different ring")
    im = product_submodule(ideal, module)

    n = ring.size
    # ring carrier: the pairs (a, a+i), as codes a*n + (a+i), sorted
    ring_codes = np.sort(
        (np.arange(n)[:, None] * n + ring.add.take(ideal.members, axis=1)).ravel()
    )
    rp, ring_index, ring_pairs = _pairs(ring_codes, n)
    bowtie_ring = TableRing(
        size=len(ring_pairs),
        add=_componentwise(ring.add, rp, rp, ring_index, n, "add"),
        mul=_componentwise(ring.mul, rp, rp, ring_index, n, "mul"),
        zero=int(ring_index[ring.zero * n + ring.zero]),
        one=int(ring_index[ring.one * n + ring.one]),
        labels=tuple(f"({ring.labels[a]},{ring.labels[b]})" for a, b in ring_pairs),
        name=f"sub(({ring.name}x{ring.name}))",
    )

    k = module.size
    if module.add is ring.add and module.act is ring.mul:
        module_pairs, module_index = ring_pairs, ring_index
        add, act = bowtie_ring.add, bowtie_ring.mul
    else:
        # module carrier: pairs (m, m') with m - m' in IM, in lexicographic order
        inside = np.zeros(k, dtype=bool)
        inside[list(im.members)] = True
        diff = module.add.take(module.neg, axis=1)  # diff[m, m'] = m - m'
        mp, module_index, module_pairs = _pairs(np.flatnonzero(inside.take(diff)), k)
        add = _componentwise(module.add, mp, mp, module_index, k, "add")
        act = _componentwise(module.act, rp, mp, module_index, k, "act")
    labels = (bowtie_ring.labels if module_pairs is ring_pairs and module.labels is ring.labels
              else tuple(f"({module.labels[m]},{module.labels[mp]})" for m, mp in module_pairs))
    bowtie_module = TableModule(
        ring=bowtie_ring,
        size=len(module_pairs),
        add=add,
        act=act,
        zero=int(module_index[module.zero * k + module.zero]),
        labels=labels,
        name=f"{module.name}><{ideal.label_set()}",
    )
    return BowtieInstance(
        base_ring=ring,
        ideal=ideal,
        base_module=module,
        im=im,
        bowtie_ring=bowtie_ring,
        bowtie_module=bowtie_module,
        ring_pairs=ring_pairs,
        module_pairs=module_pairs,
    )


def bowtie_submodule(inst: BowtieInstance, n: Submodule) -> Submodule:
    """N join I: the pairs whose first component lies in N."""
    if n.module is not inst.base_module:
        raise ValueError("submodule belongs to a different module")
    members = [
        idx for idx, (m, _mp) in enumerate(inst.module_pairs) if m in n.member_set
    ]
    return Submodule(inst.bowtie_module, members, _checked=True)


def zero_cross_i(inst: BowtieInstance) -> Ideal:
    """The ideal 0 x I of the duplicated ring."""
    zero = inst.base_ring.zero
    members = [
        idx for idx, (a, _b) in enumerate(inst.ring_pairs) if a == zero
    ]
    return Ideal(inst.bowtie_ring, members, _checked=True)


def distinguished_submodules(inst: BowtieInstance) -> tuple[Submodule, Submodule]:
    """The submodules 0 x IM and IM x IM, with the product identity checked.

    The ideal product (0 x I) * (M join I) must equal 0 x IM exactly.
    """
    mod = inst.bowtie_module
    zero = inst.base_module.zero
    zero_cross_im = Submodule(
        mod,
        [i for i, (m, mp) in enumerate(inst.module_pairs)
         if m == zero and mp in inst.im.member_set],
        _checked=True,
    )
    im_cross_im = Submodule(
        mod,
        [i for i, (m, mp) in enumerate(inst.module_pairs)
         if m in inst.im.member_set and mp in inst.im.member_set],
        _checked=True,
    )
    if _products_closure(mod, zero_cross_i(inst).members) != zero_cross_im.mask:
        raise AssertionError("(0 x I)(M join I) differs from 0 x IM")
    return zero_cross_im, im_cross_im


def restrict_scalars(
    inst: BowtieInstance, which: str = "first", base: TableModule | None = None
) -> TableModule:
    """Turn a base-ring module into one over the duplicated ring.

    The pair (a, a+i) acts through its first or second component. Defaults
    to the base module of the instance.
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    m0 = inst.base_module if base is None else base
    if m0.ring is not inst.base_ring:
        raise ValueError("module is over a different base ring")
    comp = 0 if which == "first" else 1
    # every row of the base appears among the gathered ones, so they keep
    # the dtype table_array would choose
    act = m0.act.take([pair[comp] for pair in inst.ring_pairs], axis=0)
    act.setflags(write=False)
    return TableModule(
        ring=inst.bowtie_ring,
        size=m0.size,
        add=m0.add,
        act=act,
        zero=m0.zero,
        labels=m0.labels,
        name=f"{m0.name}|{which}",
    )


def detect_bowtie_form(inst: BowtieInstance, s: Submodule) -> Submodule | None:
    """Recover N with (N join I) = S, when S has that shape.

    N is the set of first components of S, its image under the first
    projection and so a submodule of M; S has the shape when rebuilding
    from N reproduces it exactly.
    """
    if s.module is not inst.bowtie_module:
        raise ValueError("submodule belongs to a different module")
    firsts = {inst.module_pairs[idx][0] for idx in s.members}
    n = Submodule(inst.base_module, firsts, _checked=True)
    rebuilt = bowtie_submodule(inst, n)
    if rebuilt.members == s.members:
        return n
    return None
