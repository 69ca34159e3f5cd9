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

from .rings import ClosureError, Ideal, TableRing, _additive_closure, narrow_dtype
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
    """The submodule I*M: additive closure of the products i*m."""
    if ideal.ring is not module.ring:
        raise ValueError("ideal and module are over different rings")
    prods = {
        module.act[i][m] for i in ideal.members for m in range(module.size)
    }
    closed = _additive_closure(module.add, prods, module.zero)
    return Submodule(module, closed, _checked=True)


def predicted_sizes(ring: TableRing, ideal: Ideal, module: TableModule) -> tuple[int, int]:
    """(|A join I|, |M join I|) without building anything large."""
    im = product_submodule(ideal, module)
    return ring.size * len(ideal), module.size * len(im)


def _pair_lookup(pairs: tuple[tuple[int, int], ...], width: int) -> np.ndarray:
    """Pair index by code a*width + b; -1 for a pair outside the carrier."""
    lookup = np.full(width * width, -1, dtype=np.int64)
    lookup[[a * width + b for a, b in pairs]] = np.arange(len(pairs))
    return lookup


def _componentwise(
    op: tuple[tuple[int, ...], ...],
    rows: tuple[tuple[int, int], ...],
    cols: tuple[tuple[int, int], ...],
    lookup: np.ndarray,
    width: int,
    what: str,
) -> np.ndarray:
    """The table (r, r').(c, c') = (r op c, r' op c') through the pair index.

    A result outside the carrier raises ClosureError at the first such
    entry, with its two pairs as codes a*width + b. The table comes back
    read-only in table_array's dtype, so no int64 copy outlives the call.
    """
    t = np.asarray(op, dtype=np.int64)
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    # codes are built in place: they are a build's largest temporaries
    codes = t[r[:, :1], c[:, 0]]
    codes *= width
    codes += t[r[:, 1:], c[:, 1]]
    table = lookup[codes]
    if (table < 0).any():
        i, j = (int(v) for v in np.argwhere(table < 0)[0])
        (a, b), (x, y) = rows[i], cols[j]
        raise ClosureError(
            f"subset not closed under {what} at (({a},{b}),({x},{y}))",
            (a * width + b, x * width + y),
        )
    # the entries index the carrier of cols, and the row of zero (for add)
    # or of one (for mul and act) holds every one of them
    table = table.astype(narrow_dtype(0, len(cols) - 1))
    table.setflags(write=False)
    return table


def _tuples(table: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, table.tolist()))


def build_bowtie(ring: TableRing, ideal: Ideal, module: TableModule) -> BowtieInstance:
    """Construct the duplicated ring and module from their pairs.

    Both carriers are sorted pairs, the lexicographic order of A x A and
    M x M, and both are operated on componentwise. They are a ring and a
    module by theorem (D'Anna-Fontana; Bouba-Mahdou-Tamekkante), so
    nothing is re-validated; a pair set that is not closed raises
    ClosureError. The numpy tables that the checkers read (the module's
    addition and action, the ring's multiplication) are kept from the
    construction rather than rebuilt from the tuples.
    """
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    if module.ring is not ring:
        raise ValueError("module is over a different ring")
    im = product_submodule(ideal, module)

    n = ring.size
    ring_pairs = tuple(sorted({(a, ring.add[a][i]) for a in range(n) for i in ideal.members}))
    ring_index = _pair_lookup(ring_pairs, n)
    ring_add = _tuples(_componentwise(ring.add, ring_pairs, ring_pairs, ring_index, n, "add"))
    ring_mul = _componentwise(ring.mul, ring_pairs, ring_pairs, ring_index, n, "mul")
    bowtie_ring = TableRing(
        size=len(ring_pairs),
        add=ring_add,
        mul=_tuples(ring_mul),
        zero=int(ring_index[ring.zero * n + ring.zero]),
        one=int(ring_index[ring.one * n + ring.one]),
        labels=tuple(f"({ring.labels[a]},{ring.labels[b]})" for a, b in ring_pairs),
        name=f"sub(({ring.name}x{ring.name}))",
    )
    bowtie_ring.derived_cache["mul_array"] = ring_mul

    # module carrier: pairs (m, m') with m - m' in IM, in lexicographic order
    k = module.size
    inside = np.zeros(k, dtype=bool)
    inside[list(im.members)] = True
    diff = module.add_array[:, np.asarray(module.neg)]  # diff[m, m'] = m - m'
    firsts, seconds = np.nonzero(inside[diff])
    module_pairs = tuple(zip(firsts.tolist(), seconds.tolist()))
    module_index = _pair_lookup(module_pairs, k)
    add = _componentwise(module.add, module_pairs, module_pairs, module_index, k, "add")
    act = _componentwise(module.act, ring_pairs, module_pairs, module_index, k, "act")
    bowtie_module = TableModule(
        ring=bowtie_ring,
        size=len(module_pairs),
        add=_tuples(add),
        act=_tuples(act),
        zero=int(module_index[module.zero * k + module.zero]),
        labels=tuple(
            f"({module.labels[m]},{module.labels[mp]})" for (m, mp) in module_pairs
        ),
        name=f"{module.name}><{ideal.label_set()}",
    )
    bowtie_module.derived_cache["add_array"] = add
    bowtie_module.derived_cache["act_array"] = act
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
    ideal = zero_cross_i(inst)
    prods = {mod.act[j][p] for j in ideal.members for p in range(mod.size)}
    closed = _additive_closure(mod.add, prods, mod.zero)
    if closed != zero_cross_im.member_set:
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
    rows = [pair[comp] for pair in inst.ring_pairs]
    restricted = TableModule(
        ring=inst.bowtie_ring,
        size=m0.size,
        add=m0.add,
        act=tuple(m0.act[r] for r in rows),
        zero=m0.zero,
        labels=m0.labels,
        name=f"{m0.name}|{which}",
    )
    # every row of the base appears in rows, so the gathered copy has the
    # dtype table_array would choose
    act = m0.act_array[rows]
    act.setflags(write=False)
    restricted.derived_cache["add_array"] = m0.add_array
    restricted.derived_cache["act_array"] = act
    return restricted


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
