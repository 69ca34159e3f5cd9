"""Decision procedures with witnesses for prime-like conditions.

Three notions travel under the name "weakly prime" in the literature, so
each gets its own predicate:

  af        proper N with: 0 != a*x in N implies x in N or a*M inside N
            (Atani and Farzalipour's definition)
  azizi     proper N with: a*b*T inside N implies a*T inside N or
            b*T inside N, for all scalars a, b and all submodules T
            (Azizi's definition; T ranges over every submodule,
            including M and the zero submodule)
  behboodi  N is weakly prime when M/N is a weakly prime module, where a
            module is weakly prime when the annihilator of every nonzero
            submodule is a prime ideal (Behboodi and Koohy's definition)

Over a finite commutative ring azizi and behboodi are both equivalent to
prime, so only af genuinely differs. Azizi asks that (N : T) be prime for
every submodule T not inside N, Behboodi the same for every T strictly
containing N, and (N : T) = (N : T+N) makes the two one condition. Every
prime of a finite ring is maximal, so P = (N : M) is maximal and each
(N : x) with x outside N, a prime containing P, equals P: N is prime.
Behboodi is still evaluated by its own definition, so the checkers that
compare it with prime stay independent checks. It does not build M/N:
the submodules of M/N are the K/N for the K containing N in the lattice
of M, Ann(K/N) = (N : K) is read off N's classes, and the K are visited
in the order M/N's own enumeration lists them, by size and then by the
least coset representatives in K, so its witnesses are the quotient's.

All scans read the preimage masks pre[a] = {x : a*x in N} of their input
by scalar class (``Submodule.classes``, ``Ideal.classes``) and take the
lowest scalar and lowest set bit, so a returned witness is always the
lexicographically first violation. The prime test of an ideal reads the
principal ideals instead (is_prime_ideal), and returns the same witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .rings import (
    Ideal, TableRing, bits, ideal_of, inside, lex_key, lowest_bit, mask_of, memo, principal_masks,
    radical,
)
from .modules import Submodule, TableModule, colon_mask, cosets

VARIANTS = ("af", "azizi", "behboodi")


class ImproperError(ValueError):
    """Raised when a predicate requiring a proper input gets the whole thing."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a predicate: truth value plus a minimal counterexample.

    ``witness`` is a structured tuple of carrier indices (shape depends on
    the predicate); ``witness_text`` renders it with element labels. A
    witness is present exactly when the verdict is negative.
    """

    holds: bool
    witness: tuple[Any, ...] | None = None
    witness_text: str = ""

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise ValueError("a positive verdict cannot carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a negative verdict needs a witness")


def _require_proper(s: Ideal | Submodule) -> None:
    if not s.is_proper:
        raise ImproperError(f"predicate requires a proper {type(s).__name__.lower()}")


def _first_violation(
    classes: tuple[tuple[int, int], ...],
    exempt: int,
    outside: int,
    zero_pre: tuple[int, ...] | None = None,
) -> tuple[int, int] | None:
    """The lowest (a, x) with a not in ``exempt`` and x in pre[a] & outside.

    Each class whose row meets ``outside`` offers its lowest non-exempt
    scalar; with ``zero_pre`` (the preimage of zero) a*x must also be
    nonzero, and its scalars are tried upwards until one has such an x.
    """
    best = None
    for p, scalars in classes:
        if best is not None and lowest_bit(scalars) > best[0]:
            break  # the classes come by least scalar
        bad, live = p & outside, scalars & ~exempt
        while bad and live and (best is None or lowest_bit(live) < best[0]):
            a = lowest_bit(live)
            hit = bad if zero_pre is None else bad & ~zero_pre[a]
            if hit:
                best = a, lowest_bit(hit)
            live &= live - 1
    return best


# ---------------------------------------------------------------- ideals


def _ideal_verdict(j: Ideal, hit: tuple[int, int] | None, suffix: str = "") -> Verdict:
    if hit is None:
        return Verdict(holds=True)
    r = j.ring
    a, b = hit
    ab = r.labels[int(r.mul[a, b])]
    return Verdict(holds=False, witness=(a, b),
                   witness_text=f"a={r.labels[a]} b={r.labels[b]} ab={ab}{suffix}")


def is_prime_ideal(j: Ideal) -> Verdict:
    """ab in J implies a in J or b in J.

    Read off units: in the finite ring A/J an element is a zero divisor
    exactly when it is not a unit, and a outside J is a unit of A/J when
    its principal ideal aA meets the coset 1 + J. So the a outside J are
    scanned upwards against rings.principal_masks, and the first whose aA
    misses 1 + J is the least a of a violation; its least b outside J with
    ab in J comes from row a of ``mul``. No scalar classes are packed.
    """
    _require_proper(j)
    ring = j.ring
    one_coset = mask_of(ring.add[ring.one].take(j.members).tolist())
    principal = principal_masks(ring)
    outside = ~j.mask & ((1 << ring.size) - 1)
    while outside:
        a = lowest_bit(outside)
        if not principal[a] & one_coset:
            member = inside(j.mask, ring.size)
            b = int((member.take(ring.mul[a]) & ~member).argmax())
            return _ideal_verdict(j, (a, b))
        outside &= outside - 1
    return Verdict(holds=True)


def ideal_is_prime(ring: TableRing, mask: int) -> Verdict:
    """is_prime_ideal of the ring's ideal with this mask, computed once per
    distinct ideal; a hit builds no Ideal."""
    return memo(ring, "prime_verdicts", mask, _prime_verdict, ring, mask)


def _prime_verdict(ring: TableRing, mask: int) -> Verdict:
    return is_prime_ideal(ideal_of(ring, mask))


def is_weakly_prime_ideal(j: Ideal) -> Verdict:
    """0 != ab in J implies a in J or b in J."""
    _require_proper(j)
    hit = _first_violation(j.classes, j.mask, ~j.mask, j.ring.zero_pre)
    return _ideal_verdict(j, hit)


def is_primary_ideal(j: Ideal) -> Verdict:
    """ab in J implies a in J or some power of b lands in J."""
    _require_proper(j)
    hit = _first_violation(j.classes, j.mask, ~radical(j).mask)
    return _ideal_verdict(j, hit, f" and no power of b enters {j.label_set()}")


# ------------------------------------------------------------- submodules


def whole_colon(n: Submodule) -> int:
    """(N : M) as a mask: the scalars whose preimage is everything."""
    return colon_mask(n.classes, (1 << n.module.size) - 1)


def _submodule_verdict(n: Submodule, hit: tuple[int, int] | None, suffix: str = "") -> Verdict:
    if hit is None:
        return Verdict(holds=True)
    mod = n.module
    a, x = hit
    ax = mod.labels[int(mod.act[a, x])]
    return Verdict(holds=False, witness=(a, x),
                   witness_text=f"a={mod.ring.labels[a]} x={mod.labels[x]} ax={ax}{suffix}")


def is_prime_submodule(n: Submodule) -> Verdict:
    """a*x in N implies x in N or a in (N : M)."""
    _require_proper(n)
    return _submodule_verdict(n, _first_violation(n.classes, whole_colon(n), ~n.mask))


def is_weakly_prime_submodule_af(n: Submodule) -> Verdict:
    """0 != a*x in N implies x in N or a in (N : M)."""
    _require_proper(n)
    hit = _first_violation(n.classes, whole_colon(n), ~n.mask, n.module.zero_pre)
    return _submodule_verdict(n, hit)


def is_primary_submodule(n: Submodule) -> Verdict:
    """a*x in N implies x in N or a in radical((N : M))."""
    _require_proper(n)
    colon = ideal_of(n.module.ring, whole_colon(n))
    hit = _first_violation(n.classes, radical(colon).mask, ~n.mask)
    return _submodule_verdict(n, hit, suffix=" and no power of a multiplies M into N")


def is_weakly_prime_submodule_azizi(n: Submodule, submodules: list[Submodule]) -> Verdict:
    """a*b*T in N implies a*T in N or b*T in N, over every submodule T.

    T ranges over the module's lattice ``submodules`` in enumeration order.
    For one T the condition says that (N : T) is prime or the whole ring,
    so each distinct proper colon is tested once; the witness (a, b, t) is
    the lexicographically first violation, t the first T whose colon (a, b)
    violates.
    """
    _require_proper(n)
    ring = n.module.ring
    classes = n.classes
    colons = [colon_mask(classes, t.mask) for t in submodules]
    whole = (1 << ring.size) - 1
    hits = []
    for c in dict.fromkeys(colons):
        if c != whole:
            v = ideal_is_prime(ring, c)
            if not v.holds:
                hits.append(v.witness)
    if not hits:
        return Verdict(holds=True)
    a, b = min(hits)
    ab = int(ring.mul[a, b])
    t = next(t for t, c in enumerate(colons) if c >> ab & 1 and not (c >> a | c >> b) & 1)
    return Verdict(
        holds=False,
        witness=(a, b, t),
        witness_text=f"a={ring.labels[a]} b={ring.labels[b]} T={submodules[t].label_set()}",
    )


def _first_non_prime_annihilator(
    ring: TableRing,
    anns: Iterable[tuple[int, int]],
    label: Callable[[int], str],
    prefix: str = "",
) -> Verdict:
    """The first (s_index, annihilator mask) whose ideal is not prime.

    Each distinct mask is tested for primality once, through the ring's
    ideal memo; ``label(s_index)`` renders the submodule S of a failure,
    and ``prefix`` leads its text.
    """
    for s_index, mask in anns:
        # S is nonzero, so its annihilator is proper and the test is legal
        sub_verdict = ideal_is_prime(ring, mask)
        if sub_verdict.holds:
            continue
        a, b = sub_verdict.witness
        return Verdict(
            holds=False,
            witness=(s_index, a, b),
            witness_text=(
                f"{prefix}S={label(s_index)} has non-prime annihilator"
                f" {ring.label_set(bits(mask))}: {sub_verdict.witness_text}"
            ),
        )
    return Verdict(holds=True)


def is_weakly_prime_module(module: TableModule, submodules: list[Submodule]) -> Verdict:
    """Every nonzero submodule, of the module's lattice ``submodules``, has
    a prime annihilator."""
    if module.size == 1:
        raise ImproperError("the zero module has no nonzero submodules")
    zero = module.zero_classes
    anns = ((i, colon_mask(zero, s.mask)) for i, s in enumerate(submodules) if not s.is_zero)
    return _first_non_prime_annihilator(module.ring, anns, lambda i: submodules[i].label_set())


def is_weakly_prime_submodule_behboodi(n: Submodule, submodules: list[Submodule]) -> Verdict:
    """N is weakly prime when M/N is a weakly prime module.

    M/N is never built: its submodules are the K/N for the K containing N
    in the lattice of M, with Ann(K/N) = (N : K). They are visited in the
    order M/N's own enumeration lists them, by (|K|, the least coset
    representatives in K), so s_index counts N itself as 0 and S prints
    as the classes [rep] of those representatives. ``submodules`` is the
    lattice of M.
    """
    _require_proper(n)
    mod = n.module
    reps = mask_of(cosets(n)[1].tolist())  # the least member of each coset
    nm = n.mask
    width = (mod.size + 7) // 8
    above = sorted(
        (k.mask for k in submodules if k.mask & nm == nm),
        key=lambda k: (k.bit_count(), lex_key(k & reps, width)),
    )
    anns = ((i, colon_mask(n.classes, k)) for i, k in enumerate(above) if i)

    def label(i: int) -> str:
        return "{" + ",".join(f"[{mod.labels[r]}]" for r in bits(above[i] & reps)) + "}"

    return _first_non_prime_annihilator(mod.ring, anns, label, prefix="in M/N: ")


def is_irreducible_submodule(n: Submodule, submodules: list[Submodule]) -> Verdict:
    """No two strictly larger submodules, of the module's lattice
    ``submodules``, intersect exactly in N."""
    _require_proper(n)
    nm = n.mask
    candidates = [
        (i, s) for i, s in enumerate(submodules) if s.mask != nm and s.mask & nm == nm
    ]
    for pos_k, (i, k) in enumerate(candidates):
        for j, l in candidates[pos_k + 1:]:
            if k.mask & l.mask == nm:
                return Verdict(
                    holds=False,
                    witness=(i, j),
                    witness_text=f"K={k.label_set()} L={l.label_set()}",
                )
    return Verdict(holds=True)


def weakly_prime_submodule(
    n: Submodule, variant: str, submodules: list[Submodule] | None = None
) -> Verdict:
    """Dispatch on the definitional variant tag; ``submodules``, the
    module's lattice, may be None for af, which reads none."""
    if variant == "af":
        return is_weakly_prime_submodule_af(n)
    if variant == "azizi":
        return is_weakly_prime_submodule_azizi(n, submodules)
    if variant == "behboodi":
        return is_weakly_prime_submodule_behboodi(n, submodules)
    raise ValueError(f"unknown weakly-prime variant: {variant!r}")


def classify_ideal(j: Ideal) -> dict[str, Verdict]:
    """All ideal predicates at once."""
    return {
        "prime": is_prime_ideal(j),
        "weakly_prime": is_weakly_prime_ideal(j),
        "primary": is_primary_ideal(j),
    }


def classify_submodule(n: Submodule, submodules: list[Submodule]) -> dict[str, Verdict]:
    """All submodule predicates at once, over the module's lattice ``submodules``."""
    return {
        "prime": is_prime_submodule(n),
        "weakly_prime_af": is_weakly_prime_submodule_af(n),
        "weakly_prime_azizi": is_weakly_prime_submodule_azizi(n, submodules),
        "weakly_prime_behboodi": is_weakly_prime_submodule_behboodi(n, submodules),
        "primary": is_primary_submodule(n),
        "irreducible": is_irreducible_submodule(n, submodules),
    }
