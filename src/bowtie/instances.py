"""Instance descriptions: JSON documents naming a quadruple (A, I, M, N).

The document shape:

    {
      "ring":                 {"zn": 6}
                            | {"product": [<ring>, <ring>]}
                            | {"tables": {"add": [[...]], "mul": [[...]],
                                          "labels": ["0", ...]?}},
      "ideal_generators":     ["3"],
      "module":               "regular"
                            | {"tables": {"add": [[...]], "act": [[...]],
                                          "labels": [...]?}},
      "submodule_generators": ["0"]           # optional; omitted => {0}
    }

Element references are labels: decimal strings for Z_n, bracketed pairs
like "(1,4)" for products. Parsing either yields a valid quadruple or
raises SpecError naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Any, NamedTuple

from .rings import Ideal, TableRing, direct_product, ideal_generated, make_zn, validate_ring
from .modules import (
    Submodule,
    TableModule,
    ring_as_module,
    submodule_generated,
    validate_module,
)


class SpecError(ValueError):
    """An instance document that does not describe a valid quadruple."""


class Quadruple(NamedTuple):
    ring: TableRing
    ideal: Ideal
    module: TableModule
    submodule: Submodule


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise SpecError(f"{where}: {msg}")


def _as_matrix(obj: Any, where: str) -> list[list[int]]:
    _require(isinstance(obj, list) and obj, where, "expected a nonempty matrix")
    # the types of the rows, then of every entry, each in one pass in C; a
    # bool, whose type is not int, fails as a float does
    if set(map(type, obj)) == {list} and set(map(type, chain.from_iterable(obj))) <= {int}:
        return obj
    for r, row in enumerate(obj):  # name the first offending row or entry
        _require(isinstance(row, list), f"{where}[{r}]", "expected a list")
        if not all(type(v) is int for v in row):
            c = next(c for c, v in enumerate(row) if type(v) is not int)
            raise SpecError(f"{where}[{r}][{c}]: expected an integer")
    return obj


def _table_labels(body: dict, k: int, where: str) -> tuple[str, ...]:
    labels = body.get("labels", [str(i) for i in range(k)])
    _require(isinstance(labels, list) and len(labels) == k
             and all(map(isinstance, labels, repeat(str))),
             f"{where}.labels", f"expected {k} strings")
    _require(len(set(labels)) == k, f"{where}.labels", "labels must be distinct")
    # element references are read with their spaces removed; str.split drops
    # exactly the characters str.isspace names
    joined = "".join(labels)
    if "".join(joined.split()) != joined:
        spaced = next(s for s in labels if any(c.isspace() for c in s))
        raise SpecError(f"{where}.labels: label {spaced!r} contains whitespace")
    _require(isinstance(body.get("name", ""), str), f"{where}.name", "expected a string")
    return tuple(labels)


def _carrier_index(value: Any, k: int, where: str) -> int:
    _require(type(value) is int and 0 <= value < k, where, "expected a carrier index")
    return value


# deepest nesting of "product" a ring description may use
MAX_PRODUCT_DEPTH = 32


def _ring_size(desc: Any, where: str = "ring", depth: int = 0) -> int:
    """|A| as a ring description states it. Checks the shape of every factor,
    right ones too, before any table is built."""
    _require(depth <= MAX_PRODUCT_DEPTH, where,
             f"products nest deeper than {MAX_PRODUCT_DEPTH} levels")
    _require(isinstance(desc, dict) and len(desc) == 1, where,
             'expected exactly one of {"zn": n}, {"product": [..]}, {"tables": {..}}')
    kind, body = next(iter(desc.items()))
    if kind == "zn":
        _require(isinstance(body, int) and not isinstance(body, bool) and body >= 1,
                 f"{where}.zn", "expected a positive integer")
        return body
    if kind == "product":
        _require(isinstance(body, list) and len(body) == 2, f"{where}.product",
                 "expected a two-element list of ring descriptions")
        return (_ring_size(body[0], f"{where}.product[0]", depth + 1)
                * _ring_size(body[1], f"{where}.product[1]", depth + 1))
    if kind == "tables":
        _require(isinstance(body, dict), f"{where}.tables", "expected an object")
        _require("add" in body and "mul" in body, f"{where}.tables",
                 'expected "add" and "mul" matrices')
        _require(isinstance(body["add"], list) and body["add"], f"{where}.tables.add",
                 "expected a nonempty matrix")
        return len(body["add"])
    raise SpecError(f'{where}: unknown ring kind {kind!r}')


def declared_ring_size(desc: Any) -> int | None:
    """|A| as a ring description states it, before any table is built;
    None when the description is malformed (building it says why)."""
    try:
        return _ring_size(desc)
    except SpecError:
        return None


def declared_module_size(desc: Any) -> int | None:
    """|M| as a module table states it, before the table is read; None for
    the regular module (whose size is |A|) or a malformed description."""
    body = desc.get("tables") if isinstance(desc, dict) else None
    add = body.get("add") if isinstance(body, dict) else None
    return len(add) if isinstance(add, list) else None


def _build_ring(desc: Any, where: str = "ring") -> TableRing:
    _ring_size(desc, where)
    return _ring_from(desc, where)


def _ring_from(desc: Any, where: str) -> TableRing:
    """The ring of a description whose shape _ring_size has checked."""
    kind, body = next(iter(desc.items()))
    if kind == "zn":
        return make_zn(body)
    if kind == "product":
        left = _ring_from(body[0], f"{where}.product[0]")
        right = _ring_from(body[1], f"{where}.product[1]")
        return direct_product(left, right)
    add = _as_matrix(body["add"], f"{where}.tables.add")
    mul = _as_matrix(body["mul"], f"{where}.tables.mul")
    k = len(add)
    _require(all(len(r) == k for r in add) and len(mul) == k
             and all(len(r) == k for r in mul),
             f"{where}.tables", "add and mul must be square of the same size")
    labels = _table_labels(body, k, f"{where}.tables")
    zero = _carrier_index(body.get("zero", 0), k, f"{where}.tables.zero")
    one = body.get("one")
    if one is None:
        # the unique u with u*x == x for all x; rings require one
        one = next((u for u in range(k) if mul[u] == list(range(k))), None)
        _require(one is not None, f"{where}.tables",
                 "no multiplicative identity row found; supply \"one\"")
    one = _carrier_index(one, k, f"{where}.tables.one")
    try:
        # the lists are read into arrays once, here; an entry too large for
        # int32 is an OverflowError
        ring = TableRing(size=k, add=add, mul=mul, zero=zero, one=one,
                         labels=labels, name=body.get("name", "ring"))
        validate_ring(ring, limit=k)  # a user table is checked at any size
    except (ValueError, OverflowError) as exc:
        raise SpecError(f"{where}.tables: {exc}") from exc
    return ring


def _resolve_labels(labels: Any, universe: tuple[str, ...], where: str) -> tuple[int, ...]:
    _require(isinstance(labels, list), where, "expected a list of element labels")
    index = {lab: i for i, lab in enumerate(universe)}
    out = []
    for pos, lab in enumerate(labels):
        _require(isinstance(lab, str), f"{where}[{pos}]", "expected a string label")
        token = lab.replace(" ", "")
        _require(token in index, f"{where}[{pos}]",
                 f"unknown element {lab!r}; valid labels look like {universe[0]!r}")
        out.append(index[token])
    return tuple(out)


def _build_module(desc: Any, ring: TableRing, where: str = "module") -> TableModule:
    if desc == "regular":
        return ring_as_module(ring)
    _require(isinstance(desc, dict) and list(desc.keys()) == ["tables"], where,
             'expected "regular" or {"tables": {..}}')
    body = desc["tables"]
    _require(isinstance(body, dict) and "add" in body and "act" in body,
             f"{where}.tables", 'expected "add" and "act" matrices')
    add = _as_matrix(body["add"], f"{where}.tables.add")
    act = _as_matrix(body["act"], f"{where}.tables.act")
    k = len(add)
    _require(all(len(r) == k for r in add), f"{where}.tables.add", "must be square")
    _require(len(act) == ring.size and all(len(r) == k for r in act),
             f"{where}.tables.act", f"must be {ring.size} rows of length {k}")
    labels = _table_labels(body, k, f"{where}.tables")
    zero = _carrier_index(body.get("zero", 0), k, f"{where}.tables.zero")
    try:
        module = TableModule(ring=ring, size=k, add=add, act=act, zero=zero,
                             labels=labels, name=body.get("name", "module"))
        validate_module(module, limit=max(k, ring.size))
    except (ValueError, OverflowError) as exc:
        raise SpecError(f"{where}.tables: {exc}") from exc
    return module


@dataclass(frozen=True)
class InstanceSpec:
    """A parsed instance document in canonical form."""

    ring_desc: Any
    ideal_generators: tuple[str, ...]
    module_desc: Any
    submodule_generators: tuple[str, ...] | None = None
    name: str = ""

    @staticmethod
    def from_dict(data: Any, name: str = "") -> "InstanceSpec":
        _require(isinstance(data, dict), "instance", "expected a JSON object")
        unknown = set(data) - {"ring", "ideal_generators", "module",
                               "submodule_generators", "name"}
        _require(not unknown, "instance", f"unknown fields {sorted(unknown)}")
        _require("ring" in data, "instance", 'missing field "ring"')
        _require("ideal_generators" in data, "instance",
                 'missing field "ideal_generators"')
        _require("module" in data, "instance", 'missing field "module"')
        _require(isinstance(data.get("name", ""), str), "name", "expected a string")
        gens = data["ideal_generators"]
        _require(isinstance(gens, list) and all(isinstance(g, str) for g in gens),
                 "ideal_generators", "expected a list of element labels")
        sub = data.get("submodule_generators")
        if sub is not None:
            _require(isinstance(sub, list) and all(isinstance(g, str) for g in sub),
                     "submodule_generators", "expected a list of element labels")
            sub = tuple(sub)
        # the name is the first column of a report row, so it may not split one
        name = data.get("name", name) or name
        _require(not set(name) & set("\t\r\n"), "name" if data.get("name") else "file name",
                 f"{name!r} holds a tab or a line break")
        return InstanceSpec(
            ring_desc=data["ring"],
            ideal_generators=tuple(gens),
            module_desc=data["module"],
            submodule_generators=sub,
            name=name,
        )

    @staticmethod
    def from_path(path: str | Path) -> "InstanceSpec":
        p = Path(path)
        try:
            data = json.loads(p.read_bytes().decode("utf-8-sig"))
        except OSError as exc:
            raise SpecError(f"cannot read {p}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"{p}: not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SpecError(f"{p}: JSON nested too deeply to parse") from exc
        return InstanceSpec.from_dict(data, name=p.stem)

    def build(self) -> Quadruple:
        ring = _build_ring(self.ring_desc)
        gens = _resolve_labels(list(self.ideal_generators), ring.labels,
                               "ideal_generators")
        ideal = ideal_generated(ring, gens)
        module = _build_module(self.module_desc, ring)
        if self.submodule_generators is None:
            sub = submodule_generated(module, ())
        else:
            mgens = _resolve_labels(list(self.submodule_generators), module.labels,
                                    "submodule_generators")
            sub = submodule_generated(module, mgens)
        return Quadruple(ring, ideal, module, sub)


# Built-in instances: the running Z_6 example and the three finite stand-ins
# for the integer examples (kZ and I = jZ realized inside Z_n with n = lcm
# scaled so that the containment I*M <= N_relevant survives).
SEEDS: dict[str, dict] = {
    "z6-weakly-prime": {
        "ring": {"zn": 6},
        "ideal_generators": ["3"],
        "module": "regular",
        "submodule_generators": [],
        "name": "z6-weakly-prime",
    },
    "z6-remark": {
        "ring": {"zn": 6},
        "ideal_generators": ["3"],
        "module": "regular",
        "submodule_generators": [],
        "name": "z6-remark",
    },
    "z12-prime": {
        "ring": {"zn": 12},
        "ideal_generators": ["4"],
        "module": "regular",
        "submodule_generators": ["3"],
        "name": "z12-prime",
    },
    "z20-primary": {
        "ring": {"zn": 20},
        "ideal_generators": ["4"],
        "module": "regular",
        "submodule_generators": ["5"],
        "name": "z20-primary",
    },
    "z16-primary-not-prime": {
        "ring": {"zn": 16},
        "ideal_generators": ["4"],
        "module": "regular",
        "submodule_generators": ["8"],
        "name": "z16-primary-not-prime",
    },
}


def seed_spec(name: str) -> InstanceSpec:
    if name not in SEEDS:
        known = ", ".join(sorted(SEEDS))
        raise SpecError(f"unknown seed {name!r}; built-ins: {known}")
    return InstanceSpec.from_dict(SEEDS[name])
