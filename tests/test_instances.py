import json

import numpy as np
import pytest

from bowtie import modules, rings
from bowtie.instances import (
    MAX_PRODUCT_DEPTH,
    SEEDS,
    InstanceSpec,
    SpecError,
    declared_ring_size,
    seed_spec,
)


def test_minimal_zn_spec():
    spec = InstanceSpec.from_dict({
        "ring": {"zn": 6},
        "ideal_generators": ["3"],
        "module": "regular",
    })
    ring, ideal, module, sub = spec.build()
    assert ring.size == 6
    assert ideal.members == (0, 3)
    assert module.size == 6
    assert sub.members == (0,)  # omitted generators mean the zero submodule


def test_submodule_generators():
    spec = InstanceSpec.from_dict({
        "ring": {"zn": 12},
        "ideal_generators": ["4"],
        "module": "regular",
        "submodule_generators": ["3"],
    })
    _, _, _, sub = spec.build()
    assert sub.members == (0, 3, 6, 9)


def test_round_trip_identical_quadruple(tmp_path):
    for name in SEEDS:
        spec = seed_spec(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SEEDS[name]))
        reparsed = InstanceSpec.from_path(path)
        q1 = spec.build()
        q2 = reparsed.build()
        assert np.array_equal(q1.ring.add, q2.ring.add) and np.array_equal(q1.ring.mul, q2.ring.mul)
        assert q1.ideal.members == q2.ideal.members
        assert (np.array_equal(q1.module.add, q2.module.add)
                and np.array_equal(q1.module.act, q2.module.act))
        assert q1.submodule.members == q2.submodule.members


def test_product_ring_spec():
    spec = InstanceSpec.from_dict({
        "ring": {"product": [{"zn": 2}, {"zn": 3}]},
        "ideal_generators": ["(1,0)"],
        "module": "regular",
    })
    ring, ideal, module, _ = spec.build()
    assert ring.size == 6
    assert ideal.label_set() == "{(0,0),(1,0)}"


def test_product_labels_tolerate_spaces():
    spec = InstanceSpec.from_dict({
        "ring": {"product": [{"zn": 2}, {"zn": 3}]},
        "ideal_generators": ["(1, 0)"],
        "module": "regular",
    })
    _, ideal, _, _ = spec.build()
    assert len(ideal) == 2


def test_explicit_tables_ring():
    z2 = {
        "add": [[0, 1], [1, 0]],
        "mul": [[0, 0], [0, 1]],
    }
    spec = InstanceSpec.from_dict({
        "ring": {"tables": z2},
        "ideal_generators": [],
        "module": "regular",
    })
    ring, ideal, _, _ = spec.build()
    assert ring.size == 2 and ring.one == 1
    assert ideal.members == (0,)


def test_explicit_tables_module():
    # Z_4 acting on Z_2 through reduction mod 2
    spec = InstanceSpec.from_dict({
        "ring": {"zn": 4},
        "ideal_generators": ["2"],
        "module": {"tables": {
            "add": [[0, 1], [1, 0]],
            "act": [[0, 0], [0, 1], [0, 0], [0, 1]],
        }},
    })
    _, _, module, _ = spec.build()
    assert module.size == 2
    assert module.act[3, 1] == 1


def test_located_errors():
    with pytest.raises(SpecError, match="ring.zn"):
        InstanceSpec.from_dict({
            "ring": {"zn": 0}, "ideal_generators": [], "module": "regular",
        }).build()
    with pytest.raises(SpecError, match=r"ideal_generators\[0\]"):
        InstanceSpec.from_dict({
            "ring": {"zn": 6}, "ideal_generators": ["7"], "module": "regular",
        }).build()
    with pytest.raises(SpecError, match="missing field"):
        InstanceSpec.from_dict({"ring": {"zn": 6}})
    with pytest.raises(SpecError, match="unknown fields"):
        InstanceSpec.from_dict({
            "ring": {"zn": 6}, "ideal_generators": [], "module": "regular",
            "extra": 1,
        })
    with pytest.raises(SpecError, match="not valid JSON"):
        InstanceSpec.from_path("/dev/null")


def test_documents_are_read_as_utf8(tmp_path):
    # a document is UTF-8: a byte order mark is skipped, and bytes that are
    # not UTF-8 (UTF-16 included) are a SpecError, not a UnicodeDecodeError
    doc = json.dumps({"ring": {"zn": 6}, "ideal_generators": ["3"], "module": "regular"})
    p = tmp_path / "doc.json"
    p.write_bytes(b"\xef\xbb\xbf" + doc.encode())
    assert InstanceSpec.from_path(p) == InstanceSpec.from_dict(json.loads(doc), name="doc")
    p.write_bytes(doc.encode().replace(b'"3"', b'"\xff"'))
    with pytest.raises(SpecError, match=r": not valid JSON: 'utf-8' codec can't decode byte 0xff"):
        InstanceSpec.from_path(p)
    for encoding in ("utf-16", "utf-16-le", "utf-32"):
        p.write_bytes(doc.encode(encoding))
        with pytest.raises(SpecError, match=": not valid JSON: "):
            InstanceSpec.from_path(p)


def test_invalid_tables_are_located():
    with pytest.raises(SpecError, match="ring.tables"):
        InstanceSpec.from_dict({
            "ring": {"tables": {
                "add": [[0, 1], [1, 1]],  # 1 lacks an inverse
                "mul": [[0, 0], [0, 1]],
            }},
            "ideal_generators": [],
            "module": "regular",
        }).build()


def test_tables_validated_above_the_default_limit(monkeypatch):
    # the library skips validation above DEFAULT_VALIDATION_LIMIT; user
    # tables are validated at any size all the same
    monkeypatch.setattr(rings, "DEFAULT_VALIDATION_LIMIT", 1)
    monkeypatch.setattr(modules, "DEFAULT_VALIDATION_LIMIT", 1)
    z4 = rings.make_zn(4)
    mul = z4.mul.tolist()
    mul[2][2] = 1  # 2*2 = 1 breaks distributivity, nothing entry by entry
    with pytest.raises(SpecError, match="ring.tables: mul does not distribute"):
        InstanceSpec.from_dict({
            "ring": {"tables": {"add": z4.add.tolist(), "mul": mul}},
            "ideal_generators": [],
            "module": "regular",
        }).build()
    with pytest.raises(SpecError, match="module.tables: action is not additive"):
        InstanceSpec.from_dict({
            "ring": {"zn": 4},
            "ideal_generators": ["2"],
            "module": {"tables": {
                "add": [[0, 1], [1, 0]],
                "act": [[0, 0], [0, 1], [0, 1], [0, 1]],  # 2*1 = 1 != 1 + 1
            }},
        }).build()


def _nested(depth: int) -> dict:
    ring = {"zn": 1}
    for _ in range(depth):
        ring = {"product": [ring, {"zn": 1}]}
    return {"ring": ring, "ideal_generators": [], "module": "regular"}


def test_product_nesting_is_bounded():
    quad = InstanceSpec.from_dict(_nested(MAX_PRODUCT_DEPTH)).build()
    assert quad.ring.size == 1
    for depth in (MAX_PRODUCT_DEPTH + 1, 3000):
        with pytest.raises(SpecError, match="products nest deeper than"):
            InstanceSpec.from_dict(_nested(depth)).build()
        assert declared_ring_size(_nested(depth)["ring"]) is None


def test_declared_ring_size():
    assert declared_ring_size({"product": [{"zn": 3}, {"zn": 4}]}) == 12
    assert declared_ring_size({"tables": {"add": [[0]], "mul": [[0]]}}) == 1
    for bad in ({"zn": 0}, {"zn": True}, {"zn": 2.0}, {"tables": {"add": [], "mul": []}},
                {"product": [{"zn": 1000000}, {"zn": 0}]}, {"zn": 2, "extra": 1}):
        assert declared_ring_size(bad) is None, bad


def test_duplicate_labels_rejected():
    z2 = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    with pytest.raises(SpecError, match=r"ring.tables.labels: labels must be distinct"):
        InstanceSpec.from_dict({
            "ring": {"tables": {**z2, "labels": ["a", "a"]}},
            "ideal_generators": [], "module": "regular",
        }).build()
    with pytest.raises(SpecError, match=r"module.tables.labels: labels must be distinct"):
        InstanceSpec.from_dict({
            "ring": {"zn": 2}, "ideal_generators": [],
            "module": {"tables": {"add": z2["add"], "act": [[0, 0], [0, 1]],
                                  "labels": ["x", "x"]}},
        }).build()


@pytest.mark.parametrize("label", ["o ne", " one", "one\t", "o\nne"])
def test_labels_with_whitespace_rejected(label):
    # a reference has its spaces removed before lookup, so such a label
    # could never be referenced; the table is refused when it is read
    z2 = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    with pytest.raises(SpecError, match=r"^ring.tables.labels: label .* contains whitespace$"):
        InstanceSpec.from_dict({
            "ring": {"tables": {**z2, "labels": ["zero", label]}},
            "ideal_generators": [label], "module": "regular",
        }).build()
    with pytest.raises(SpecError, match=r"^module.tables.labels: label .* contains whitespace$"):
        InstanceSpec.from_dict({
            "ring": {"zn": 2}, "ideal_generators": [],
            "module": {"tables": {"add": z2["add"], "act": [[0, 0], [0, 1]],
                                  "labels": ["zero", label]}},
        }).build()


_Z2 = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}


@pytest.mark.parametrize("table, error", [
    ({**_Z2, "add": [[0, True], [1, 0]]}, "ring.tables.add[0][1]: expected an integer"),
    ({**_Z2, "mul": [[0, 0], [0, 1.5]]}, "ring.tables.mul[1][1]: expected an integer"),
    ({**_Z2, "add": [[0, 1], 1]}, "ring.tables.add[1]: expected a list"),
    ({**_Z2, "mul": [[0, 0.0], "01"]}, "ring.tables.mul[0][1]: expected an integer"),
    ({**_Z2, "mul": [[0, 0], [0, 1], [None]]}, "ring.tables.mul[2][0]: expected an integer"),
    ({**_Z2, "labels": ["0", "1\u00a0"]},
     "ring.tables.labels: label '1\\xa0' contains whitespace"),
    ({**_Z2, "labels": ["a\u2003b", "c d"]},
     "ring.tables.labels: label 'a\\u2003b' contains whitespace"),
])
def test_malformed_ring_tables_name_the_first_offender(table, error):
    with pytest.raises(SpecError) as exc:
        InstanceSpec.from_dict({"ring": {"tables": table}, "ideal_generators": [],
                                "module": "regular"}).build()
    assert str(exc.value) == error


@pytest.mark.parametrize("table, error", [
    ({"add": [[0, 1], [1, False]]}, "module.tables.add[1][1]: expected an integer"),
    ({"act": [[0, 0], [0, 1.5]]}, "module.tables.act[1][1]: expected an integer"),
    ({"act": [[0, 0], {"1": 1}]}, "module.tables.act[1]: expected a list"),
    ({"labels": ["0", "\u00a0"]}, "module.tables.labels: label '\\xa0' contains whitespace"),
    ({"labels": ["\u2003", "1"]}, "module.tables.labels: label '\\u2003' contains whitespace"),
])
def test_malformed_module_tables_name_the_first_offender(table, error):
    z2 = {"add": _Z2["add"], "act": [[0, 0], [0, 1]]}
    with pytest.raises(SpecError) as exc:
        InstanceSpec.from_dict({"ring": {"zn": 2}, "ideal_generators": [],
                                "module": {"tables": {**z2, **table}}}).build()
    assert str(exc.value) == error


def test_table_entry_beyond_int32_rejected():
    with pytest.raises(SpecError, match=r"^ring.tables: .*out of bounds"):
        InstanceSpec.from_dict({
            "ring": {"tables": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 2**40]],
                                "one": 1}},
            "ideal_generators": [], "module": "regular",
        }).build()


@pytest.mark.parametrize("name", [True, 1, 2**40, ["a"], {"a": 1}, None])
def test_names_must_be_strings(name):
    # a name ends up in report keys and labels; a non-string one made verify
    # raise TypeError while it joined a report line
    z2 = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    with pytest.raises(SpecError, match=r"^name: expected a string$"):
        InstanceSpec.from_dict({"ring": {"zn": 2}, "ideal_generators": [],
                                "module": "regular", "name": name})
    with pytest.raises(SpecError, match=r"^ring.tables.name: expected a string$"):
        InstanceSpec.from_dict({"ring": {"tables": {**z2, "name": name}},
                                "ideal_generators": [], "module": "regular"}).build()
    with pytest.raises(SpecError, match=r"^module.tables.name: expected a string$"):
        InstanceSpec.from_dict({
            "ring": {"zn": 2}, "ideal_generators": [],
            "module": {"tables": {"add": z2["add"], "act": [[0, 0], [0, 1]], "name": name}},
        }).build()


@pytest.mark.parametrize("field", ["zero", "one"])
def test_bools_are_not_carrier_indices(field):
    # True == 1 passed the integer check, and numpy read table[True] as a
    # boolean mask, so the table was refused for a wrong reason
    z2 = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    with pytest.raises(SpecError, match=rf"^ring.tables.{field}: expected a carrier index$"):
        InstanceSpec.from_dict({"ring": {"tables": {**z2, field: True}},
                                "ideal_generators": [], "module": "regular"}).build()


def test_seed_corpus_contents():
    assert set(SEEDS) == {
        "z6-weakly-prime", "z6-remark", "z12-prime",
        "z20-primary", "z16-primary-not-prime",
    }
    with pytest.raises(SpecError, match="unknown seed"):
        seed_spec("nope")
    ring, ideal, _, sub = seed_spec("z16-primary-not-prime").build()
    assert ring.size == 16
    assert ideal.members == (0, 4, 8, 12)
    assert sub.members == (0, 8)
