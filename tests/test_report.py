"""Report serialization: canonical JSON, CSV cells, atomic writes, and the
immutable record base."""

import hashlib
import json
from fractions import Fraction

import pytest

import minsurf4.cli
from minsurf4.report import (
    SCHEMA_VERSION,
    Immutable,
    Record,
    build_report,
    canonical_json,
    config_hash,
    jsonable,
    rows_to_csv,
    write_text_atomic,
)
from minsurf4.scalars import GaussianRational
from minsurf4.sphere import INFINITY, SpherePoint


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert canonical_json({"a": 1, "b": [2, 3]}) != text
    # key insertion order never matters
    assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_canonical_json_refuses_non_finite_floats(value):
    # Infinity and NaN are not JSON; an artifact must stay parsable everywhere
    with pytest.raises(ValueError):
        canonical_json({"lambda2": value})


def test_config_hash_matches_sha256():
    text = '{"seed": 0}'
    assert config_hash(text) == hashlib.sha256(text.encode()).hexdigest()


def test_build_report_shape():
    rep = build_report(
        "verify-main",
        {"p": 4},
        {"holds": True},
        cfg_hash=config_hash("{}"),
        tolerances={"loop": 1e-8},
    )
    assert rep["schema_version"] == SCHEMA_VERSION
    assert set(rep) == {
        "schema_version",
        "command",
        "inputs",
        "results",
        "config_sha256",
        "tolerances",
    }
    # no timestamps or environment keys anywhere
    flat = json.dumps(rep)
    for word in ("time", "date", "host", "platform"):
        assert word not in flat


def test_rows_to_csv_cells():
    rows = [
        {"name": "a", "value": 0.1, "flag": True, "parts": [1, 2.5], "gap": None},
        {"name": "b", "value": 2.0, "flag": False, "parts": (), "gap": "x"},
    ]
    text = rows_to_csv(rows, ["name", "value", "flag", "parts", "gap"])
    lines = text.split("\n")
    assert lines[0] == "name,value,flag,parts,gap"
    assert lines[1] == "a,0.10000000000000001,true,1;2.5,"
    assert lines[2] == "b,2,false,,x"
    assert text.endswith("\n")


def test_rows_to_csv_missing_keys_are_blank():
    text = rows_to_csv([{"a": 1}], ["a", "b"])
    assert text.split("\n")[1] == "1,"


def test_write_text_atomic(tmp_path):
    path = tmp_path / "out" / "report.json"
    digest = write_text_atomic(str(path), canonical_json({"k": 1}))
    assert path.read_text() == '{\n  "k": 1\n}\n'
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]
    write_text_atomic(str(path), "second\n")
    assert path.read_text() == "second\n"


def test_write_text_atomic_beside_a_stale_tmp_directory(tmp_path):
    # a fixed "<path>.tmp" name would collide with this directory
    path = tmp_path / "report.json"
    (tmp_path / "report.json.tmp").mkdir()
    digest = write_text_atomic(str(path), "text\n")
    assert path.read_text() == "text\n"
    assert digest == hashlib.sha256(b"text\n").hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.tmp"]


def test_write_text_atomic_removes_its_temp_file_on_failure(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    (target / "inside").write_text("x")
    with pytest.raises(OSError):
        write_text_atomic(str(target), "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (target / "inside").read_text() == "x"


def test_jsonable_coercions():
    class WithDict:
        def to_dict(self):
            return {"inner": GaussianRational(1, 2)}

    out = jsonable(
        {
            "scalar": GaussianRational("1/2"),
            "tuple": (1, 2.5, None),
            "nested": WithDict(),
            "text": "plain",
            "flag": False,
        }
    )
    assert out["scalar"] == "1/2"
    assert out["tuple"] == [1, 2.5, None]
    assert out["nested"] == {"inner": "1+2i"}
    assert out["flag"] is False
    json.dumps(out)  # round-trippable


def test_jsonable_numpy_scalars():
    import numpy as np

    out = jsonable({"x": np.float64(0.5), "n": np.int64(3)})
    assert out == {"x": 0.5, "n": 3}
    json.dumps(out)


class _Pair(Record):
    __slots__ = ("left", "right")


def test_record_binds_values_to_slots_in_order():
    pair = _Pair(1, "two")
    assert (pair.left, pair.right) == (1, "two")
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            _Pair(*values)


def test_record_to_dict_is_jsonable_per_field():
    pair = _Pair((SpherePoint(GaussianRational(0, 1)), INFINITY), {"lhs": Fraction(3, 2)})
    assert pair.to_dict() == {"left": ["1i", "inf"], "right": {"lhs": "3/2"}}
    assert jsonable([pair]) == [pair.to_dict()]


def _subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


# `minsurf4.cli` loads every module of the package, so every subclass is listed
IMMUTABLE_TYPES = sorted(
    (c for c in _subclasses(Immutable) if c.__module__.startswith("minsurf4.")),
    key=lambda c: (c.__module__, c.__name__),
)


def test_the_package_types_share_the_guard():
    names = {c.__name__ for c in IMMUTABLE_TYPES}
    assert {"Record", "GaussianRational", "Polynomial", "SpherePoint", "FalsifyRow", "RunConfig", "Mesh"} <= names


@pytest.mark.parametrize("cls", IMMUTABLE_TYPES, ids=lambda c: c.__name__)
def test_assignment_raises_naming_the_class(cls):
    obj = object.__new__(cls)
    for name in cls.__slots__ + ("unknown",):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(obj, name, 0)
