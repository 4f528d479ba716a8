"""Deterministic report artifacts: canonical JSON, CSV rows, atomic writes,
and the one record and serialization mechanism of the package.

Reports carry no timestamps or environment data; identical inputs give
byte-identical output. Every report embeds the sha256 of the config text it
was produced from and the tolerance set actually used.

`Immutable` is the only attribute guard: every value type of the package
inherits it. `Record` adds the only generic constructor and serializer:
positional values bound to `__slots__` in order, and `to_dict` mapping each
field name to `jsonable(value)`. A record overrides `to_dict` only where its
artifact's shape differs from its fields. The exact-algebra types normalise
their input on every arithmetic step, so they keep their own constructors
and inherit only the guard. Both classes are hand-written rather than
dataclasses, which would add their import and class-building cost to the
start of every command.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import uuid

SCHEMA_VERSION = 1


def canonical_json(obj):
    """Sorted-keys JSON with a trailing newline; the only JSON writer used
    for artifacts, so key order can never leak nondeterminism. A NaN or an
    infinity raises ValueError: the output is always valid JSON."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def config_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_report(command, inputs, results, *, cfg_hash, tolerances):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "config_sha256": cfg_hash,
        "tolerances": tolerances,
    }


def rows_to_csv(rows, fieldnames):
    """Rows of dicts to CSV text with a fixed header ordering."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})
    return buf.getvalue()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def write_text_atomic(path, text):
    """Write text as UTF-8 via a uniquely named temp file beside path, then
    rename: readers never see a partial artifact, and writers sharing a
    directory never share a temp file. The temp file is removed on failure.
    Returns the sha256 of the written bytes."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    data = text.encode("utf-8")
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


class Immutable:
    """Instances refuse attribute assignment after construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Immutable):
    """An immutable record whose fields are its class's `__slots__`."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def to_dict(self):
        return {name: jsonable(getattr(self, name)) for name in self.__slots__}


def jsonable(value):
    """Recursively coerce report values into JSON-stable primitives."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return jsonable(value.to_dict())
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return jsonable(value.item())
    return str(value)
