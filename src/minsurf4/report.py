"""Deterministic report artifacts: canonical JSON, CSV rows, atomic writes.

Reports carry no timestamps or environment data; identical inputs give
byte-identical output. Every report embeds the sha256 of the config text it
was produced from and the tolerance set actually used.
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
