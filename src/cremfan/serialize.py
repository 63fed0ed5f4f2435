"""Matroid JSON format: save/load for the three primitive backends.

Schema (version 1)::

    {
      "schema": 1,
      "kind": "matroid",
      "name": "...",            # optional
      "description": "...",     # optional
      "elements": ["1", "2", ...],        # display labels, one per element
      "backend": "vectors" | "lines" | "circuits",
      "field": "Q" | "Fp:<p>" | "Qsqrt5", # vectors backend only
      "data": [...]
    }

For the vectors backend, ``data`` holds one array of field-element strings
per element ("3/2", "1+2w" with w = sqrt5); for lines and circuits it holds
arrays of 0-based element indices.  Loading is strict: unknown backends,
malformed entries, or out-of-range indices raise InputError.  A row of
integers over Q, what the generators write, is read by ``int()`` straight
into the kernels' integer row, with one gcd and no Fraction; the integer
parts of "a+bw" are read by ``int()`` too, and other rationals go through
``Fraction``'s parser.  Either way the backend's vectors, built on first
read, hold field elements, never bare ints.

Every document this package writes, matroid files and CLI reports, is
``dumps`` text: the text of ``json.dumps(doc, indent=2, sort_keys=True)``
and a newline.  ``json.dumps`` runs its pure-Python encoder whenever
``indent`` is set, so ``dumps`` encodes the tree itself: each string goes
through json's C ``encode_basestring_ascii``, and each list or object is
one ``join`` of its encoded items.  Loading uses ``json.loads``.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _quote

from .errors import InputError
from .field import Field, FieldFormatError
from .matroid import CircuitBackend, LineBackend, Matroid, VectorBackend

SCHEMA = 1


def matroid_to_dict(M: Matroid, *, name: str | None = None,
                    description: str | None = None) -> dict:
    """Serializable dictionary form of a matroid.

    Minor backends are materialized through their circuit list when small
    enough for that to be exact and affordable.
    """
    doc: dict = {"schema": SCHEMA, "kind": "matroid"}
    if name:
        doc["name"] = name
    if description:
        doc["description"] = description
    doc["elements"] = list(M.ground.labels)
    backend = M.backend
    if isinstance(backend, VectorBackend):
        doc["backend"] = "vectors"
        doc["field"] = backend.field.spec
        doc["data"] = [
            [backend.field.format(x) for x in vec] for vec in backend.vectors
        ]
    elif isinstance(backend, LineBackend):
        doc["backend"] = "lines"
        doc["data"] = [sorted(L) for L in backend.lines]
    elif isinstance(backend, CircuitBackend):
        doc["backend"] = "circuits"
        doc["data"] = sorted(
            (sorted(C) for C in backend.circuit_list), key=lambda c: (len(c), c)
        )
    else:
        # minors and other derived backends: fall back to the circuit list
        doc["backend"] = "circuits"
        doc["data"] = sorted(
            (sorted(C) for C in M.circuits()), key=lambda c: (len(c), c)
        )
    return doc


def matroid_from_dict(doc: dict) -> Matroid:
    if not isinstance(doc, dict):
        raise InputError("matroid document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("kind") != "matroid":
        raise InputError(f"unsupported kind {doc.get('kind')!r}")
    labels = doc.get("elements")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise InputError("elements must be a list of label strings")
    size = len(labels)
    backend_name = doc.get("backend")
    if backend_name == "vectors":
        try:
            field = Field.from_spec(_expect_str(doc, "field"))
        except FieldFormatError as exc:
            raise InputError(f"bad field spec: {exc}") from None
        raw = _expect_list(doc, "data")
        if len(raw) != size:
            raise InputError("vector count does not match element count")
        rational, vectors = field.kind == "Q", []
        for vec in raw:
            if not isinstance(vec, list) or not all(isinstance(x, str) for x in vec):
                raise InputError("each vector must be a list of entry strings")
            if rational:
                # int() takes a subset of Field.parse's strings, with the
                # same values
                try:
                    vectors.append([int(x) for x in vec])
                    continue
                except ValueError:
                    pass
            try:
                vectors.append([field.parse(x) for x in vec])
            except FieldFormatError as exc:
                raise InputError(f"bad vector entry: {exc}") from None
        backend = VectorBackend(field, vectors)
    elif backend_name == "lines":
        backend = LineBackend(size, _index_lists(doc, "data", size))
    elif backend_name == "circuits":
        backend = CircuitBackend(size, _index_lists(doc, "data", size))
    else:
        raise InputError(f"unknown backend {backend_name!r}")
    M = Matroid(backend, labels)
    if "name" in doc:
        M.name = doc["name"]
    return M


def save_matroid(M: Matroid, path: str | os.PathLike, *, name: str | None = None,
                 description: str | None = None) -> None:
    write_text(path, dumps(matroid_to_dict(M, name=name, description=description)))


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8 without truncating it to zero first
    (on ext4 a close after that waits tens of ms for the disk): only a longer
    old file's tail is cut, so /dev/null and FIFOs are never truncated."""
    data = text.encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            handle.write(data)
            if os.fstat(handle.fileno()).st_size > len(data):
                handle.truncate()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def load_matroid(path: str | os.PathLike) -> Matroid:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    return matroid_from_dict(doc)


def dumps(doc) -> str:
    """Canonical JSON text: sorted keys, stable separators, trailing newline.

    The text of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, and
    the same TypeError where that raises one; a document must be a tree,
    as no reference cycle is looked for.
    """
    return _encode(doc, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """One value as ``json.dumps(..., indent=2, sort_keys=True)`` writes it,
    with ``newline`` the line break and indent it starts after."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_quote(v) if type(v) is str else _encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(_key(k)) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


_INF = float("inf")


def _key(key) -> str:
    """An object key as json writes it, before quoting: a scalar key as
    that scalar's own text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _expect_str(doc: dict, key: str) -> str:
    v = doc.get(key)
    if not isinstance(v, str):
        raise InputError(f"field {key!r} must be a string")
    return v


def _expect_list(doc: dict, key: str) -> list:
    v = doc.get(key)
    if not isinstance(v, list):
        raise InputError(f"field {key!r} must be a list")
    return v


def _index_lists(doc: dict, key: str, size: int) -> list[list[int]]:
    out = []
    for row in _expect_list(doc, key):
        if not isinstance(row, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in row
        ):
            raise InputError(f"each entry of {key!r} must be a list of integers")
        if not all(0 <= x < size for x in row):
            raise InputError(f"{key!r} entry out of range: {row}")
        out.append(row)
    return out
