"""File formats: JSON documents for matrices, complexes and fields, and a
CSV form for positive-real matrices.

Matrix document  {"group": tag, "n": n, "variance": "covariant"|"contravariant",
                  "entries": row-major list with null for gaps}
Complex document {"vertices": V, "edges": [[i,j],...], "triangles": [[i,j,k],...], "base": 0}
Field document   {"group": tag, "values": {"i-j": element, ...}}

Elements serialize per group: plain numbers for rplus and zmod,
{"theta": t} for u1, {"q": [w,x,y,z]} for su2.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import GroupMismatchError, ParseError
from .groups import group_from_tag
from .pcmatrix import COVARIANT, PCMatrix
from .simplicial import EdgeField, SimplicialComplex2


def matrix_to_obj(A: PCMatrix) -> dict:
    G = A.group
    flat = [
        None if e is None else G.element_to_obj(e) for row in A.entries for e in row
    ]
    return {"group": G.tag, "n": A.n, "variance": A.variance, "entries": flat}


def matrix_from_obj(obj) -> PCMatrix:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    try:
        group = group_from_tag(obj["group"])
        n = int(obj["n"])
        variance = obj.get("variance", COVARIANT)
        flat = obj["entries"]
    except KeyError as exc:
        raise ParseError(f"matrix document missing key {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(flat, list) or len(flat) != n * n:
        raise ParseError(f"expected {n * n} entries, got {len(flat) if isinstance(flat, list) else type(flat).__name__}")
    try:
        grid = [
            [None if flat[i * n + j] is None else group.element_from_obj(flat[i * n + j]) for j in range(n)]
            for i in range(n)
        ]
        return PCMatrix(group, grid, variance)
    except (GroupMismatchError, ValueError) as exc:
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
            int(obj["vertices"]),
            obj.get("edges", []),
            obj.get("triangles", []),
            base=int(obj.get("base", 0)),
        )
    except KeyError as exc:
        raise ParseError(f"complex document missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad complex document: {exc}") from exc


def field_to_obj(F: EdgeField) -> dict:
    G = F.group
    return {
        "group": G.tag,
        "values": {f"{i}-{j}": G.element_to_obj(v) for (i, j), v in F.items()},
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
    values = {}
    for key, v in raw.items():
        try:
            i, j = (int(p) for p in str(key).split("-"))
        except ValueError:
            raise ParseError(f"bad edge key {key!r}; expected 'i-j'") from None
        try:
            values[(i, j)] = group.element_from_obj(v)
        except (GroupMismatchError, ValueError) as exc:
            raise ParseError(f"bad element on edge {key}: {exc}") from exc
    try:
        return EdgeField(group, values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


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
        path.write_text(json.dumps(matrix_to_obj(A), indent=2, sort_keys=True) + "\n")


def save_obj(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
