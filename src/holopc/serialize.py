"""File formats: JSON documents for matrices, complexes and fields, and a
CSV form for positive-real matrices.

Matrix document  {"group": tag, "n": n, "variance": "covariant"|"contravariant",
                  "entries": row-major list with null for gaps}
Complex document {"vertices": V, "edges": [[i,j],...], "triangles": [[i,j,k],...], "base": 0}
Field document   {"group": tag, "values": {"i-j": element, ...}}

Elements serialize per group: plain numbers for rplus and zmod,
{"theta": t} for u1, {"q": [w,x,y,z]} for su2.

Reading a document checks its elements once, all together: the elements
are unwrapped in one comprehension (``Group.unwrap_objs``) and the whole
document goes through one ``Group.batch_check``, one array pass in every
group.  When either fails, a loop over the elements reports the bad one as
the one-at-a-time parse would: the first bad key or element in document
order.  A CSV matrix is read as one ``np.array(rows, dtype=float)``, which
converts each cell as Python's ``float`` does, and checked by one
``RPLUS.batch_check``; text with an ``_`` in it, or that this pass
refuses, is read cell by cell, so that each refusal names its line and
column.  An rplus n = 9 CSV matrix is read in 32-34 us instead of 70-78 us
cell by cell, and an n = 3 one in 11-15 us either way (median of 9
``timeit`` repeats, two runs, shared 2-vCPU host).
The sizes ``n``, ``vertices`` and ``base`` must be integers; bools and
fractional numbers are refused.

Every document and report is written by :func:`json_text`, whose output is
byte for byte that of ``json.dumps(obj, indent=2, sort_keys=True)``; ``json``
only reads.  The writer appends text pieces to one list, joined once; a
list whose items are all ``float`` or all ``int`` is one piece, a join of
the item texts.  A :class:`PCMatrix` is written as its document
:func:`matrix_to_obj` straight from its carriers: each entry through one element template (the text of
``Group.checked_to_obj`` with a slot per carrier scalar), each run of gaps
as a string of ``null`` items built once per run length, and, above
``_FORMAT_ONCE`` carrier scalars, each distinct magnitude formatted once.
A :class:`Records` list, such as the ``curvatures`` of a ``holonomy``
report, goes through one record template.  The su2 ``holonomy`` report of
``grid_complex(20)`` is written in under half the time a writer of one
string per container took (``BENCH_layers.json``).

A complex document becomes a :class:`SimplicialComplex2` on arrays, its
cells checked in one numpy pass (see :mod:`holopc.simplicial`).  A field
document's ``"i-j"`` keys are read in one pass over the joined keys, its
values in one ``batch_check``, and the field is stored as those two
arrays: reversed keys inverted with one ``batch_inverse``, a self-edge
refused, and so is an edge given twice, in either orientation or spelling
(``"0-1"``, ``"1-0"``, ``"00-1"``).  On the first seed-4242 ``lattice`` input
(``grid_complex(20)``, 1,240 edges and 800 triangles) reading the complex
takes 0.8 ms instead of 3.3-5.6 ms (median of 40 calls on a shared 2-vCPU
host).  Keys of ASCII digits, ``"i-j"`` with at most 18 digits a vertex,
are read by one numpy conversion (``np.fromstring``) after one regular
expression has matched them all; any other keys are read key by key by
``_edge_key``, which also takes ASCII digits only (Python's ``int`` alone
would read ``"+1"``, ``" 1"``, ``"1_0"`` and ``"١"``) and names a bad key.
One ``int`` call per vertex
took the keys of that input 0.83-0.86 ms, and the numpy pass takes
0.24 ms: the field is read in 1.13-1.16 ms instead of 1.72-1.77 ms
(median of 40 calls, three runs each, same host).
"""

from __future__ import annotations

import json
import math
import os
import re
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import GroupMismatchError, ParseError
from .groups import RPLUS, Group, _require_integer, group_from_tag
from .pcmatrix import COVARIANT, PCMatrix, _entry_array
from .simplicial import EdgeField, SimplicialComplex2


def _matrix_header(A: PCMatrix) -> dict:
    return {"group": A.group.tag, "n": A.n, "variance": A.variance}


def matrix_to_obj(A: PCMatrix) -> dict:
    """The matrix document as plain objects; :func:`json_text` writes a
    matrix as this document without building it."""
    G = A.group
    flat = [None] * (A.n * A.n)
    for p, e in zip(A._positions.tolist(), G.from_array(A._carriers)):
        flat[p] = G.checked_to_obj(e)
    return {**_matrix_header(A), "entries": flat}


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
    pos = [p for p, v in enumerate(flat) if v is not None]
    try:
        carriers = group.batch_check(group.unwrap_objs(flat if len(pos) == len(flat) else [flat[p] for p in pos]))
    except (ValueError, KeyError, TypeError):
        for p in pos:  # name the first bad element in document order
            try:
                group.element_from_obj(flat[p])
            except ValueError as exc:
                raise ParseError(f"bad matrix document: {exc}") from exc
        raise
    try:
        return PCMatrix._of_checked(group, n, carriers, np.array(pos, dtype=np.intp), variance)
    except ValueError as exc:
        raise ParseError(f"bad matrix document: {exc}") from exc


def matrix_to_csv(A: PCMatrix) -> str:
    if A.group.tag != "rplus":
        raise ValueError("CSV holds scalars only; use JSON for group " + A.group.tag)
    if not A.gap_free:
        raise ValueError("CSV cannot represent gaps")
    return "\n".join(",".join(repr(e) for e in row) for row in _entry_array(A).tolist()) + "\n"


def matrix_from_csv(text: str) -> PCMatrix:
    """A gap-free covariant rplus matrix.  Its cells are read as one array
    and checked by one ``RPLUS.batch_check`` (:func:`_csv_array`); where
    that pass refuses, :func:`_csv_cells` reads the text cell by cell, so
    every refusal names its line and column."""
    carriers = _csv_array(text)
    if carriers is None:
        carriers = _csv_cells(text)
    n = math.isqrt(len(carriers))
    try:
        return PCMatrix._of_checked(RPLUS, n, carriers, np.arange(n * n), COVARIANT)
    except ValueError as exc:  # n = 1, a matrix of one line
        raise ParseError(str(exc), line=1) from exc


def _csv_array(text: str) -> np.ndarray | None:
    """The carriers of an n x n CSV matrix, row-major, from one
    ``np.array(rows, dtype=float)``, which reads each cell as Python's
    ``float`` does, and one ``RPLUS.batch_check``.  None, for the cell loop
    to answer, on text with an ``_`` (``float`` reads ``1_000`` as 1000.0,
    and no decimal has an underscore), on rows that are not n cells each,
    and on a cell that is not a number or not a positive real."""
    if "_" in text:
        return None
    rows = [line.split(",") for line in text.rstrip().splitlines()]  # without the trailing blank lines
    try:
        x = np.array(rows, dtype=float)
        if x.shape == (len(rows), len(rows)):
            return RPLUS.batch_check(x.ravel())
    except ValueError:  # a cell that is not a number or not a positive real, or rows of different lengths
        pass
    return None


def _csv_cells(text: str) -> np.ndarray:
    """The carriers of a CSV matrix read cell by cell, each checked by
    ``RPLUS.check`` where it is read; a refusal names its line and column,
    and that of a short or blank row its line."""
    rows = []
    lines = text.splitlines()
    for r, line in enumerate(lines, start=1):
        if not line.strip():
            if rows and all(not ln.strip() for ln in lines[r - 1 :]):
                break  # trailing blank lines
            raise ParseError("blank row inside matrix", line=r)
        row = []
        for c, cell in enumerate(line.split(","), start=1):
            try:
                if "_" in cell:  # float() reads 1_000 as 1000.0; no decimal has an underscore
                    raise ValueError(cell)
                row.append(RPLUS.check(float(cell)))
            except GroupMismatchError as exc:
                raise ParseError(str(exc), line=r, column=c) from None
            except ValueError:
                raise ParseError(f"not a number: {cell.strip()!r}", line=r, column=c) from None
        rows.append(row)
    if not rows:
        raise ParseError("empty CSV matrix", line=1)
    n = len(rows)
    for r, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", line=r)
    return RPLUS.to_array([v for row in rows for v in row])


def complex_to_obj(K: SimplicialComplex2) -> dict:
    return {
        "vertices": K.vertices,
        "edges": K._edge_array.tolist(),
        "triangles": K._tri_array.tolist(),
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
        ends = _edge_keys(list(raw))
        carriers = group.batch_check(group.unwrap_objs(list(raw.values())))
    except (ValueError, KeyError, TypeError):
        for key, v in raw.items():  # name the first bad key or element in document order
            _edge_key(key)
            try:
                group.element_from_obj(v)
            except ValueError as exc:
                raise ParseError(f"bad element on edge {key}: {exc}") from exc
        raise
    try:
        return EdgeField._of_checked(group, ends, carriers)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _edge_keys(keys: list) -> np.ndarray:
    """The ``'i-j'`` keys as an (E, 2) int64 array, each read as
    :func:`_edge_key` reads it.  When every key is 1-18 ASCII digits, a
    ``-`` and 1-18 ASCII digits, numpy reads the keys joined by ``,`` in one
    pass: 18 digits stay inside int64, and a count of two vertices per key
    refuses a key with a comma in it.  Any other keys are read key by key."""
    if set(map(type, keys)) <= {str}:
        text = ",".join(keys)
        if _DIGIT_KEYS.fullmatch(text):
            ends = np.fromstring(text.replace("-", ","), dtype=np.int64, sep=",")
            if len(ends) == 2 * len(keys):
                return ends.reshape(-1, 2)
    return np.array([_edge_key(key) for key in keys], dtype=np.int64).reshape(-1, 2)


def _edge_key(key) -> tuple[int, int]:
    """The vertices of one ``'i-j'`` key of ASCII digits; Python's ``int``
    alone would also read ``"+1"``, ``" 1"``, ``"1_0"`` and ``"١"``."""
    match = _EDGE_KEY.fullmatch(str(key))
    try:
        i, j = int(match[1]), int(match[2])
    except (TypeError, ValueError):  # no match (None has no groups), or more digits than int() converts
        raise ParseError(f"bad edge key {key!r}; expected 'i-j'") from None
    if max(i, j) > _INT64_MAX:
        raise ParseError(f"bad edge key {key!r}; vertices must fit in 64 bits") from None
    return i, j


_INT64_MAX = 2**63 - 1
_EDGE_KEY = re.compile(r"([0-9]+)-([0-9]+)")
_DIGIT_KEYS = re.compile(r"[0-9]{1,18}-[0-9]{1,18}(?:,[0-9]{1,18}-[0-9]{1,18})*")


def _integer(obj: dict, key: str, default=None) -> int:
    """``obj[key]`` (or ``default`` when absent) as an int, by the rule of
    :func:`holopc.groups._as_integer`; the error names the key."""
    return _require_integer(repr(key), obj[key] if default is None else obj.get(key, default))


def _read(path: str | Path) -> str:
    """The text of the file at ``path``, decoded as ``Path.read_text``
    decodes it (the default encoding); a file that cannot be read is a
    :class:`ParseError`.  Plain ``open``: ``Path(path).read_text()`` took
    about twice as long on the ``full_simplex(3)`` complex file (14-28 us
    against 8.5 us, ``timeit`` on a shared 2-vCPU host)."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_json(path: str | Path):
    text = _read(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc


def load_matrix(path: str | Path, fmt: str | None = None) -> PCMatrix:
    """Read a matrix file; format inferred from the extension unless given."""
    if fmt is None:
        fmt = "csv" if os.path.splitext(path)[1].lower() == ".csv" else "json"
    if fmt == "csv":
        return matrix_from_csv(_read(path))
    return matrix_from_obj(load_json(path))


def save_matrix(A: PCMatrix, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt == "csv":
        path.write_text(matrix_to_csv(A))
    else:
        path.write_text(json_text(A) + "\n")


def save_obj(obj, path: str | Path) -> None:
    Path(path).write_text(json_text(obj) + "\n")


_escape = json.encoder.encode_basestring_ascii


class Records:
    """A list of records ``{name: column[r]}`` over parallel numpy columns
    of floats or integers, one value per record (shape (R,)) or one row of
    values (shape (R, k)), which :func:`json_text` writes as that list of
    dicts without building it, through one record template."""

    __slots__ = ("columns",)

    def __init__(self, **columns: np.ndarray):
        self.columns = columns


def json_text(obj) -> str:
    """``obj`` as JSON text: byte for byte ``json.dumps(obj, indent=2,
    sort_keys=True)``, and the same ``TypeError`` on a value ``json``
    cannot write (a numpy integer, say).  Tuples are written as lists, a
    :class:`PCMatrix` as its document :func:`matrix_to_obj`, straight
    from its carriers, and a :class:`Records` as its list of dicts.  The
    text is built as one list of pieces, joined once."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(o, pad: str, out: list[str]) -> None:
    # the type tests in the order json.encoder's _iterencode makes them
    if isinstance(o, str):
        return out.append(_escape(o))
    if o is None:
        return out.append("null")
    if o is True:
        return out.append("true")
    if o is False:
        return out.append("false")
    if isinstance(o, int):
        return out.append(int.__repr__(o))
    if isinstance(o, float):
        return out.append(_json_float(o))
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        kinds = set(map(type, o))
        if len(kinds) == 1 and (text := _NUMBER_TEXT.get(kinds.pop())):  # all float, or all int (no bool)
            sep = "," + inner
            body = sep.join(map(text, o))
            if "n" in body:  # nan or inf, the only float reprs with an "n": json spells them
                body = sep.join(map(_json_float, o))
            return out.append("[" + inner + body + pad + "]")
        items, brackets = zip(repeat(""), o), "[]"
    elif isinstance(o, dict):  # each key is checked as it is written, as json does
        items, brackets = ((_json_key(k) + ": ", v) for k, v in sorted(o.items())), "{}"
    elif isinstance(o, PCMatrix):  # "entries" sorts before the header's keys, which are in order
        out.append("{" + inner + '"entries": ')
        _write_entries(o, inner, out)
        items, brackets = ((_escape(k) + ": ", v) for k, v in _matrix_header(o).items()), ",}"
    elif isinstance(o, Records):
        return _write_records(o, pad, out)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    sep = brackets[0] + inner
    for key, v in items:
        out.append(sep + key)
        sep = "," + inner
        _write(v, inner, out)
    out.append(pad + brackets[1] if sep[0] == "," else brackets)  # an opening bracket alone: empty


def _write_entries(A: PCMatrix, pad: str, out: list[str]) -> None:
    """The ``entries`` list of a matrix document: each stored entry through
    one element template, ``null`` at each gap."""
    C = A._carriers
    parts = _template(A.group.checked_to_obj(_SLOT if C.ndim == 1 else (_SLOT,) * C.shape[1]), pad + "  ")
    texts = _scalar_texts(C.reshape(len(C), -1), once=C.size > _FORMAT_ONCE)
    gaps = None if A.gap_free else np.diff(A._positions, prepend=-1, append=A.n * A.n) - 1
    _write_rows(parts, texts, pad, out, gaps)


def _write_records(R: Records, pad: str, out: list[str]) -> None:
    """The list of a :class:`Records`: each record through one template of
    its dict, its slots in sorted key order."""
    names = sorted(R.columns)
    columns = [R.columns[k] for k in names]
    if not len(columns[0]):
        return out.append("[]")
    parts = _template({k: _SLOT if c.ndim == 1 else [_SLOT] * c.shape[1] for k, c in zip(names, columns)}, pad + "  ")
    _write_rows(parts, np.concatenate([_scalar_texts(c.reshape(len(c), -1)) for c in columns], axis=1), pad, out)


def _write_rows(parts: list[str], texts: np.ndarray, pad: str, out: list[str], gaps=None) -> None:
    """A list of one item per row of ``texts``: the row's texts between the
    item template ``parts``.  ``gaps[r]`` ``null`` items go before row r and
    ``gaps[-1]`` after the last; each distinct length of run is one string,
    shared by every row it leads."""
    if gaps is None:
        lead = np.full(len(texts) + 1, "", dtype=object)
    else:
        null = "," + pad + "  null"
        lengths, which = np.unique(gaps, return_inverse=True)
        lead = np.array([null * k for k in lengths.tolist()], dtype=object)[which]
    T = np.empty((len(texts), 2 * len(parts)), dtype=object)
    T[:, 0] = lead[:-1]
    T[:, 1::2] = parts
    T[:, 2::2] = texts
    start = len(out)
    out += T.ravel().tolist()
    out += (lead[-1], pad + "]")
    i = start if out[start] else start + 1  # each item opens with a comma; the first trades it for the bracket
    out[i] = "[" + out[i][1:]


_FORMAT_ONCE = 100  # above this many carrier scalars, formatting each magnitude once pays for np.unique


def _scalar_texts(C: np.ndarray, once: bool = False) -> np.ndarray:
    """The JSON text of each scalar of a 2-D float or integer array, as an
    object array of its shape.  With ``once`` a finite float array formats
    each distinct magnitude once: ``repr(-x)`` is ``"-" + repr(x)`` for
    every finite float, -0.0 included."""
    if C.dtype.kind == "f" and not np.isfinite(C).all():
        texts = map(_json_float, C.ravel().tolist())
    elif C.dtype.kind == "f" and once:
        magnitudes, inverse = np.unique(np.abs(C), return_inverse=True)
        texts = list(map(repr, magnitudes.tolist()))
        texts = np.array(texts + ["-" + t for t in texts], dtype=object)
        return texts[inverse.reshape(C.shape) + len(magnitudes) * np.signbit(C)]
    else:
        texts = map(repr, C.ravel().tolist())  # json's text of a Python int or finite float
    return np.array(list(texts), dtype=object).reshape(C.shape)


_SLOT = "\0"  # a value, while a template is written


def _template(obj, pad: str) -> list[str]:
    """The text of the list item ``obj`` at indent ``pad``, after its
    separator, split at each string ``_SLOT`` in it."""
    out = ["," + pad]
    _write(obj, pad, out)
    return "".join(out).split(_escape(_SLOT))


def _json_key(k) -> str:
    # json writes a number, bool or None key as its value's text, in quotes
    if isinstance(k, str):
        return _escape(k)
    if isinstance(k, (int, float)) or k is None:
        return _escape(json_text(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


_NUMBER_TEXT = {float: float.__repr__, int: int.__repr__}  # the item texts of a number list, joined once


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)
