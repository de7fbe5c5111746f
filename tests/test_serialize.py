import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from holopc import serialize, simplicial
from holopc.cli import main
from holopc.consistencize import consistencize_abelian, consistencize_riemannian
from holopc.errors import GroupMismatchError, MissingEdgeError, ParseError
from holopc.groups import RPLUS, SU2, U1, CircleGroup, Group, zmod
from holopc.pcmatrix import (
    CONTRAVARIANT,
    COVARIANT,
    PCMatrix,
    from_upper_triangle,
    gauge_transform,
    random_pc_matrix,
)
from holopc.serialize import (
    Carriers,
    Records,
    complex_from_obj,
    complex_to_obj,
    field_from_obj,
    field_to_obj,
    json_text,
    load_json,
    load_matrix,
    matrix_from_csv,
    matrix_from_obj,
    matrix_to_csv,
    matrix_to_obj,
    save_matrix,
    save_obj,
)
from holopc.simplicial import EdgeField, _edge_carriers, full_simplex, grid_complex, holonomy_pc_matrix, identity_field

Z7 = zmod(7)
GROUPS = [RPLUS, U1, SU2, Z7]
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# the writer properties draw whole documents, and shrinking one through
# json_text takes minutes: a failure reports the example as first drawn
WRITER_PROPERTY = settings(PROPERTY, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))


def test_matrix_json_round_trip():
    for group in [U1, SU2, zmod(5)]:
        A = random_pc_matrix(group, 4, rng=70)
        B = matrix_from_obj(matrix_to_obj(A))
        assert B.group == A.group and B.variance == A.variance
        for i in range(4):
            for j in range(4):
                assert group.distance(A.entry(i, j), B.entry(i, j)) < 1e-15


def test_documents_check_each_value_once(monkeypatch):
    A = random_pc_matrix(U1, 5, rng=71)
    F = EdgeField(U1, {(0, 1): 0.3, (1, 2): -2.0, (0, 2): 3.1})
    checked, batches = [], []
    check = CircleGroup.check
    monkeypatch.setattr(CircleGroup, "check", lambda self, a: checked.append(a) or check(self, a))
    for owner in (Group, CircleGroup):  # the classes that define batch_check on this path
        batch_check = owner.batch_check
        monkeypatch.setattr(owner, "batch_check", lambda self, vs, _b=batch_check: batches.append(len(vs)) or _b(self, vs))
    obj, fobj = matrix_to_obj(A), field_to_obj(F)
    assert checked == [] and batches == []  # stored carriers are written as they are
    assert matrix_from_obj(obj) == A
    assert checked == [] and batches == [25]  # one array pass per document, no element check
    assert field_from_obj(fobj).items() == F.items()
    assert checked == [] and batches == [25, 3]


def test_matrix_json_preserves_gaps():
    from holopc.pcmatrix import PCMatrix

    A = PCMatrix(RPLUS, [[1, 2, None], [0.5, 1, 3], [None, 1 / 3, 1]])
    obj = matrix_to_obj(A)
    assert obj["entries"][2] is None
    B = matrix_from_obj(obj)
    assert B.entry(0, 2) is None
    assert B.entry(2, 0) is None


def test_matrix_json_errors():
    with pytest.raises(ParseError, match="missing key"):
        matrix_from_obj({"group": "u1", "entries": []})
    with pytest.raises(ParseError, match="entries"):
        matrix_from_obj({"group": "u1", "n": 2, "entries": [None]})
    with pytest.raises(ParseError):
        matrix_from_obj({"group": "u1", "n": 2, "entries": [1.0, 2.0, 3.0, 4.0]})
    with pytest.raises(ParseError):
        matrix_from_obj({"group": "nope", "n": 2, "entries": [None] * 4})


def test_matrix_csv_round_trip(tmp_path):
    A = from_upper_triangle(RPLUS, [2.0, 8.0, 4.0])
    text = matrix_to_csv(A)
    B = matrix_from_csv(text)
    assert B.entries == A.entries
    p = tmp_path / "m.csv"
    save_matrix(A, p)
    assert load_matrix(p).entries == A.entries


def test_matrix_csv_errors_carry_location():
    with pytest.raises(ParseError) as err:
        matrix_from_csv("1,2\n0.5,x\n")
    assert err.value.line == 2 and err.value.column == 2
    with pytest.raises(ParseError, match="positive"):
        matrix_from_csv("1,-2\n-0.5,1\n")
    with pytest.raises(ParseError, match="expected 2"):
        matrix_from_csv("1,2\n0.5\n")
    with pytest.raises(ValueError, match="CSV"):
        matrix_to_csv(random_pc_matrix(SU2, 3, rng=0))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e-320", "0", "-2"])
def test_matrix_csv_cells_are_checked_by_the_group_where_they_are_read(cell):
    # the group's refusal of the value, at the cell's line and column
    with pytest.raises(GroupMismatchError) as refusal:
        RPLUS.check(float(cell))
    with pytest.raises(ParseError) as err:
        matrix_from_csv(f"1,2,4\n0.5,1,{cell}\n0.25,1,1\n")
    assert (err.value.line, err.value.column) == (2, 3)
    assert str(err.value) == f"{refusal.value} (line 2, column 3)"


def test_matrix_csv_blames_the_first_bad_cell():
    # a_12 = inf is read before its reciprocal 0
    with pytest.raises(ParseError, match="non-finite") as err:
        matrix_from_csv("1,inf\n0,1\n")
    assert (err.value.line, err.value.column) == (1, 2)


@pytest.mark.parametrize("cell", ["1_000", "1_0.5", "1e1_0"])
def test_matrix_csv_refuses_underscores(cell):
    # float() reads "1_000" as 1000.0, but no decimal has an underscore
    with pytest.raises(ParseError) as err:
        matrix_from_csv(f"1,{cell}\n0.001,1\n")
    assert str(err.value) == f"not a number: {cell!r} (line 1, column 2)"


def test_a_one_by_one_matrix_is_refused_by_its_size():
    with pytest.raises(ParseError) as err:
        matrix_from_csv("1\n")
    assert str(err.value) == "a PC matrix needs n >= 2, got n = 1 (line 1)"
    with pytest.raises(ParseError) as err:
        matrix_from_obj({"group": "rplus", "n": 1, "entries": [1.0]})
    assert str(err.value) == "bad matrix document: a PC matrix needs n >= 2, got n = 1"
    with pytest.raises(ValueError, match=r"^a PC matrix needs n >= 2, got n = 0$"):
        PCMatrix(RPLUS, [])
    with pytest.raises(ValueError, match="square grid"):  # not square: the grid's own message
        PCMatrix(RPLUS, [[1.0, 2.0]])


def csv_outcome(text, array_pass=True):
    """What ``matrix_from_csv`` makes of ``text``: the size and carrier
    bytes, or the ParseError's message, line and column; without the array
    pass, what the cell loop alone makes of it."""
    with pytest.MonkeyPatch.context() as mp:
        if not array_pass:
            mp.setattr(serialize, "_csv_array", lambda text: None)
        try:
            A = matrix_from_csv(text)
        except ParseError as exc:
            return str(exc), exc.line, exc.column
    return A.n, A._carriers.dtype, A._carriers.tobytes()


POSITIVE = st.one_of(
    st.floats(0.01, 100.0),
    st.floats(math.nextafter(2.0**-1024, 1.0), 1e308),
    st.sampled_from([math.nextafter(2.0**-1024, 1.0), 1.7976931348623151e308, 1.0]),  # the ends of the range
)


@PROPERTY
@given(data=st.data())
def test_csv_array_pass_reads_repr_written_matrices_as_the_cell_loop(data):
    n = data.draw(st.integers(2, 9))
    rows = data.draw(st.lists(st.lists(POSITIVE, min_size=n, max_size=n), min_size=n, max_size=n))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(map(repr, row)) for row in rows) + end
    assert serialize._csv_array(text) is not None  # the array pass takes it
    assert csv_outcome(text) == csv_outcome(text, array_pass=False)


RPLUS_CEIL = 1.7976931348623153e308  # the least float whose inverse rounds to 2**-1024
RPLUS_ENDS = st.one_of(
    st.floats(2.0**-1030, 2.0**-1018),
    st.floats(min_value=2.0**1018, allow_infinity=False),
    st.sampled_from([x for end in (2.0**-1024, RPLUS_CEIL) for x in (math.nextafter(end, 0.0), end, math.nextafter(end, math.inf))]),
)


@PROPERTY
@given(x=RPLUS_ENDS)
def test_rplus_range_is_closed_under_the_stored_inverse(x):
    # near both ends of (2**-1024, RPLUS_CEIL): an accepted carrier's inverse
    # is accepted, and a matrix that stores both reads back from JSON and CSV
    inside = 2.0**-1024 < x < RPLUS_CEIL
    if not inside:
        with pytest.raises(GroupMismatchError, match=r"outside \(2\*\*-1024, 1\.7976931348623153e\+308\)"):
            from_upper_triangle(RPLUS, [x])
        return
    inverse = float(RPLUS.batch_inverse(np.array([x]))[0])
    assert RPLUS.check(x) == x and RPLUS.check(inverse) == inverse
    A = from_upper_triangle(RPLUS, [x, inverse, 1.0])  # x and its inverse, each stored with its inverse
    for B in (matrix_from_obj(json.loads(json_text(A))), matrix_from_csv(matrix_to_csv(A))):
        assert B == A


def test_largest_floats_are_refused_as_their_inverse_is_the_floor():
    # 1 / x rounds to 2**-1024 for the three largest floats, so no matrix stores them
    for x in (1.7976931348623157e308, 1.7976931348623155e308, RPLUS_CEIL):
        assert 1.0 / x == 2.0**-1024
        with pytest.raises(GroupMismatchError, match="outside"):
            from_upper_triangle(RPLUS, [x])
    A = from_upper_triangle(RPLUS, [math.nextafter(RPLUS_CEIL, 0.0)])
    assert matrix_from_csv(matrix_to_csv(A)) == A == matrix_from_obj(json.loads(json_text(A)))


_GOOD3 = [["1", "2", "4"], ["0.5", "1", "2"], ["0.25", "0.5", "1"]]
CSV_CELLS = ["1_000", "nan", "inf", "-inf", "0", "-1", "1e400", "5e-324", "", " 2 ", "١", "x"]
CSV_TEXTS = [
    "\n".join(",".join(cell if (r, c) == at else v for c, v in enumerate(row)) for r, row in enumerate(_GOOD3)) + "\n"
    for cell in CSV_CELLS
    for at in [(0, 1), (2, 2), (1, 0)]
] + [
    "1,2,4\n0.5,1\n0.25,0.5,1\n",  # a ragged row
    "1,2,4\n0.5,1,2,3\n0.25,0.5,1\n",
    "1,2,3\n0.5,1,2\n",  # two rows of three
    "1,2\n\n0.5,1\n",  # a blank inner row
    "\n1,2\n0.5,1\n",  # a leading blank line
    "1\n",  # 1 x 1
    "0\n",
    "1,2\n0.5,1\n\n  \n\n",  # trailing blank lines
    "1,2\r\n0.5,1\r\n",
    " 1 , 2\n0.5 ,\t1 \n",  # spaces around cells
    "1,2\n0.5,1",  # no final line end
    "1,2,\n0.5,1,\n",
    "",
    "\n\n",
    "  \n",
]


@pytest.mark.parametrize("text", CSV_TEXTS)
def test_csv_array_pass_answers_as_the_cell_loop(text):
    assert csv_outcome(text) == csv_outcome(text, array_pass=False)


@pytest.mark.parametrize("text", ["1,2\n0.5,1\n\n  \n\n", "1,2\r\n0.5,1\r\n", " 1 , 2\n0.5 ,\t1 \n", "1,١\n1,1\n"])
def test_csv_array_pass_takes_valid_line_ends_spaces_and_digits_float_reads(text):
    assert serialize._csv_array(text) is not None


def test_files_are_read_with_their_errors_wrapped(tmp_path):
    missing = tmp_path / "missing.json"
    for load in (load_json, load_matrix, lambda p: load_matrix(p, fmt="csv")):
        with pytest.raises(ParseError, match=r"^cannot read .*missing\.json: \[Errno 2\]"):
            load(missing)
        with pytest.raises(ParseError, match=r"^cannot read .*: \[Errno 21\] Is a directory"):
            load(str(tmp_path))
    p = tmp_path / "m.CSV"  # the extension picks the format, in any case
    p.write_text("1,2\n0.5,1\n")
    assert load_matrix(str(p)).entries == ((1.0, 2.0), (0.5, 1.0))


def test_bad_json_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"group": "u1",\n  "n": }')
    with pytest.raises(ParseError) as err:
        load_json(p)
    assert err.value.line == 2


def test_complex_round_trip():
    for K in [full_simplex(3), grid_complex(2)]:
        obj = complex_to_obj(K)
        L = complex_from_obj(obj)
        assert L.vertices == K.vertices
        assert L.edges == K.edges
        assert L.triangles == K.triangles
        assert L.base == K.base
    with pytest.raises(ParseError):
        complex_from_obj({"edges": []})


def test_field_round_trip():
    K = full_simplex(3)
    for group in [U1, SU2, zmod(3)]:
        rng = np.random.default_rng(71)
        F = EdgeField(group, {e: group.haar_sample(rng) for e in K.edges})
        G2 = field_from_obj(field_to_obj(F))
        for e in K.edges:
            assert group.distance(F.value(*e), G2.value(*e)) < 1e-15


def test_field_errors():
    with pytest.raises(ParseError, match="edge key"):
        field_from_obj({"group": "u1", "values": {"ab": {"theta": 0.1}}})
    with pytest.raises(ParseError, match="element"):
        field_from_obj({"group": "su2", "values": {"0-1": {"theta": 0.1}}})
    K = full_simplex(2)
    obj = field_to_obj(identity_field(K, U1))
    obj["group"] = "unknown"
    with pytest.raises(ParseError):
        field_from_obj(obj)


def test_document_sizes_must_be_integers():
    bad = [
        (matrix_from_obj, {"group": "u1", "n": 2.9, "entries": [None] * 4}, "'n'"),
        (matrix_from_obj, {"group": "u1", "n": True, "entries": [None]}, "'n'"),
        (matrix_from_obj, {"group": "u1", "n": "2", "entries": [None] * 4}, "'n'"),
        (complex_from_obj, {"vertices": 3.5, "edges": [[0, 1]]}, "'vertices'"),
        (complex_from_obj, {"vertices": True}, "'vertices'"),
        (complex_from_obj, {"vertices": math.inf}, "'vertices'"),
        (complex_from_obj, {"vertices": 3, "base": 1.7}, "'base'"),
        (complex_from_obj, {"vertices": 3, "base": False}, "'base'"),
    ]
    for parse, doc, key in bad:
        with pytest.raises(ParseError, match=f"{key} must be an integer, got {doc[key.strip(chr(39))]!r}"):
            parse(doc)
    assert matrix_from_obj({"group": "u1", "n": 2, "entries": [None] * 4}).n == 2
    assert matrix_from_obj({"group": "u1", "n": 2.0, "entries": [None] * 4}).n == 2
    K = complex_from_obj({"vertices": 3.0, "edges": [[0, 1]], "base": np.int64(2)})
    assert (K.vertices, K.base) == (3, 2)


# --- the writer against json.dumps ------------------------------------------------

SPECIAL_TEXT = ['"', "\\", "\n\t\x00\x1f\x7f", "\u00e9", "\u6f22\u5b57", "\U0001f600", "\u2028", "\ud800"]
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, 1.7976931348623157e308]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    json_floats,
    json_floats.map(np.float64),
    st.text(),
    st.sampled_from(SPECIAL_TEXT),
)
json_keys = st.one_of(st.text(), st.sampled_from(SPECIAL_TEXT))
scalar_keys = st.one_of(st.integers(-(2**70), 2**70), json_floats, st.booleans())
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=6),
        st.lists(kids, max_size=6).map(tuple),
        st.dictionaries(json_keys, kids, max_size=6),
        st.dictionaries(scalar_keys, kids, max_size=4),
    ),
    max_leaves=40,
)


@WRITER_PROPERTY
@given(json_trees)
def test_json_text_is_json_dumps(tree):
    assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [np.int64(3), {"a": [1.0, np.int64(2)]}, {1, 2}, b"x", [object()], {(1, 2): 0}, {"a": 1, 2: 3}, {None: 1, 0: 2}],
    ids=["np-int64", "nested-np-int64", "set", "bytes", "object", "tuple-key", "str-and-int-keys", "none-and-int-keys"],
)
def test_json_text_raises_what_json_raises(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        json_text(obj)
    assert str(got.value) == str(expected.value)


number_lists = st.one_of(
    st.lists(json_floats, max_size=300),
    st.lists(st.one_of(st.integers(), st.integers(-(2**200), 2**200)), max_size=300),
    st.lists(st.one_of(json_floats, json_floats.map(np.float64)), min_size=1, max_size=300),  # subclass of float
    st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=300),  # bool is an int subclass
    st.lists(st.one_of(json_floats, st.integers()), min_size=1, max_size=300),
)


@WRITER_PROPERTY
@given(number_lists, st.integers(0, 3))
def test_number_lists_are_written_as_json_dumps(items, depth):
    # a list of only float or only int items is written as one join; every
    # other list, such as one mixing in bool or np.float64, item by item
    for doc in (items, tuple(items)):
        for _ in range(depth):
            doc = {"k": [doc]}
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_reports_are_written_by_json_text(tmp_path):
    A = random_pc_matrix(SU2, 4, rng=72)
    save_matrix(A, tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text() == json.dumps(matrix_to_obj(A), indent=2, sort_keys=True) + "\n"


# --- matrices written from their carriers -----------------------------------------

WRITER_GROUPS = [RPLUS, U1, SU2, Z7, zmod(2**62)]


@st.composite
def gapped_matrices(draw, group):
    """A matrix of valid raw values with no gap, only the diagonal, or a
    random gap pattern (not necessarily symmetric or reciprocal), in either
    variance; sometimes made reciprocal by the identity gauge."""
    n = draw(st.integers(2, 6))
    values = VALID["zmod:7" if group.tag.startswith("zmod") else group.tag]
    grid = [[draw(values) for _ in range(n)] for _ in range(n)]
    pattern = draw(st.sampled_from(["none", "diagonal", "random"]))
    for i, j in itertools.product(range(n), repeat=2):
        if (pattern == "diagonal" and i != j) or (pattern == "random" and draw(st.booleans())):
            grid[i][j] = None
    A = PCMatrix(group, grid, draw(st.sampled_from([COVARIANT, CONTRAVARIANT])))
    if draw(st.booleans()):
        A = gauge_transform(A, [group.identity] * n)
    return A


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("group", WRITER_GROUPS, ids=lambda g: g.tag)
@WRITER_PROPERTY
@given(data=st.data())
def test_matrices_are_written_as_their_documents(group, data):
    A = data.draw(gapped_matrices(group))
    doc = matrix_to_obj(A)
    assert json_text(A) == _dumps(doc)
    assert json_text({"matrix": A, "n": 1}) == _dumps({"matrix": doc, "n": 1})
    assert json_text([[A], {"x": (A,)}]) == _dumps([[doc], {"x": [doc]}])


@pytest.mark.parametrize("group", WRITER_GROUPS, ids=lambda g: g.tag)
def test_reports_write_matrices_as_their_documents(group, tmp_path, capsys):
    rng = np.random.default_rng(74)
    for K in (grid_complex(2), full_simplex(3)):  # gapped and gap-free
        F = _field(group, K, rng)
        save_obj(complex_to_obj(K), tmp_path / "k.json")
        save_obj(field_to_obj(F), tmp_path / "f.json")
        assert main(["holonomy", str(tmp_path / "k.json"), str(tmp_path / "f.json")]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        F = field_from_obj(load_json(tmp_path / "f.json"))  # as the CLI reads it
        report["matrix"] = matrix_to_obj(holonomy_pc_matrix(K, F))
        assert out == _dumps(report) + "\n"

    A = random_pc_matrix(group, 5, rng) if group.compact else from_upper_triangle(RPLUS, rng.lognormal(size=10))
    save_matrix(A, tmp_path / "a.json")
    assert (tmp_path / "a.json").read_text() == _dumps(matrix_to_obj(A)) + "\n"
    method = "abelian" if group.tag in ("rplus", "u1") else "riemannian"
    assert main(["consistencize", str(tmp_path / "a.json"), "--method", method, "--out", str(tmp_path / "c.json")]) == 0
    out = capsys.readouterr().out
    A = load_matrix(tmp_path / "a.json")  # su2 carriers are normalized again when read
    C = (consistencize_abelian(A) if method == "abelian" else consistencize_riemannian(A)).matrix
    report = json.loads(out)
    report["matrix"] = matrix_to_obj(C)
    assert out == _dumps(report) + "\n"
    assert (tmp_path / "c.json").read_text() == _dumps(matrix_to_obj(C)) + "\n"


@pytest.mark.parametrize("group", WRITER_GROUPS, ids=lambda g: g.tag)
@WRITER_PROPERTY
@given(data=st.data())
def test_gap_free_documents_read_as_the_position_list(group, data):
    # a document with no null reads every position from one arange; the
    # matrix is the one the list of present positions gives, bit for bit
    n = data.draw(st.integers(2, 6))
    values = VALID["zmod:7" if group.tag.startswith("zmod") else group.tag].map(lambda v: group.checked_to_obj(group.check(v)))
    entries = st.one_of(st.none(), values) if data.draw(st.booleans()) else values
    flat = [data.draw(entries) for _ in range(n * n)]
    variance = data.draw(st.sampled_from([COVARIANT, CONTRAVARIANT]))
    pos = [p for p, v in enumerate(flat) if v is not None]
    carriers = group.batch_check(group.unwrap_objs([flat[p] for p in pos]))
    B = matrix_from_obj({"group": group.tag, "n": n, "variance": variance, "entries": flat})
    assert B.group == group and (B.n, B.variance, B.gap_free) == (n, variance, None not in flat)
    assert B._positions.dtype == np.intp and B._positions.tolist() == pos
    assert B._carriers.dtype == carriers.dtype and B._carriers.tobytes() == carriers.tobytes()


@pytest.mark.parametrize("group", WRITER_GROUPS, ids=lambda g: g.tag)
@WRITER_PROPERTY
@given(data=st.data())
def test_carrier_lists_are_written_as_their_elements(group, data):
    # a gauge vector is written from its carriers, as the list of its
    # elements' objects, in any position of a report
    values = VALID["zmod:7" if group.tag.startswith("zmod") else group.tag]
    C = group.batch_check(data.draw(st.lists(values, max_size=30)))
    objs = [group.checked_to_obj(v) for v in group.from_array(C)]
    assert json_text(Carriers(group, C)) == _dumps(objs)
    report = {"lambda": Carriers(group, C), "n": len(C), "z": [Carriers(group, C)]}
    assert json_text(report) == _dumps({"lambda": objs, "n": len(C), "z": [objs]})


# --- sizes beyond the float range and non-integral cells --------------------------

HUGE = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize(
    "group, element",
    [(RPLUS, HUGE), (U1, {"theta": HUGE}), (SU2, {"q": [HUGE, 0, 0, 0]}), (SU2, {"q": [1.0, 0, HUGE, 0]})],
    ids=["rplus", "u1", "su2-w", "su2-y"],
)
def test_huge_integers_are_group_mismatches(group, element, tmp_path, capsys):
    with pytest.raises(GroupMismatchError):
        group.element_from_obj(element)
    one = group.checked_to_obj(group.identity)
    with pytest.raises(ParseError, match="bad matrix document: group mismatch"):
        matrix_from_obj({"group": group.tag, "n": 2, "entries": [one, element, one, one]})
    with pytest.raises(ParseError, match="bad element on edge 0-2: group mismatch"):
        field_from_obj({"group": group.tag, "values": {"0-1": one, "0-2": element}})

    doc = {"group": group.tag, "n": 2, "entries": [one, element, one, one]}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    save_obj(complex_to_obj(full_simplex(2)), tmp_path / "k.json")
    field = {"group": group.tag, "values": {"0-1": one, "0-2": element, "1-2": one}}
    (tmp_path / "f.json").write_text(json.dumps(field))
    for argv in (["check", str(tmp_path / "m.json")], ["holonomy", str(tmp_path / "k.json"), str(tmp_path / "f.json")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "group mismatch" in captured.err


@pytest.mark.parametrize(
    "doc, cell",
    [
        ({"vertices": 3, "edges": [[0, 1.5], [0, 2]]}, "edge [0, 1.5]"),
        ({"vertices": 3, "edges": [[0, True], [0, 2]]}, "edge [0, True]"),
        ({"vertices": 3, "edges": [["0", 1]]}, "edge ['0', 1]"),
        ({"vertices": 3, "edges": [[0, math.inf]]}, "edge [0, inf]"),
        ({"vertices": 3, "edges": [[0, 1, 2]]}, "edge [0, 1, 2]"),
        ({"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 1, 2.5]]}, "triangle [0, 1, 2.5]"),
        ({"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 1, False]]}, "triangle [0, 1, False]"),
    ],
)
def test_cell_vertices_must_be_integers(doc, cell, tmp_path, capsys):
    with pytest.raises(ParseError, match=re.escape(f"bad complex document: bad {cell}")):
        complex_from_obj(doc)
    (tmp_path / "k.json").write_text(json.dumps(doc))
    save_obj(field_to_obj(identity_field(full_simplex(2), U1)), tmp_path / "f.json")
    assert main(["holonomy", str(tmp_path / "k.json"), str(tmp_path / "f.json")]) == 2
    assert f"bad {cell}" in capsys.readouterr().err


def test_integral_float_vertices_are_accepted():
    K = complex_from_obj({"vertices": 3, "edges": [[0, 1.0], [np.int64(0), 2]], "triangles": []})
    assert K.edges == ((0, 1), (0, 2)) and all(type(v) is int for e in K.edges for v in e)


# --- batch_check against the check loop, and document errors -------------------------


def _checks(group, v) -> bool:
    try:
        group.check(v)
    except ValueError:
        return False
    return True


def _unit_times(vs):
    v, stretch = vs
    n = math.sqrt(sum(c * c for c in v))
    return [c / n * stretch for c in v]


# raw quaternions around the unit sphere, out to the 1e-6 norm tolerance and past it
near_unit = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda v: sum(c * c for c in v) > 1e-3),
    st.floats(1.0 - 5.1e-7, 1.0 + 5.1e-7),
).map(_unit_times)
VALID = {
    # inside (2**-1024, 1.7976931348623153e308), the floats whose inverses are inside too
    "rplus": st.one_of(
        st.floats(min_value=2.0**-1024, max_value=1.7976931348623153e308, exclude_min=True, exclude_max=True),
        st.integers(1, 2**60),
    ),
    "u1": st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**60), 2**60)),
    "su2": st.one_of(
        near_unit,
        near_unit.map(tuple),
        near_unit.map(np.array),
        st.sampled_from([[1, 0, 0, 0], (0, 0, -1, 0), [0.0, -0.0, 1, 0], [True, 0, 0, 0], ["1", "0", "0", "0"]]),
    ).filter(lambda v: _checks(SU2, v)),
    "zmod:7": st.one_of(st.integers(-(2**70), 2**70), st.integers(-(2**62), 2**62).map(np.int64)),
}


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_batch_check_is_the_check_loop(group, data):
    values = data.draw(st.lists(VALID[group.tag], max_size=12))
    got, expected = group.batch_check(values), group.to_array([group.check(v) for v in values])
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # bit for bit, signed zeros included


# element documents that element_from_obj refuses: wrong length or type, nan, a
# norm 2e-6 off, a bool, the wrapper of another group
BAD = {
    "rplus": [-1.0, 0.0, 5e-324, 2.0**-1024, math.nan, True, "x", [1.0], {"theta": 0.1}],
    "u1": [{"theta": math.nan}, {"theta": True}, {"theta": "x"}, {"theta": [0.1, 0.2]}, 0.5, {"q": [1, 0, 0, 0]}],
    "su2": [
        {"q": [1.0, 0.0, 0.0]},
        {"q": "x"},
        {"q": "1000"},
        {"q": [math.nan, 0.0, 0.0, 0.0]},
        {"q": [math.sqrt(1.0 + 2e-6), 0.0, 0.0, 0.0]},
        {"q": True},
        {"q": [1.0, 0.0, 0.0, "x"]},
        {"q": [[1.0], 0.0, 0.0, 0.0]},
        [1.0, 0.0, 0.0, 0.0],
        {"theta": 0.1},
    ],
    "zmod:7": [1.5, "x", True, [1], {"theta": 1}],
}


def _refusal(group, obj) -> str:
    with pytest.raises(ValueError) as err:
        group.element_from_obj(obj)
    return str(err.value)


def _field(group, K, rng):
    if group.compact:
        return EdgeField(group, {e: group.haar_sample(rng) for e in K.edges})
    return EdgeField(group, {e: math.exp(rng.normal()) for e in K.edges})


def _spoil(data, doc, slots, bad, later):
    """Put ``bad`` in a drawn slot of ``doc`` and ``later``, unless None, in
    the same or a later slot; return the slot of the first bad element."""
    p = data.draw(st.integers(0, len(slots) - 1))
    doc[slots[p]] = bad
    if later is not None:
        doc[slots[data.draw(st.integers(p, len(slots) - 1))]] = later
    return slots[p]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_bad_element_is_named_as_element_by_element(group, data):
    # the error is the one-element parse's on the first bad element
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(2, 5))
    if group.compact:
        A = random_pc_matrix(group, n, rng)
    else:
        A = from_upper_triangle(group, list(np.exp(rng.normal(size=n * (n - 1) // 2))))
    bad, later = data.draw(st.sampled_from(BAD[group.tag])), data.draw(st.sampled_from([None] + BAD[group.tag]))
    obj = matrix_to_obj(A)
    i = _spoil(data, obj["entries"], range(n * n), bad, later)
    with pytest.raises(ParseError) as err:
        matrix_from_obj(obj)
    assert str(err.value) == f"bad matrix document: {_refusal(group, obj['entries'][i])}"
    fobj = field_to_obj(_field(group, full_simplex(n - 1), rng))
    key = _spoil(data, fobj["values"], list(fobj["values"]), bad, later)
    with pytest.raises(ParseError) as err:
        field_from_obj(fobj)
    assert str(err.value) == f"bad element on edge {key}: {_refusal(group, fobj['values'][key])}"


def test_bad_key_and_bad_element_in_document_order():
    K = full_simplex(2)
    values = field_to_obj(identity_field(K, SU2))["values"]  # keys 0-1, 0-2, 1-2
    bad_value = dict(values, **{"0-2": {"q": [2.0, 0.0, 0.0, 0.0]}})
    with pytest.raises(ParseError, match="bad element on edge 0-2"):
        field_from_obj({"group": "su2", "values": {**bad_value, "x": values["1-2"]}})
    with pytest.raises(ParseError, match="bad edge key 'x'"):
        field_from_obj({"group": "su2", "values": {"x": values["0-1"], **bad_value}})


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
def test_documents_parse_as_element_by_element(group):
    rng = np.random.default_rng(73)
    K = grid_complex(2)
    fobj = field_to_obj(_field(group, K, rng))
    F = field_from_obj(fobj)
    assert F.items() == [(e, group.element_from_obj(fobj["values"][f"{e[0]}-{e[1]}"])) for e in K.edges]
    obj = matrix_to_obj(from_upper_triangle(group, [v for _, v in F.items()][:6]))
    obj["entries"][1] = obj["entries"][4] = None
    A = matrix_from_obj(obj)
    expected = [None if v is None else group.element_from_obj(v) for v in obj["entries"]]
    assert [e for row in A.entries for e in row] == expected


# --- complexes and fields on arrays ---------------------------------------------------


def _reference_complex(vertices, edges, triangles, base):
    """The per-cell reading of a valid complex: sorted canonical edges and
    triangles, each triangle's edge columns, and the parents of the
    breadth-first tree that visits neighbors in increasing order."""
    E = sorted({(min(int(i), int(j)), max(int(i), int(j))) for i, j in edges})
    T = sorted(tuple(sorted(int(v) for v in t)) for t in triangles)
    col = {e: c for c, e in enumerate(E)}
    cols = [[col[(i, j)], col[(i, k)], col[(j, k)]] for i, j, k in T]
    adj = {v: [] for v in range(vertices)}
    for i, j in E:
        adj[i].append(j)
        adj[j].append(i)
    parents, queue = {base: None}, [base]
    for v in queue:
        for w in sorted(adj[v]):
            if w not in parents:
                parents[w] = v
                queue.append(w)
    return E, T, cols, parents


@st.composite
def subcomplexes(draw):
    """A random subcomplex of ``full_simplex(n)``, n <= 7, as a complex
    document: shuffled cells, edges in either orientation, triangle
    vertices in any order, and some vertices written as integral floats."""
    V = draw(st.integers(1, 8))
    tris = draw(st.lists(st.sampled_from(list(itertools.combinations(range(V), 3)) or [None]), unique=True))
    tris = [t for t in tris if t is not None]
    needed = {e for i, j, k in tris for e in ((i, j), (i, k), (j, k))}
    extra = draw(st.lists(st.sampled_from(list(itertools.combinations(range(V), 2)) or [None]), unique=True))
    edges = draw(st.permutations(sorted(needed | {e for e in extra if e is not None})))
    edges = [list(e[::-1]) if draw(st.booleans()) else list(e) for e in edges]
    tris = [list(draw(st.permutations(t))) for t in draw(st.permutations(tris))]
    if draw(st.booleans()):  # integral floats take the per-cell path
        for cell in edges + tris:
            cell[0] = float(cell[0])
    return {"vertices": V, "edges": edges, "triangles": tris, "base": draw(st.integers(0, V - 1))}


def _parse_complex(doc, numpy_pass: bool):
    """``complex_from_obj(doc)``, with every complex sent to the numpy pass
    first or every one to the per-cell loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "_LOOP_CELLS", -1 if numpy_pass else math.inf)
        return complex_from_obj(doc)


STORED = ("_edge_array", "_keys", "_tri_array", "_tri_cols")


@PROPERTY
@given(doc=subcomplexes(), group=st.sampled_from(GROUPS), data=st.data())
def test_complexes_and_fields_parse_as_cell_by_cell(doc, group, data):
    K, L = _parse_complex(doc, True), _parse_complex(doc, False)
    for name in STORED:
        a, b = getattr(K, name), getattr(L, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable
    E, T, cols, parents = _reference_complex(doc["vertices"], doc["edges"], doc["triangles"], doc["base"])
    assert K.edges == tuple(E) and K.triangles == tuple(T)
    assert K._tri_cols.tolist() == (cols or [])
    assert K._parents == parents
    # field keys in both orientations, through the document and the constructor
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    values = [group.haar_sample(rng) if group.compact else math.exp(rng.normal()) for _ in E]
    flips = [data.draw(st.booleans()) for _ in E]
    keys = [(j, i) if flip else (i, j) for (i, j), flip in zip(E, flips)]
    order = data.draw(st.permutations(range(len(E))))
    tail = group.to_array([group.identity]).shape[1:]
    stored = [group.inverse(v) if flip else group.check(v) for v, flip in zip(values, flips)]
    expected = group.to_array(stored).reshape((len(E),) + tail)
    fobj = {"group": group.tag, "values": {"%d-%d" % keys[c]: group.checked_to_obj(values[c]) for c in order}}
    if data.draw(st.booleans()):  # integral floats are vertices in keys too
        keys = [(float(i), j) for i, j in keys]
    for F in (field_from_obj(fobj), EdgeField(group, {keys[c]: values[c] for c in order})):
        assert F.edges() == tuple(E)
        assert F._carriers.dtype == expected.dtype and F._carriers.tobytes() == expected.tobytes()
        assert _edge_carriers(K, F).tobytes() == expected.tobytes()


_EDGES3 = [[0, 1], [0, 2], [1, 2]]
_U = {"theta": 0.1}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": 3, "edges": [[0, 1], [0, 2], [0, 1]]}, "duplicate edge (0, 1)"),
        ({"vertices": 3, "edges": [[0, 1], [1, 0]]}, "duplicate edge (0, 1)"),
        ({"vertices": 3, "edges": [[0, 1], [0, 1.0]]}, "duplicate edge (0, 1)"),
        ({"vertices": 3, "edges": [[0, 1], [1, 3]]}, "bad edge (1,3)"),
        ({"vertices": 3, "edges": [[-1, 0]]}, "bad edge (-1,0)"),
        ({"vertices": 3, "edges": [[0, 1], [2, 2]]}, "bad edge (2,2)"),
        ({"vertices": 3, "edges": [[2, 2], [0, 1], [0, 1]]}, "bad edge (2,2)"),
        ({"vertices": 3, "edges": [[0, 1], [0, True]]}, "bad edge [0, True]: expected 2 integer vertices"),
        ({"vertices": 3, "edges": [[0, 1.5], [1, 1]]}, "bad edge [0, 1.5]: expected 2 integer vertices"),
        ({"vertices": 3, "edges": [[0, 1], [0, 1, 2]]}, "bad edge [0, 1, 2]: expected 2 integer vertices"),
        ({"vertices": 3, "edges": [[0, 1], 5]}, "'int' object is not iterable"),
        ({"vertices": 3, "edges": 7}, "'int' object is not iterable"),
        ({"vertices": 3, "edges": _EDGES3, "triangles": [[0, 1, 1]]}, "degenerate triangle (0, 1, 1)"),
        ({"vertices": 3, "edges": _EDGES3, "triangles": [[0, 1, 2], [2, 1, 0]]}, "duplicate triangle (0,1,2)"),
        ({"vertices": 3, "edges": [[0, 1], [1, 2]], "triangles": [[0, 1, 2]]}, "triangle (0,1,2) missing edge (0,2)"),
        ({"vertices": 3, "edges": _EDGES3, "triangles": [[0, 1, 5]]}, "triangle (0,1,5) missing edge (0,5)"),
        ({"vertices": 3, "edges": _EDGES3, "triangles": [[0, 1, 2.5]]}, "bad triangle [0, 1, 2.5]: expected 3 integer vertices"),
        ({"vertices": 3, "edges": _EDGES3, "triangles": [[0, 1, 2], [0, 1]]}, "bad triangle [0, 1]: expected 3 integer vertices"),
        ({"vertices": 3, "edges": [[0, 1], [1, 1]], "triangles": [[0, 0, 1]]}, "bad edge (1,1)"),  # edges first
        ({"vertices": 3, "edges": _EDGES3 + [[0, 2]], "triangles": 7}, "duplicate edge (0, 2)"),
    ],
)
@pytest.mark.parametrize("numpy_pass", [True, False], ids=["numpy", "loop"])
def test_bad_complexes_name_their_first_bad_cell(doc, message, numpy_pass):
    with pytest.raises(ParseError) as err:
        _parse_complex(doc, numpy_pass)
    assert str(err.value) == f"bad complex document: {message}"


@pytest.mark.parametrize(
    "values, message",
    [
        ({"0-1": _U, "ab": _U}, "bad edge key 'ab'; expected 'i-j'"),
        ({"0-1": _U, "0-1-2": _U}, "bad edge key '0-1-2'; expected 'i-j'"),
        ({"0-1-2": _U, "3": _U}, "bad edge key '0-1-2'; expected 'i-j'"),  # as many '-' as two good keys
        ({"0-1": _U, "0-": _U}, "bad edge key '0-'; expected 'i-j'"),
        ({"0-1": _U, "-1-2": _U}, "bad edge key '-1-2'; expected 'i-j'"),
        ({"0-1": _U, "1.5-2": _U}, "bad edge key '1.5-2'; expected 'i-j'"),
        ({"0-1": _U, f"0-{2**63}": _U}, f"bad edge key '0-{2**63}'; vertices must fit in 64 bits"),
        ({"0-1": _U, "1-0": _U}, "duplicate value for edge (0, 1)"),
        # the same edge spelled twice, the second read by the key loop: 19 digits are beyond the numpy pass
        ({"0-1": _U, "0-2": _U, "0000000000000000000-1": _U}, "duplicate value for edge (0, 1)"),
        ({"0-1": _U, "1-1": _U}, "self-edge (1,1) has no holonomy"),
        ({"2-2": _U, "0-1": _U, "1-0": _U}, "self-edge (2,2) has no holonomy"),
        ({"0-1": _U, "1-0": _U, "2-2": _U}, "duplicate value for edge (0, 1)"),
        ({"0-1": _U, "00-1": _U}, "duplicate value for edge (0, 1)"),  # both read by the numpy pass
    ],
)
def test_bad_field_keys_are_named(values, message):
    with pytest.raises(ParseError) as err:
        field_from_obj({"group": "u1", "values": values})
    assert str(err.value) == message


def test_digit_keys_are_read_in_one_numpy_pass_as_the_key_loop_reads_them():
    big = "9" * 18  # the most digits a vertex of the numpy pass may have: 10**18 - 1 fits in int64
    keys = ["0-1", "002-0", "000000000000000007-3", f"{big}-0", f"1-{big}", f"{big}-{big[:-1]}8", "10-0009"]
    assert serialize._DIGIT_KEYS.fullmatch(",".join(keys))
    ends = serialize._edge_keys(keys)
    assert ends.dtype == np.int64
    assert ends.tolist() == [list(serialize._edge_key(key)) for key in keys]
    assert ends.tolist()[3] == [10**18 - 1, 0]


@pytest.mark.parametrize(
    "key, edge",
    [
        ("1000000000000000000-1", (10**18, 1)),  # 19 digits, inside int64
    ],
)
def test_keys_beside_the_numpy_pass_keep_their_reading(key, edge):
    assert not serialize._DIGIT_KEYS.fullmatch(key)
    for keys in ([key], ["3-4", key], [key, "3-4"]):
        assert serialize._edge_keys(keys).tolist() == [list(edge) if k == key else [3, 4] for k in keys]
    F = field_from_obj({"group": "u1", "values": {"3-4": _U, key: {"theta": 0.2}}})
    assert F.value(*edge) == 0.2 and F.value(3, 4) == 0.1


@pytest.mark.parametrize(
    "key, message",
    [
        ("9999999999999999999-1", "vertices must fit in 64 bits"),  # 19 digits, beyond int64
        ("1-2,0-2", "expected 'i-j'"),  # joined with the others, its comma reads as two keys
        ("", "expected 'i-j'"),
        # ASCII digits only: Python's int would read each of these as a vertex
        ("١-٢", "expected 'i-j'"),
        ("+1-2", "expected 'i-j'"),
        (" 1-2", "expected 'i-j'"),
        ("1_0-2", "expected 'i-j'"),
    ],
)
def test_keys_beside_the_numpy_pass_keep_their_refusal(key, message):
    for values in ({key: _U}, {"3-4": _U, key: _U}, {key: _U, "3-4": _U}, {"0-1": _U, key: _U, "0-2": _U}):
        with pytest.raises(ParseError) as err:
            field_from_obj({"group": "u1", "values": values})
        assert str(err.value) == f"bad edge key {key!r}; {message}"


@pytest.mark.parametrize("key", [(0, 1.7), (True, 2), (0, "1"), (0, 1, 2), (0,), 5, (0, 2**63), (0, math.nan)])
def test_edge_field_keys_must_be_integer_pairs(key):
    with pytest.raises(ValueError) as err:
        EdgeField(U1, {(0, 1): 0.3, key: 0.1})
    assert str(err.value) == f"bad edge key {key!r}: expected two integer vertices"


def test_edge_field_keys_read_integral_floats_and_numpy_integers():
    F = EdgeField(U1, {(0, 1.0): 0.3, (np.int64(2), 1): 0.1})
    assert F.edges() == ((0, 1), (1, 2)) and all(type(v) is int for e in F.edges() for v in e)
    assert F.value(1, 2) == U1.inverse(0.1)


def test_fields_bind_by_edge_key():
    K = full_simplex(2)
    extra = EdgeField(U1, {(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.3, (2, 7): 0.4, (-1, 0): 0.5})
    assert holonomy_pc_matrix(K, extra) == holonomy_pc_matrix(K, EdgeField(U1, {(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.3}))
    with pytest.raises(MissingEdgeError, match="no field value on edge 0-2"):  # the first missing, in K.edges order
        holonomy_pc_matrix(K, EdgeField(U1, {(0, 1): 0.1, (2, 3): 0.4}))


curvature_columns = st.integers(0, 5).flatmap(
    lambda R: st.tuples(
        st.lists(json_floats, min_size=R, max_size=R),
        st.lists(st.lists(st.integers(-(2**62), 2**62), min_size=3, max_size=3), min_size=R, max_size=R),
    )
)


@WRITER_PROPERTY
@given(columns=curvature_columns, depth=st.integers(0, 3))
def test_records_are_written_as_their_dicts(columns, depth):
    values, triangles = columns
    records = Records(in_value=np.array(values, dtype=float), triangle=np.array(triangles, dtype=np.int64).reshape(-1, 3))
    plain = [{"in_value": float(v), "triangle": t} for v, t in zip(values, triangles)]
    assert json_text({"curvatures": records, "n": 1}) == _dumps({"curvatures": plain, "n": 1})
    assert json_text(_nest(records, depth)) == _dumps(_nest(plain, depth))


def _nest(x, depth):
    for _ in range(depth):
        x = {"a": [x]}
    return x


# --- float text, once per magnitude ---------------------------------------------

# where repr switches between fixed and exponent form (1e-4 / 1e16), subnormals and the extremes
EDGE_MAGNITUDES = [0.0, 5e-324, 2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308, math.pi]
EDGE_MAGNITUDES += [x * f for x in (1e-5, 1e-4, 1e16) for f in (1.0 - 2**-52, 1.0, 1.0 + 2**-52)]
magnitudes = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_MAGNITUDES),
    st.floats(1e-6, 1e-3),
    st.floats(1e15, 1e17),
)


@WRITER_PROPERTY
@given(
    pool=st.lists(magnitudes, min_size=1, max_size=40),
    shape=st.tuples(st.integers(1, 3 * serialize._FORMAT_ONCE), st.sampled_from([1, 4])),
    seed=st.integers(0, 2**32 - 1),
    special=st.sampled_from([None, math.nan, math.inf, -math.inf]),
)
def test_float_text_once_per_magnitude_is_repr(pool, shape, seed, special):
    # each scalar is a pooled magnitude with either sign, so most repeat up to sign
    rng = np.random.default_rng(seed)
    C = np.array(pool)[rng.integers(0, len(pool), shape)] * rng.choice([-1.0, 1.0], shape)
    if special is not None:
        C[rng.integers(0, shape[0]), rng.integers(0, shape[1])] = special
    expected = [json.dumps(x) for x in C.ravel().tolist()]  # repr, or json's name of inf and nan
    for once in (False, True):
        texts = serialize._scalar_texts(C, once)
        assert texts.shape == C.shape and texts.ravel().tolist() == expected


@pytest.mark.parametrize("group", [RPLUS, U1, Z7], ids=lambda g: g.tag)
@WRITER_PROPERTY
@given(
    pool=st.lists(magnitudes, min_size=1, max_size=40),
    size=st.one_of(st.integers(0, 12), st.integers(serialize._FORMAT_ONCE - 2, 3 * serialize._FORMAT_ONCE)),
    seed=st.integers(0, 2**32 - 1),
    special=st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0]),
)
def test_one_slot_lists_are_written_as_json_dumps(group, pool, size, seed, special):
    # a gap-free list of one-slot elements (a gauge, a matrix's entries) is
    # one join of the slot texts, below and above _FORMAT_ONCE scalars, with
    # json's names of nan and +-inf and the sign of -0.0
    rng = np.random.default_rng(seed)
    if group is Z7:
        C = rng.integers(-(2**62), 2**62, size) if pool[0] > 1.0 else rng.integers(0, 7, size)
    else:
        C = np.array(pool)[rng.integers(0, len(pool), size)] * rng.choice([-1.0, 1.0], size)
        if special is not None and size:
            C[rng.integers(0, size)] = special
    objs = [group.checked_to_obj(v) for v in C.tolist()]
    assert json_text(Carriers(group, C)) == _dumps(objs)
    assert json_text({"lambda": Carriers(group, C), "z": [Carriers(group, C)]}) == _dumps({"lambda": objs, "z": [objs]})
    n = math.isqrt(size)
    if n >= 2:  # the first n * n as a gap-free matrix's entries
        A = PCMatrix._of_checked(group, n, C[: n * n], np.arange(n * n), CONTRAVARIANT)
        doc = {"group": group.tag, "n": n, "variance": CONTRAVARIANT, "entries": objs[: n * n]}
        assert json_text({"matrix": A}) == _dumps({"matrix": doc})


@pytest.mark.parametrize("n", [3, 10, 11, 16])  # 9 and 100 scalars go plain, 121 and 256 once per magnitude
@WRITER_PROPERTY
@given(pool=st.lists(magnitudes.filter(lambda x: x <= math.pi), min_size=1), seed=st.integers(0, 2**32 - 1))
def test_matrices_through_the_magnitude_gate(n, pool, seed):
    # u1 inverses are negated angles: the mirrored entries share magnitudes
    rng = np.random.default_rng(seed)
    size = n * (n - 1) // 2
    A = from_upper_triangle(U1, (np.array(pool)[rng.integers(0, len(pool), size)] * rng.choice([-1.0, 1.0], size)).tolist())
    assert json_text({"matrix": A}) == _dumps({"matrix": matrix_to_obj(A)})
    B = random_pc_matrix(SU2, n, rng)
    assert json_text(B) == _dumps(matrix_to_obj(B))


def test_holonomy_report_formats_each_magnitude_once(tmp_path, capsys, monkeypatch):
    # the su2 matrix of grid_complex(3): 82 entries, 328 scalars; h_ji is the
    # conjugate of h_ij and the diagonal is the identity, so about 134 magnitudes
    K = grid_complex(3)
    save_obj(complex_to_obj(K), tmp_path / "k.json")
    save_obj(field_to_obj(_field(SU2, K, np.random.default_rng(81))), tmp_path / "f.json")
    formatted = []
    monkeypatch.setattr(serialize, "repr", lambda x: formatted.append(x) or repr(x), raising=False)
    assert main(["holonomy", str(tmp_path / "k.json"), str(tmp_path / "f.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    floats = [x for x in formatted if isinstance(x, float)]
    scalars = [x for e in report["matrix"]["entries"] if e is not None for x in e["q"]]
    distinct = {abs(x) for x in scalars} | {abs(c["in_value"]) for c in report["curvatures"]}
    assert len(scalars) == 328 and len(floats) == len(distinct) < len(scalars) / 2
