import numpy as np
import pytest

from holopc.errors import ParseError
from holopc.groups import RPLUS, SU2, U1, CircleGroup, zmod
from holopc.pcmatrix import from_upper_triangle, random_pc_matrix
from holopc.serialize import (
    complex_from_obj,
    complex_to_obj,
    field_from_obj,
    field_to_obj,
    load_json,
    load_matrix,
    matrix_from_csv,
    matrix_from_obj,
    matrix_to_csv,
    matrix_to_obj,
    save_matrix,
)
from holopc.simplicial import EdgeField, full_simplex, grid_complex, identity_field


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
    checked = []
    check = CircleGroup.check
    monkeypatch.setattr(CircleGroup, "check", lambda self, a: checked.append(a) or check(self, a))
    obj, fobj = matrix_to_obj(A), field_to_obj(F)
    assert checked == []  # stored carriers are written as they are
    assert matrix_from_obj(obj) == A
    assert len(checked) == 25
    del checked[:]
    assert field_from_obj(fobj).items() == F.items()
    assert len(checked) == 3


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
