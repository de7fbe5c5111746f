import collections
import json
import math

import numpy as np
import pytest

from holopc.cli import main
from holopc.groups import SU2, U1, UnitQuaternions
from holopc.pcmatrix import default_indicator, from_upper_triangle, random_pc_matrix
from holopc.serialize import complex_to_obj, field_to_obj, save_matrix, save_obj
from holopc.simplicial import EdgeField, full_simplex, grid_complex, identity_field, triangle_curvature


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- check ---------------------------------------------------------------------


def test_check_identity_csv(tmp_path, capsys):
    path = write_csv(tmp_path, "id.csv", "1,1,1\n1,1,1\n1,1,1\n")
    code, out, _ = run(capsys, ["check", path])
    report = json.loads(out)
    assert code == 0
    assert report["valid"] and report["consistent"]
    assert report["ii3"] == 0.0 and report["ii_n"] == 0.0 and report["ii_In"] == 0.0
    assert report["within_epsilon"] is True


def test_check_inconsistent_csv(tmp_path, capsys):
    path = write_csv(tmp_path, "m.csv", "1,2,4\n0.5,1,4\n0.25,0.25,1\n")
    code, out, _ = run(capsys, ["check", path])
    report = json.loads(out)
    assert code == 1
    assert report["valid"] is True
    assert report["consistent"] is False
    assert report["ii3"] == pytest.approx(0.5)
    assert report["worst_triad"] == [0, 1, 2]
    assert report["witness"] == [0, 1, 2]
    assert report["ii_In"] == pytest.approx(math.log(2.0))
    assert report["within_epsilon"] is False  # ii3 = 0.5 > 1/3


def test_check_negative_entry_exits_2(tmp_path, capsys):
    path = write_csv(tmp_path, "bad.csv", "1,2\n-0.5,1\n")
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert "positive" in err


def test_check_invalid_reciprocity_exits_2(tmp_path, capsys):
    path = write_csv(tmp_path, "recip.csv", "1,2\n0.4,1\n")
    code, out, _ = run(capsys, ["check", path])
    report = json.loads(out)
    assert code == 2
    assert report["valid"] is False
    assert report["violations"] == [[1, 0, "reciprocity"]]


def test_check_json_matrix(tmp_path, capsys):
    A = random_pc_matrix(U1, 4, rng=80)
    path = tmp_path / "u1.json"
    save_matrix(A, path)
    code, out, _ = run(capsys, ["check", str(path)])
    report = json.loads(out)
    assert code in (0, 1)
    assert report["group"] == "u1"
    assert report["ii3"] is None


def test_check_group_mismatch_flag(tmp_path, capsys):
    A = random_pc_matrix(U1, 3, rng=81)
    path = tmp_path / "u1.json"
    save_matrix(A, path)
    code, _, err = run(capsys, ["check", str(path), "--group", "su2"])
    assert code == 2
    assert "u1" in err


def test_check_parse_error_reports_location(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["check", str(p)])
    assert code == 2
    assert "line" in err


# --- consistencize -----------------------------------------------------------------


def test_consistencize_abelian_golden(tmp_path, capsys):
    path = write_csv(tmp_path, "m.csv", "1,2,8\n0.5,1,2\n0.125,0.5,1\n")
    out_path = tmp_path / "c.csv"
    code, out, _ = run(
        capsys, ["consistencize", path, "--method", "abelian", "--out", str(out_path)]
    )
    report = json.loads(out)
    assert code == 0
    entries = report["matrix"]["entries"]
    assert entries[1] == pytest.approx(16 ** (1 / 3))
    assert entries[2] == pytest.approx(16 ** (2 / 3))
    assert report["ii_after"] < 1e-12
    assert report["iterations"] == 0
    # written file re-ingests cleanly and consistently
    code2, out2, _ = run(capsys, ["check", str(out_path)])
    assert code2 == 0


def test_consistencize_consistent_input(tmp_path, capsys):
    path = write_csv(tmp_path, "m.csv", "1,2,4\n0.5,1,2\n0.25,0.5,1\n")
    code, out, _ = run(capsys, ["consistencize", path, "--method", "abelian"])
    report = json.loads(out)
    assert code == 0
    assert report["residual"] < 1e-20


def test_consistencize_abelian_rejects_su2(tmp_path, capsys):
    A = random_pc_matrix(SU2, 3, rng=82)
    path = tmp_path / "q.json"
    save_matrix(A, path)
    code, _, err = run(capsys, ["consistencize", str(path), "--method", "abelian"])
    assert code == 2
    assert "rplus or u1" in err


def test_consistencize_riemannian_su2(tmp_path, capsys):
    A = random_pc_matrix(SU2, 4, rng=83)
    path = tmp_path / "q.json"
    save_matrix(A, path)
    code, out, _ = run(capsys, ["consistencize", str(path), "--method", "riemannian"])
    report = json.loads(out)
    assert code == 0
    assert report["ii_after"] <= report["ii_before"]
    assert report["status"] in ("converged", "max_iter reached")


# --- holonomy -----------------------------------------------------------------------


def test_holonomy_identity_field(tmp_path, capsys):
    K = full_simplex(3)
    cpath, fpath = tmp_path / "k.json", tmp_path / "f.json"
    save_obj(complex_to_obj(K), cpath)
    save_obj(field_to_obj(identity_field(K, U1)), fpath)
    code, out, _ = run(capsys, ["holonomy", str(cpath), str(fpath)])
    report = json.loads(out)
    assert code == 0
    assert report["global_ii"] == 0.0
    assert all(c["in_value"] == 0.0 for c in report["curvatures"])
    assert report["matrix"]["variance"] == "contravariant"


def test_holonomy_single_triangle(tmp_path, capsys):
    K = full_simplex(2)
    F = EdgeField(U1, {(0, 1): 0.3, (1, 2): 0.5, (0, 2): 0.1})
    cpath, fpath = tmp_path / "k.json", tmp_path / "f.json"
    save_obj(complex_to_obj(K), cpath)
    save_obj(field_to_obj(F), fpath)
    code, out, _ = run(capsys, ["holonomy", str(cpath), str(fpath)])
    report = json.loads(out)
    assert code == 0
    assert report["global_ii"] == pytest.approx(0.7)
    assert report["worst_triangle"] == [0, 1, 2]


def test_holonomy_missing_edge_named(tmp_path, capsys):
    K = full_simplex(2)
    cpath, fpath = tmp_path / "k.json", tmp_path / "f.json"
    save_obj(complex_to_obj(K), cpath)
    save_obj({"group": "u1", "values": {"0-1": {"theta": 0.3}, "1-2": {"theta": 0.5}}}, fpath)
    code, _, err = run(capsys, ["holonomy", str(cpath), str(fpath)])
    assert code == 2
    assert "0-2" in err


def test_holonomy_gapped_matrix_roundtrip(tmp_path, capsys):
    # grid complex: the matrix has gaps; report still validates
    from holopc.simplicial import grid_complex

    K = grid_complex(2)
    rng = np.random.default_rng(84)
    F = EdgeField(U1, {e: U1.haar_sample(rng) for e in K.edges})
    cpath, fpath = tmp_path / "k.json", tmp_path / "f.json"
    save_obj(complex_to_obj(K), cpath)
    save_obj(field_to_obj(F), fpath)
    code, out, _ = run(capsys, ["holonomy", str(cpath), str(fpath)])
    report = json.loads(out)
    assert code == 0
    assert report["matrix"]["entries"].count(None) > 0


def test_holonomy_curvatures_match_global_ii(tmp_path, capsys):
    # listed values are plaquette scores; basing the loop only conjugates it
    K = grid_complex(3)
    rng = np.random.default_rng(85)
    F = EdgeField(SU2, {e: SU2.haar_sample(rng) for e in K.edges})
    cpath, fpath = tmp_path / "k.json", tmp_path / "f.json"
    save_obj(complex_to_obj(K), cpath)
    save_obj(field_to_obj(F), fpath)
    code, out, _ = run(capsys, ["holonomy", str(cpath), str(fpath)])
    report = json.loads(out)
    assert code == 0
    values = [c["in_value"] for c in report["curvatures"]]
    assert report["global_ii"] == max(values)
    ind = default_indicator(SU2)
    for c in report["curvatures"]:
        assert abs(c["in_value"] - ind(triangle_curvature(K, F, c["triangle"]))) < 1e-12


def test_holonomy_checks_each_field_value_once(tmp_path, capsys, monkeypatch):
    # parsing checks each edge value; the matrix, the curvatures and
    # global_ii run on the batched kernels and call no element method
    K = grid_complex(3)
    rng = np.random.default_rng(86)
    F = EdgeField(SU2, {e: SU2.haar_sample(rng) for e in K.edges})
    cpath, fpath = tmp_path / "k.json", tmp_path / "f.json"
    save_obj(complex_to_obj(K), cpath)
    save_obj(field_to_obj(F), fpath)
    calls = collections.Counter()
    for name in ("check", "multiply", "inverse", "distance"):
        method = getattr(UnitQuaternions, name)
        counted = lambda self, *a, _name=name, _method=method: calls.update([_name]) or _method(self, *a)  # noqa: E731
        monkeypatch.setattr(UnitQuaternions, name, counted)
    code, _, _ = run(capsys, ["holonomy", str(cpath), str(fpath)])
    assert code == 0
    assert dict(calls) == {"check": len(K.edges)}


# --- montecarlo ----------------------------------------------------------------------


def test_montecarlo_u1_triangle(tmp_path, capsys):
    K = full_simplex(2)
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(K), cpath)
    code, out, _ = run(
        capsys,
        ["montecarlo", "--complex", str(cpath), "--group", "u1", "-N", "2000", "--seed", "7"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["observable"] == "mean_curvature_In"
    assert abs(report["mean"] - math.pi / 2) < 3 * report["std_error"]
    assert report["histogram"] is None


def test_montecarlo_seed_reproducible(tmp_path, capsys):
    K = full_simplex(2)
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(K), cpath)
    argv = ["montecarlo", "--complex", str(cpath), "--group", "su2", "-N", "500", "--seed", "3"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_montecarlo_rplus_rejected(tmp_path, capsys):
    K = full_simplex(2)
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(K), cpath)
    code, _, err = run(capsys, ["montecarlo", "--complex", str(cpath), "--group", "rplus"])
    assert code == 2
    assert "Haar" in err


def test_montecarlo_random_pc_histogram(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["montecarlo", "--random-pc", "3", "--group", "zmod:2", "-N", "400", "--seed", "1"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["observable"] == "ii3_of_random_matrix"
    assert sum(report["histogram"]["counts"]) == 400


def test_montecarlo_histogram_csv(tmp_path, capsys):
    hist_path = tmp_path / "h.csv"
    code, out, _ = run(
        capsys,
        [
            "montecarlo", "--random-pc", "3", "--group", "u1", "-N", "300",
            "--seed", "2", "--format", "csv", "--out", str(hist_path),
        ],
    )
    assert code == 0
    lines = hist_path.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 65
    assert sum(int(ln.split(",")[2]) for ln in lines[1:]) == 300


def test_montecarlo_wilson_loop(tmp_path, capsys):
    K = full_simplex(2)
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(K), cpath)
    code, out, _ = run(
        capsys,
        [
            "montecarlo", "--complex", str(cpath), "--group", "u1",
            "--observable", "wilson_character", "--loop", "0", "1", "2", "0",
            "-N", "2000", "--seed", "9",
        ],
    )
    report = json.loads(out)
    assert code == 0
    assert abs(report["mean"]) < 3 * report["std_error"]


def test_montecarlo_unknown_observable(tmp_path, capsys):
    K = full_simplex(2)
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(K), cpath)
    code, _, err = run(
        capsys,
        ["montecarlo", "--complex", str(cpath), "--group", "u1", "--observable", "nope"],
    )
    assert code == 2
    assert "unknown observable" in err
