import collections
import json
import math

import numpy as np
import pytest

from holopc.cli import main
from holopc.groups import SU2, U1, CircleGroup, CyclicGroup, Group, PositiveReals, UnitQuaternions, wrap_angle
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


# --- no CLI path runs the element group law ----------------------------------------

ELEMENT_LAW = ("multiply", "inverse", "distance", "log_coords", "exp_coords")
GROUP_CLASSES = (PositiveReals, CircleGroup, UnitQuaternions, CyclicGroup)


def _matrix_file(tmp_path, A):
    path = tmp_path / "m.json"
    save_matrix(A, path)
    return str(path)


def _complex_file(tmp_path, K):
    path = tmp_path / "k.json"
    save_obj(complex_to_obj(K), path)
    return str(path)


def _u1_winding_matrix():
    # full-circle gauges: the principal-branch projection misses a winding,
    # so consistencize_abelian falls back to Gauss-Newton
    rng = np.random.default_rng(0)
    lam = rng.uniform(-math.pi, math.pi, 5)
    return from_upper_triangle(
        U1, [wrap_angle(lam[j] - lam[i] + 0.5 * rng.normal()) for i in range(5) for j in range(i + 1, 5)]
    )


def _holonomy_files(tmp_path):
    K = grid_complex(3)
    rng = np.random.default_rng(86)
    fpath = tmp_path / "f.json"
    save_obj(field_to_obj(EdgeField(SU2, {e: SU2.haar_sample(rng) for e in K.edges})), fpath)
    return [_complex_file(tmp_path, K), str(fpath)]


MONTECARLO = ["montecarlo", "-N", "1500", "--seed", "4"]

# (argv from a tmp_path, carrier checks the call makes): each value read from
# a file is checked once, and nothing after parsing checks again
CLI_CALLS = {
    "check-rplus-csv": (lambda t: ["check", write_csv(t, "m.csv", "1,2,4\n0.5,1,4\n0.25,0.25,1\n")], 9),
    "check-u1": (lambda t: ["check", _matrix_file(t, random_pc_matrix(U1, 5, rng=87))], 25),
    "check-su2": (lambda t: ["check", _matrix_file(t, random_pc_matrix(SU2, 6, rng=88))], 36),
    "consistencize-abelian-rplus": (
        lambda t: ["consistencize", write_csv(t, "m.csv", "1,2,8\n0.5,1,2\n0.125,0.5,1\n"), "--method", "abelian"],
        9,
    ),
    "consistencize-abelian-u1-winding": (
        lambda t: ["consistencize", _matrix_file(t, _u1_winding_matrix()), "--method", "abelian"],
        25,
    ),
    "consistencize-riemannian-su2": (
        lambda t: ["consistencize", _matrix_file(t, random_pc_matrix(SU2, 5, rng=89)), "--method", "riemannian"],
        25,
    ),
    "holonomy-su2": (lambda t: ["holonomy", *_holonomy_files(t)], len(grid_complex(3).edges)),
    "montecarlo-mean-curvature-su2": (
        lambda t: [*MONTECARLO, "--complex", _complex_file(t, full_simplex(3)), "--group", "su2"],
        0,
    ),
    "montecarlo-sup-curvature-u1": (
        lambda t: [
            *MONTECARLO, "--complex", _complex_file(t, full_simplex(3)), "--group", "u1",
            "--observable", "sup_curvature_In",
        ],
        0,
    ),
    "montecarlo-wilson-su2": (
        lambda t: [
            *MONTECARLO, "--complex", _complex_file(t, full_simplex(3)), "--group", "su2",
            "--observable", "wilson_character", "--loop", "0", "2", "1", "3", "0",
        ],
        0,
    ),
    "montecarlo-random-pc-u1": (lambda t: [*MONTECARLO, "--random-pc", "4", "--group", "u1"], 0),
}


def test_group_law_is_defined_once_on_group():
    for cls in GROUP_CLASSES:
        assert not set(ELEMENT_LAW) & set(vars(cls)), cls


@pytest.mark.parametrize("name", CLI_CALLS)
def test_cli_calls_no_element_group_law(name, tmp_path, capsys, monkeypatch):
    build, checks = CLI_CALLS[name]
    argv = build(tmp_path)
    calls = collections.Counter()

    def count(owner, method_name):
        method = getattr(owner, method_name)
        counted = lambda self, *a, _method=method: calls.update([method_name]) or _method(self, *a)  # noqa: E731
        monkeypatch.setattr(owner, method_name, counted)

    for method_name in ELEMENT_LAW:
        count(Group, method_name)
    for cls in GROUP_CLASSES:
        count(cls, "check")
    code, out, _ = run(capsys, argv)
    assert code in (0, 1)
    assert dict(calls) == ({"check": checks} if checks else {})
    if name == "consistencize-abelian-u1-winding":
        assert json.loads(out)["iterations"] > 0  # the Gauss-Newton refinement was returned


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
