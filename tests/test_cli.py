import argparse
import collections
import gc
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from holopc import cli, integrate, pcmatrix, simplicial
from holopc.cli import build_parser, main
from holopc.groups import (
    RPLUS,
    SU2,
    U1,
    CircleGroup,
    CyclicGroup,
    Group,
    PositiveReals,
    UnitQuaternions,
    wrap_angle,
    zmod,
)
from holopc.pcmatrix import (
    _KEY_BLOCK,
    _TRIAD_BLOCK,
    PCMatrix,
    default_indicator,
    from_gauge_vector,
    from_upper_triangle,
    ii3_matrix,
    ii_indicator,
    is_consistent,
    random_pc_matrix,
)
from holopc.serialize import complex_to_obj, field_to_obj, load_matrix, save_matrix, save_obj
from holopc.simplicial import (
    EdgeField,
    SimplicialComplex2,
    full_simplex,
    grid_complex,
    identity_field,
    triangle_curvature,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- parsing ---------------------------------------------------------------------

PARSE_EXITS = {  # argv that argparse answers itself, with help or a usage error
    "none": [],
    "help": ["-h"],
    "misspelled": ["chek"],
    **{
        f"{command}-{case}": [command, *argv]
        for command, cases in {
            "check": {
                "help": ["-h"],
                "missing-positional": [],
                "unrecognized": ["m.csv", "--bogus"],
                "bad-format": ["m.csv", "--format", "xml"],
                "abbreviated-bad-format": ["m.csv", "--form", "xml"],
                "double-dash-only": ["--"],
                "double-dash-extra": ["m.csv", "--", "extra"],
            },
            "consistencize": {
                "help": ["-h"],
                "missing-positional": ["--method", "abelian"],
                "unrecognized": ["m.csv", "--method", "abelian", "--bogus"],
                "bad-format": ["m.csv", "--method", "abelian", "--format", "xml"],
                "ambiguous-abbreviation": ["m.csv", "--m", "abelian"],  # --method or --max-iter
                "abbreviated-bad-method": ["m.csv", "--meth", "newton"],
            },
            "holonomy": {
                "help": ["-h"],
                "missing-positional": ["k.json"],
                "unrecognized": ["k.json", "f.json", "--bogus"],
                "bad-format": ["k.json", "f.json", "--format", "xml"],  # no --format: unrecognized
                "double-dash-extra": ["k.json", "f.json", "--", "g.json"],
            },
            "montecarlo": {
                "help": ["-h"],
                "missing-required": ["--random-pc", "3"],
                "unrecognized": ["--random-pc", "3", "--group", "u1", "--bogus"],
                "bad-format": ["--random-pc", "3", "--group", "u1", "--format", "xml"],
                "complex-and-random-pc": ["--complex", "k.json", "--random-pc", "3", "--group", "u1"],
                "abbreviated-help": ["--he"],
                "abbreviated-complex-and-random-pc": ["--comp", "k.json", "--rand", "3", "--group", "u1"],
                "double-dash-unrecognized": ["--random-pc", "3", "--group", "u1", "--", "x"],
            },
        }.items()
        for case, argv in cases.items()
    },
}


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", PARSE_EXITS)
def test_main_parses_as_the_full_parser(name, capsys):
    # main parses with one parser shared by every call; help, usage and
    # errors are those of a new build_parser(), byte for byte
    argv = PARSE_EXITS[name]
    assert _exit(capsys, main, argv) == _exit(capsys, build_parser().parse_args, argv)


VALID_ARGV = {  # one argv per subcommand that parses, with abbreviations, "=" forms and a "--"
    "check": ["check", "m.csv", "--gr", "rplus", "--tol=1e-6", "--eps", "0.5", "--out", "r.json"],
    "consistencize": ["consistencize", "--meth", "riemannian", "--max", "7", "--", "m.csv"],
    "holonomy": ["holonomy", "k.json", "--out", "r.json", "--", "-f.json"],
    "montecarlo": [
        "montecarlo", "--comp", "k.json", "--group=u1", "-N5",
        "--obs", "wilson_character", "--loop", "0", "1", "2", "0",
    ],
    "montecarlo-random-pc": ["montecarlo", "--random-pc=4", "--group", "su2", "-N", "5", "--seed=3", "--format", "csv"],
}


@pytest.mark.parametrize("name", VALID_ARGV)
def test_main_hands_its_command_the_namespace_of_the_full_parse(name, monkeypatch):
    argv = VALID_ARGV[name]
    seen = []

    def capture(args):
        seen.append(args)
        return 0

    for sub in cli._shared_parsers()[1].values():
        monkeypatch.setitem(sub._defaults, "func", capture)
    assert main(argv) == 0
    expected = build_parser().parse_args(argv)
    assert expected.command == argv[0]
    assert seen == [argparse.Namespace(**{**vars(expected), "func": capture})]


def test_main_reads_sys_argv_when_given_no_argv(tmp_path, capsys, monkeypatch):
    m = write_csv(tmp_path, "m.csv", "1,2\n0.5,1\n")
    monkeypatch.setattr(sys, "argv", ["holopc", "check", m])
    assert run(capsys, None) == run(capsys, ["check", m])
    monkeypatch.setattr(sys, "argv", ["holopc", "check", m, "--bogus"])
    assert _exit(capsys, main, None) == _exit(capsys, build_parser().parse_args, None)
    code, out, err = _exit(capsys, main, None)
    assert code == 2 and out == "" and err.startswith("usage: holopc [-h]")
    assert err.endswith("error: unrecognized arguments: --bogus\n")


def test_warm_calls_build_no_parser(tmp_path, capsys, monkeypatch):
    argvs = [
        ["check", write_csv(tmp_path, "m.csv", "1,2\n0.5,1\n")],
        ["montecarlo", "--random-pc", "3", "--group", "u1", "-N", "16"],
    ]
    run(capsys, argvs[0])  # the shared parser exists from here on
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert [run(capsys, argv)[0] for argv in argvs] == [0, 0] and built == []


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "text, extra, expected",
    [
        ("1,2\n0.5,1\n", [], 0),
        ("1,2,1\n0.5,1,2\n1,0.5,1\n", [], 1),
        ("1,nan\n1,1\n", [], 2),  # refused by the command
        ("1,2\n0.5,1\n", ["--bogus"], 2),  # refused by the parser, before the command runs
    ],
    ids=["consistent", "inconsistent", "invalid", "usage"],
)
def test_main_leaves_the_collector_as_it_found_it(collecting, text, extra, expected, tmp_path, capsys, monkeypatch):
    paused = []
    command = cli.cmd_check

    def check(args):
        paused.append(not gc.isenabled())
        return command(args)

    monkeypatch.setitem(cli._shared_parsers()[1]["check"]._defaults, "func", check)
    argv = ["check", write_csv(tmp_path, "m.csv", text), *extra]
    before = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        code, _, _ = _outcome(capsys, main, argv)
        after = gc.isenabled()
    finally:
        gc.enable() if before else gc.disable()
    assert (code, after) == (expected, collecting)
    assert paused == ([] if extra else [True])  # the command itself runs with the collector paused


def test_holonomy_on_a_large_grid_starts_no_collection(tmp_path, capsys):
    # json.loads of the 1,240-edge field builds thousands of containers,
    # which would start collections of the cyclic collector while it is on
    K = grid_complex(20)
    q = np.random.default_rng(26).normal(size=(len(K.edges), 4))
    F = EdgeField(SU2, dict(zip(K.edges, map(tuple, q / np.linalg.norm(q, axis=1, keepdims=True)))))
    cpath, fpath = tmp_path / "k.json", tmp_path / "f.json"
    save_obj(complex_to_obj(K), cpath)
    save_obj(field_to_obj(F), fpath)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    before = gc.isenabled()
    gc.enable()
    gc.collect()  # from an empty youngest generation: the parse before the pause allocates too
    gc.callbacks.append(record)
    try:
        code, out, _ = run(capsys, ["holonomy", str(cpath), str(fpath)])
    finally:
        gc.callbacks.remove(record)
        gc.enable() if before else gc.disable()
    assert code == 0 and json.loads(out)["vertices"] == K.vertices
    assert starts == []


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, returned or raised."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _alone(argv):
    """The exit code of argv parsed by a new parser (no call here reaches
    main's error handling)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def test_calls_in_one_process_carry_no_state(tmp_path, capsys):
    # each call after one that set an option, failed or printed help reads
    # as with a parser of its own: an option left over would change the
    # loop, refuse the u1 matrix as not rplus, or change the format
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(full_simplex(3)), cpath)
    m = write_csv(tmp_path, "m.csv", "1,2\n0.5,1\n")
    u = str(tmp_path / "u.json")
    save_matrix(from_gauge_vector(U1, (0.0, 1.0, 2.0)), u)
    mc = ["montecarlo", "--complex", str(cpath), "--group", "u1", "--observable", "wilson_character", "-N", "64"]
    argvs = [
        [*mc, "--loop", "0", "1", "3", "0"],
        mc,
        ["check", m, "--group", "rplus"],
        ["check", m],
        ["check", u],
        ["check", m, "--format", "xml"],
        ["check", u],
        ["check", "-h"],
        ["check", m],
    ]
    shared = [_outcome(capsys, main, argv) for argv in argvs]
    assert shared == [_outcome(capsys, _alone, argv) for argv in argvs]
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 0, 0, 0]
    assert shared[0][1] != shared[1][1]  # the loops differ, and so do their means


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


def test_within_epsilon_agrees_with_the_reported_ii3(tmp_path, capsys):
    # a tiny defect, where 1 - exp(-ii_In) rounds above -expm1(-ii_In) = ii3
    path = write_csv(tmp_path, "m.csv", "1,3,6.000000000000002\n0.3333333333333333,1,2\n0.16666666666666663,0.5,1\n")
    code, out, _ = run(capsys, ["check", path, "--epsilon", "3.3306690738754696e-16"])
    report = json.loads(out)
    assert code == 0  # consistent within the default tol
    assert 0.0 < report["ii3"] < report["epsilon"]
    assert report["within_epsilon"] is True


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


@pytest.mark.parametrize("flag", ["--tol", "--epsilon"])
@pytest.mark.parametrize("value", ["nan", "-1", "-1e-300", "-inf"])
@pytest.mark.parametrize("matrix", ["1,2,4\n0.5,1,4\n0.25,0.25,1\n", "1,2\n0.4,1\n"], ids=["valid", "invalid"])
def test_check_refuses_negative_and_nan_options(flag, value, matrix, tmp_path, capsys):
    path = write_csv(tmp_path, "m.csv", matrix)
    code, out, err = run(capsys, ["check", path, f"{flag}={value}"])
    name = flag[2:]
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} ({flag}) must be a nonnegative number, got ")


def test_check_accepts_zero_and_infinite_options(tmp_path, capsys):
    path = write_csv(tmp_path, "m.csv", "1,2,4\n0.5,1,4\n0.25,0.25,1\n")
    code, out, _ = run(capsys, ["check", path, "--tol", "inf", "--epsilon", "0"])
    report = json.loads(out)
    assert code == 0 and report["consistent"] is True and report["within_epsilon"] is False
    code, out, _ = run(capsys, ["check", path, "--tol", "0", "--epsilon", "inf"])
    report = json.loads(out)
    assert code == 1 and report["consistent"] is False and report["within_epsilon"] is True


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_is_consistent_refuses_negative_and_nan_tol(tol):
    with pytest.raises(ValueError, match=r"tol \(--tol\) must be a nonnegative number"):
        is_consistent(from_upper_triangle(U1, [0.1, 0.2, 0.3]), tol)


def test_check_is_one_triad_sweep(tmp_path, capsys, monkeypatch):
    # the consistency defect is the indicator: one su2 key per key block of
    # triads, then one product for the candidates, and the witness is the worst triad
    calls = collections.Counter()
    for name in ("batch_multiply", "batch_defect_key"):
        kernel = getattr(UnitQuaternions, name)
        monkeypatch.setattr(
            UnitQuaternions, name, lambda G, *a, name=name, kernel=kernel: calls.update([name]) or kernel(G, *a)
        )
    path = _matrix_file(tmp_path, random_pc_matrix(SU2, 30, rng=90))
    calls.clear()
    code, out, _ = run(capsys, ["check", path])
    report = json.loads(out)
    assert code == 1 and report["consistent"] is False
    assert math.comb(30, 3) > _TRIAD_BLOCK
    assert calls["batch_defect_key"] == math.ceil(math.comb(30, 3) / _KEY_BLOCK)
    assert calls["batch_multiply"] == 1
    assert report["witness"] == report["worst_triad"]


@pytest.mark.parametrize("group", [RPLUS, U1, SU2, zmod(7)], ids=lambda g: g.tag)
def test_check_witness_is_worst_triad(group, tmp_path, capsys):
    rng = np.random.default_rng(91)
    for n in (3, 4, 8):
        if group.compact:
            A = random_pc_matrix(group, n, rng)
        else:
            A = from_upper_triangle(group, list(np.exp(rng.normal(size=n * (n - 1) // 2))))
        path = _matrix_file(tmp_path, A)
        code, out, _ = run(capsys, ["check", path])
        report = json.loads(out)
        B = load_matrix(path)  # su2 carriers are normalized again when read
        chk = is_consistent(B)
        assert code == (0 if chk.consistent else 1)
        assert report["worst_triad"] == list(chk.worst_triad)
        assert report["witness"] == (None if chk.consistent else report["worst_triad"])
        assert report["ii_In"] == chk.worst_defect == ii_indicator(B)[0]


@pytest.mark.parametrize(
    "text", ["1,1e300\n1e300,1\n", "1,1e-300\n1e-300,1\n"], ids=["reciprocity-ratio", "reciprocity-ratio-underflow"]
)
def test_check_rplus_beyond_the_float_range_exits_2(text, tmp_path, capsys):
    # a_10 / a_01^-1 = 1e600 (1e-600) leaves the float range: scored in logs,
    # it is a reciprocity violation, with no numpy warning (pytest turns it
    # into an error) and nothing on stderr
    path = write_csv(tmp_path, "m.csv", text)
    code, out, err = run(capsys, ["check", path])
    assert (code, err) == (2, "")
    assert json.loads(out)["violations"] == [[1, 0, "reciprocity"]]
    code, out, err = run(capsys, ["consistencize", path, "--method", "abelian"])
    assert (code, out) == (2, "") and err.startswith("error: matrix breaks the PC axioms: reciprocity at (1,0);")


@pytest.mark.parametrize(
    "text, decades",
    [
        ("1,1e200,1e-100\n1e-200,1,1e200\n1e100,1e-200,1\n", 500),  # a_01 * a_12 = 1e400
        ("1,1e150,1e-300\n1e-150,1,1e150\n1e300,1e-150,1\n", 600),  # a_01 * a_12 / a_02 = 1e600
    ],
    ids=["product", "defect-ratio"],
)
def test_check_scores_rplus_beyond_the_float_range(text, decades, tmp_path, capsys):
    # valid matrices whose triad products leave the float range are scored in logs
    code, out, err = run(capsys, ["check", write_csv(tmp_path, "m.csv", text)])
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert report["valid"] and report["worst_triad"] == report["witness"] == [0, 1, 2]
    assert report["ii_In"] == pytest.approx(decades * math.log(10.0), rel=1e-9)
    assert report["ii3"] == report["ii_n"] == 1.0


@pytest.mark.parametrize("noise", [1.0, 1e-7])  # near-consistent: 1 - exp(-ii_In) would lose digits
@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
def test_check_rplus_is_one_sweep(variance, noise, tmp_path, capsys, monkeypatch):
    # ii3 = 1 - exp(-ii_In) is monotone, so the consistency sweep's worst defect gives it
    rng = np.random.default_rng(92)
    g = rng.normal(size=8)
    B = from_upper_triangle(RPLUS, [math.exp(g[j] - g[i] + noise * rng.normal()) for i in range(8) for j in range(i + 1, 8)])
    A = PCMatrix._of_checked(RPLUS, B.n, B._carriers, B._positions, variance)
    sweeps = collections.Counter()
    sweep = pcmatrix._triad_sweep
    monkeypatch.setattr(pcmatrix, "_triad_sweep", lambda *a: sweeps.update(["sweep"]) or sweep(*a))
    code, out, _ = run(capsys, ["check", _matrix_file(tmp_path, A)])
    report = json.loads(out)
    assert code == 1 and sweeps["sweep"] == 1
    # ii3_matrix sums the three logs in covariant order: for contravariant
    # matrices the sums round apart, by a few ulps of the logs (about 1e-16)
    expected = ii3_matrix(A)[0]
    assert abs(report["ii3"] - expected) <= (0 if variance == "covariant" else 1e-15)
    assert report["ii3"] == -math.expm1(-report["ii_In"])


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


def test_consistencize_refuses_an_invalid_matrix(tmp_path, capsys):
    # consistent upper triangle, but a_10 = 1.0 breaks reciprocity
    entries = [0.0, 0.3, 0.5, 1.0, 0.0, 0.2, -0.5, -0.2, 0.0]
    doc = {"group": "u1", "n": 3, "variance": "covariant", "entries": [{"theta": t} for t in entries]}
    path = tmp_path / "bad.json"
    save_obj(doc, path)
    code, out, _ = run(capsys, ["check", str(path)])
    assert (code, json.loads(out)["violations"]) == (2, [[1, 0, "reciprocity"]])
    for method in ("abelian", "riemannian"):
        code, out, err = run(capsys, ["consistencize", str(path), "--method", method])
        assert (code, out) == (2, "")
        assert err == (
            "error: matrix breaks the PC axioms: reciprocity at (1,0); run `holopc check` on it to list every violation\n"
        )


@pytest.mark.parametrize("method", ["abelian", "riemannian"])
def test_consistencize_rplus_beyond_the_float_range_exits_2(method, tmp_path, capsys):
    # a valid matrix whose least-squares repair has the entry 1e400: no numpy
    # warning (pytest turns it into an error), a typed message, and the square
    # root the message suggests repairs
    text = "1,1e300,1e300\n1e-300,1,1e-300\n1e-300,1e300,1\n"
    code, out, err = run(capsys, ["consistencize", write_csv(tmp_path, "m.csv", text), "--method", method])
    assert (code, out) == (2, "")
    assert err.startswith("error: the repair (its gauge, matrix or residual) is not representable in double precision (")
    assert err.endswith("repair the entrywise square root instead, whose repair is the square root of this one\n")
    root = "1,1e150,1e150\n1e-150,1,1e-150\n1e-150,1e150,1\n"
    code, out, _ = run(capsys, ["consistencize", write_csv(tmp_path, "r.csv", root), "--method", method])
    assert code == 0
    assert json.loads(out)["matrix"]["entries"][1] == pytest.approx(1e200, rel=1e-9)  # sqrt(1e400)


def test_consistencize_abelian_repairs_where_a_distance_leaves_the_float_range(tmp_path, capsys):
    # a valid matrix whose ratios a_ij / c_ij to its repair reach 1e-575:
    # each distance is scored in logs, and the repair, within [1e-275, 1e275], is written
    text = "1,1e-300,1e-300,1e-200\n1e300,1,1e-300,1e300\n1e300,1e300,1,1e-300\n1e200,1e-300,1e300,1\n"
    path, out_path = write_csv(tmp_path, "m.csv", text), tmp_path / "c.csv"
    code, out, err = run(capsys, ["consistencize", path, "--method", "abelian", "--out", str(out_path)])
    assert (code, err) == (0, "")
    A, C = load_matrix(path), load_matrix(str(out_path))
    logs = sum((math.log(A.entry(i, j)) - math.log(C.entry(i, j))) ** 2 for i in range(4) for j in range(i + 1, 4))
    assert json.loads(out)["residual"] == pytest.approx(logs, rel=1e-12)
    assert all(1e-276 < C.entry(i, j) < 1e276 for i in range(4) for j in range(4))
    code, _, _ = run(capsys, ["check", str(out_path)])
    assert code == 0


def test_consistencize_riemannian_repairs_where_a_residual_leaves_the_float_range(tmp_path, capsys):
    # the same matrix: at its repair the Newton step's residual logs
    # log(e^-1 a) reach -748, below the float range, and are taken as
    # log a - log e, so it repairs what the closed form repairs
    text = "1,1e-300,1e-300,1e-200\n1e300,1,1e-300,1e300\n1e300,1e300,1,1e-300\n1e200,1e-300,1e300,1\n"
    path = write_csv(tmp_path, "m.csv", text)
    code, out, err = run(capsys, ["consistencize", path, "--method", "riemannian"])
    assert (code, err) == (0, "")
    newton = json.loads(out)
    code, out, _ = run(capsys, ["consistencize", path, "--method", "abelian"])
    closed = json.loads(out)
    assert code == 0 and newton["iterations"] == 0
    assert newton["matrix"] == closed["matrix"] and newton["lambda"] == closed["lambda"]
    assert newton["residual"] == closed["residual"]


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

# (argv from a tmp_path, element check calls, values parsed through batch_check):
# each document, JSON or CSV, goes through one batch_check, an array pass in
# every group, so valid input makes no element check; nothing after parsing
# checks again
CLI_CALLS = {
    "check-rplus-csv": (lambda t: ["check", write_csv(t, "m.csv", "1,2,4\n0.5,1,4\n0.25,0.25,1\n")], 0, 9),
    "check-u1": (lambda t: ["check", _matrix_file(t, random_pc_matrix(U1, 5, rng=87))], 0, 25),
    "check-su2": (lambda t: ["check", _matrix_file(t, random_pc_matrix(SU2, 6, rng=88))], 0, 36),
    "consistencize-abelian-rplus": (
        lambda t: ["consistencize", write_csv(t, "m.csv", "1,2,8\n0.5,1,2\n0.125,0.5,1\n"), "--method", "abelian"],
        0,
        9,
    ),
    "consistencize-abelian-u1-winding": (
        lambda t: ["consistencize", _matrix_file(t, _u1_winding_matrix()), "--method", "abelian"],
        0,
        25,
    ),
    "consistencize-riemannian-su2": (
        lambda t: ["consistencize", _matrix_file(t, random_pc_matrix(SU2, 5, rng=89)), "--method", "riemannian"],
        0,
        25,
    ),
    "holonomy-su2": (lambda t: ["holonomy", *_holonomy_files(t)], 0, len(grid_complex(3).edges)),
    "montecarlo-mean-curvature-su2": (
        lambda t: [*MONTECARLO, "--complex", _complex_file(t, full_simplex(3)), "--group", "su2"],
        0,
        0,
    ),
    "montecarlo-sup-curvature-u1": (
        lambda t: [
            *MONTECARLO, "--complex", _complex_file(t, full_simplex(3)), "--group", "u1",
            "--observable", "sup_curvature_In",
        ],
        0,
        0,
    ),
    "montecarlo-wilson-su2": (
        lambda t: [
            *MONTECARLO, "--complex", _complex_file(t, full_simplex(3)), "--group", "su2",
            "--observable", "wilson_character", "--loop", "0", "2", "1", "3", "0",
        ],
        0,
        0,
    ),
    "montecarlo-random-pc-u1": (lambda t: [*MONTECARLO, "--random-pc", "4", "--group", "u1"], 0, 0),
}


def test_group_law_is_defined_once_on_group():
    for cls in GROUP_CLASSES:
        assert not set(ELEMENT_LAW) & set(vars(cls)), cls


@pytest.mark.parametrize("name", CLI_CALLS)
def test_cli_calls_no_element_group_law(name, tmp_path, capsys, monkeypatch):
    build, checks, parsed = CLI_CALLS[name]
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
    for owner in (Group, *(cls for cls in GROUP_CLASSES if "batch_check" in vars(cls))):  # every batch_check
        method = owner.batch_check
        counted = lambda self, values, _m=method: (  # noqa: E731
            calls.update(batch_check=1, batch_checked=len(values)) or _m(self, values)
        )
        monkeypatch.setattr(owner, "batch_check", counted)
    code, out, _ = run(capsys, argv)
    assert code in (0, 1)
    expected = {"check": checks, "batch_check": 1 if parsed else 0, "batch_checked": parsed}
    assert dict(calls) == {k: v for k, v in expected.items() if v}
    if name == "consistencize-abelian-u1-winding":
        assert json.loads(out)["iterations"] > 0  # the Gauss-Newton refinement was returned


# element objects (checked_to_obj) each report builds: one per element
# template, of a consistencize report's gauge and of a written matrix, never
# one per gauge component or matrix entry
REPORT_OBJECTS = {
    "check-u1": 0,
    "check-su2": 0,
    "consistencize-abelian-u1-winding": 1 + 1,
    "consistencize-riemannian-su2": 1 + 1,
    "holonomy-su2": 1,
}


@pytest.mark.parametrize("name", REPORT_OBJECTS)
def test_cli_reports_build_no_entry_grid(name, tmp_path, capsys, monkeypatch):
    argv = CLI_CALLS[name][0](tmp_path)
    calls = collections.Counter()
    grid = PCMatrix.entries.fget
    monkeypatch.setattr(PCMatrix, "entries", property(lambda A: calls.update(["entries"]) or grid(A)))
    to_obj = Group.checked_to_obj
    monkeypatch.setattr(Group, "checked_to_obj", lambda G, a: calls.update(["checked_to_obj"]) or to_obj(G, a))
    code, _, _ = run(capsys, argv)
    assert code in (0, 1)
    assert calls["entries"] == 0
    assert calls["checked_to_obj"] == REPORT_OBJECTS[name]


def test_holonomy_builds_no_per_edge_objects(tmp_path, capsys, monkeypatch):
    # parse, bind and write on carrier arrays: no field lookup, no plain
    # elements and no per-cell vertex reading
    argv = ["holonomy", *_holonomy_files(tmp_path)]
    calls = collections.Counter()

    def count(owner, name):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _m=method: calls.update([name]) or _m(*a))

    count(EdgeField, "value")
    count(Group, "from_array")
    count(UnitQuaternions, "from_array")
    count(simplicial, "_cell")
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(json.loads(out)["curvatures"]) == len(grid_complex(3).triangles)
    assert dict(calls) == {}


def _gap_free_holonomy_files(tmp_path):
    K = full_simplex(4)
    rng = np.random.default_rng(91)
    fpath = tmp_path / "f.json"
    save_obj(field_to_obj(EdgeField(U1, {e: U1.haar_sample(rng) for e in K.edges})), fpath)
    return [_complex_file(tmp_path, K), str(fpath)]


CANONICAL_REPORTS = {
    **{name: build for name, (build, _, _) in CLI_CALLS.items()},
    "check-rplus-contravariant": lambda t: [
        "check", _matrix_file(t, PCMatrix(RPLUS, [[1, 2, 3], [0.5, 1, 5], [1 / 3, 0.2, 1]], "contravariant"))
    ],
    "consistencize-riemannian-u1": lambda t: [
        "consistencize", _matrix_file(t, _u1_winding_matrix()), "--method", "riemannian"
    ],
    "holonomy-gap-free-u1": lambda t: ["holonomy", *_gap_free_holonomy_files(t)],
}


@pytest.mark.parametrize("name", CANONICAL_REPORTS)
def test_reports_are_canonical_json(name, tmp_path, capsys):
    # every report is what json itself writes for the object it parses to
    code, out, err = run(capsys, CANONICAL_REPORTS[name](tmp_path))
    assert code in (0, 1) and not err
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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


# One montecarlo call per group and source, as argv after "montecarlo";
# COMPLEX stands for the full_simplex(3) complex file.
MC_CALLS = {
    "u1-complex": ["--complex", "COMPLEX", "--group", "u1", "--observable", "wilson_character", "--loop", "0", "1", "2", "3", "0"],
    "u1-random-pc": ["--random-pc", "5", "--group", "u1"],
    "su2-complex": ["--complex", "COMPLEX", "--group", "su2", "--observable", "mean_curvature_In"],
    "su2-random-pc": ["--random-pc", "5", "--group", "su2"],
    "zmod5-complex": ["--complex", "COMPLEX", "--group", "zmod:5", "--observable", "sup_curvature_In"],
    "zmod5-random-pc": ["--random-pc", "5", "--group", "zmod:5"],
}
# SHA-256 of each call's stdout at -N 300 --seed 2024 in a fresh interpreter, by
# numpy version: a report is a pure function of (seed, N) for a given numpy,
# and numpy does not promise the same Generator streams across versions (NEP 19)
MC_DIGESTS = {
    "2.4.6": {
        "u1-complex": "ef8ce36ecfa42186e96f13539ec491ee7c67621032c1bfeb14f97acbb669a590",
        "u1-random-pc": "3f88507efffb232f06757cd5116b5bdbee12c8533a9f8f19527d7079179ae65c",
        "su2-complex": "38f8c3f516e599a9a0b5985a556b0b3a06f4624ea99ce1ca83f01448437c0600",
        "su2-random-pc": "c3fe588a8f46bad96f08e331dae5c4d0e10bf3298138c2b9d1572736e05b7dbe",
        "zmod5-complex": "668d87ebf227b88dcf152b2db2e06f58bcd26d6efbe83eabcfac8d884e3dcdc9",
        "zmod5-random-pc": "2546172298e6a791bd7e12c527322e23441e9e01905206d4fd6729a7a232c451",
    },
}


@pytest.mark.parametrize("name", MC_CALLS)
def test_montecarlo_reports_match_their_recorded_digests(name, tmp_path):
    if np.__version__ not in MC_DIGESTS:
        pytest.skip(f"no digests recorded for numpy {np.__version__}; recorded: {', '.join(MC_DIGESTS)}")
    save_obj(complex_to_obj(full_simplex(3)), tmp_path / "k.json")
    argv = [str(tmp_path / "k.json") if a == "COMPLEX" else a for a in MC_CALLS[name]]
    src = os.path.dirname(os.path.dirname(cli.__file__))  # the tree under test, first on the path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "holopc.cli", "montecarlo", *argv, "-N", "300", "--seed", "2024"]
    done = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == MC_DIGESTS[np.__version__][name]


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


@pytest.mark.parametrize("source", ["complex", "random-pc"])
def test_montecarlo_refuses_a_negative_seed_by_its_flag(source, tmp_path, capsys):
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(full_simplex(2)), cpath)
    where = ["--complex", str(cpath)] if source == "complex" else ["--random-pc", "3"]
    code, out, err = run(capsys, ["montecarlo", *where, "--group", "u1", "-N", "16", "--seed", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: seed (--seed) must be a nonnegative integer, got -1\n"


def test_montecarlo_refuses_csv_without_out_before_sampling(capsys, monkeypatch):
    def sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the options")

    monkeypatch.setattr(integrate, "_sample_values", sampling)
    code, out, err = run(capsys, ["montecarlo", "--random-pc", "3", "--group", "u1", "--format", "csv"])
    assert (code, out) == (2, "")
    assert err == "error: --format csv needs --out for the histogram file\n"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_montecarlo_random_pc_size_names_its_flag(n, capsys):
    code, out, err = run(capsys, ["montecarlo", "--random-pc", n, "--group", "u1", "-N", "16"])
    assert (code, out) == (2, "")
    assert err == f"error: matrix size n (--random-pc) must be at least 2, got {n}\n"


@pytest.mark.parametrize(
    "extra",
    [["--observable", "ii3_of_random_matrix"], ["--observable", "mean_curvature_In"], ["--loop", "0", "1", "2", "0"]],
    ids=["observable-ii3", "observable-default", "loop"],
)
def test_montecarlo_random_pc_refuses_field_options(extra, capsys):
    code, out, err = run(capsys, ["montecarlo", "--random-pc", "3", "--group", "u1", "-N", "16", *extra])
    assert (code, out) == (2, "")
    assert "--observable and --loop apply to --complex only" in err


@pytest.mark.parametrize("observable", [[], ["--observable", "mean_curvature_In"], ["--observable", "sup_curvature_In"]])
def test_montecarlo_loop_needs_the_wilson_character(observable, tmp_path, capsys, monkeypatch):
    def sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the options")

    monkeypatch.setattr(integrate, "_sample_values", sampling)
    where = ["--complex", _complex_file(tmp_path, full_simplex(2))]
    code, out, err = run(capsys, ["montecarlo", *where, "--group", "u1", "--loop", "0", "1", "2", "0", *observable])
    assert (code, out) == (2, "")
    assert err == "error: --loop applies to --observable wilson_character only\n"


@pytest.mark.parametrize("source", ["complex", "random-pc"])
@pytest.mark.parametrize("n", ["1", "0", "-5"])
def test_montecarlo_sample_count_names_its_flag(source, n, tmp_path, capsys):
    where = ["--complex", _complex_file(tmp_path, full_simplex(2))] if source == "complex" else ["--random-pc", "3"]
    code, out, err = run(capsys, ["montecarlo", *where, "--group", "u1", "-N", n])
    assert (code, out) == (2, "")
    assert err == f"error: sample count N (-N/--samples) must be at least 2 for a standard error, got {n}\n"


@pytest.mark.parametrize("cell", ["nan", "1e-320", "0"])
def test_check_names_the_bad_csv_cell(cell, tmp_path, capsys):
    code, out, err = run(capsys, ["check", write_csv(tmp_path, "m.csv", f"1,{cell}\n1,1\n")])
    assert (code, out) == (2, "")
    assert err.startswith("error: group mismatch: ") and err.endswith(" (line 1, column 2)\n")


# four vertices, no edge 1-3
NO_EDGE_13 = SimplicialComplex2(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], [(0, 1, 2), (0, 2, 3)])


@pytest.mark.parametrize(
    "loop, message",
    [
        (["0", "1", "2"], "wilson loop (--loop) must close up, got (0, 1, 2)"),
        (["0", "1", "3", "0"], "wilson loop (--loop): non-adjacent step 1->3: missing edge 1-3"),
    ],
    ids=["open", "non-adjacent"],
)
def test_montecarlo_loop_errors_name_their_flag(loop, message, tmp_path, capsys):
    where = ["--complex", _complex_file(tmp_path, NO_EDGE_13), "--group", "u1", "-N", "16"]
    code, out, err = run(capsys, ["montecarlo", *where, "--observable", "wilson_character", "--loop", *loop])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _unwritable_out_calls(tmp_path):
    K = _complex_file(tmp_path, full_simplex(2))
    return {
        "check": ["check", write_csv(tmp_path, "m.csv", "1,2,4\n0.5,1,2\n0.25,0.5,1\n")],
        "holonomy": ["holonomy", *_holonomy_files(tmp_path)],
        "montecarlo-complex": ["montecarlo", "--complex", K, "--group", "u1", "-N", "16"],
        "montecarlo-random-pc": ["montecarlo", "--random-pc", "3", "--group", "u1", "-N", "16"],
    }


@pytest.mark.parametrize("name", ["check", "holonomy", "montecarlo-complex", "montecarlo-random-pc"])
def test_a_report_that_cannot_be_written_is_not_printed(name, tmp_path, capsys):
    argv = _unwritable_out_calls(tmp_path)[name]
    bad = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, [*argv, "--out", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert not bad.exists()
    code, out, _ = run(capsys, [*argv, "--out", str(tmp_path / "report.json")])  # the same call with a good path
    assert code == 0 and out == (tmp_path / "report.json").read_text()
