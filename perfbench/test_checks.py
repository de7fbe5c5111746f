"""Self-test of the benchmark's output checks.

Each check must pass on a real CLI output and fail on a corrupted copy of it.
Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from checks import CheckError, check_call  # noqa: E402
from holopc.cli import main as cli_main  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def edit(out: str, fn) -> str:
    report = json.loads(out)
    fn(report)
    return json.dumps(report)


def assert_caught(kind, meta, code, out, previous=None):
    with pytest.raises(CheckError):
        check_call(kind, meta, code, out, previous)


def matrix_call(tmp_path, kind, group, n, consistent, method="abelian", arc=math.pi):
    rng = np.random.default_rng(7)
    if group == "rplus":
        A, path = inputs.rplus_matrix(rng, n, 1.0, 0.2, consistent), tmp_path / "m.csv"
    elif group == "u1":
        A, path = inputs.u1_matrix(rng, n, arc, 0.3, consistent), tmp_path / "m.json"
    else:
        A, path = inputs.su2_matrix(rng, n, 0.1), tmp_path / "m.json"
    inputs.write_matrix(path, group, A)
    argv = ["check", str(path)] if kind == "check" else ["consistencize", str(path), "--method", method]
    code, out = run_cli(argv)
    meta = {"group": group, "A": A, "consistent": consistent}
    check_call(kind, meta, code, out, None)  # the genuine output passes
    return meta, code, out


def test_check_catches_corruption(tmp_path):
    meta, code, out = matrix_call(tmp_path, "check", "rplus", 6, consistent=False)
    assert_caught("check", meta, 0, out)  # exit code contradicts the report
    assert_caught("check", meta, code, edit(out, lambda r: r.update(ii3=r["ii3"] * (1 + 1e-9))))
    assert_caught("check", meta, code, edit(out, lambda r: r.update(witness=[0, 2, 6])))
    assert_caught("check", meta, code, edit(out, lambda r: r.update(worst_triad=[2, 1, 0])))
    assert_caught("check", meta, code, out[: len(out) // 2])  # truncated report


def test_check_catches_wrong_consistency(tmp_path):
    meta, code, out = matrix_call(tmp_path, "check", "u1", 5, consistent=True)
    assert_caught("check", meta, 1, edit(out, lambda r: r.update(consistent=False, witness=[0, 1, 2])))
    assert_caught("check", meta, code, edit(out, lambda r: r.update(ii_In=2 * r["tol"])))
    assert_caught("check", meta, code, edit(out, lambda r: r.update(witness=[0, 1, 2])))


def test_consistencize_rplus_catches_corruption(tmp_path):
    meta, code, out = matrix_call(tmp_path, "consistencize", "rplus", 7, consistent=False)

    def break_entry(r):
        r["matrix"]["entries"][1] *= 1.001

    assert_caught("consistencize", meta, code, edit(out, break_entry))
    assert_caught("consistencize", meta, code, edit(out, lambda r: r.update(residual=r["residual"] * (1 + 1e-7))))
    assert_caught("consistencize", meta, code, edit(out, lambda r: r.update(ii_after=1e-6)))
    assert_caught("consistencize", meta, 2, out)


def test_consistencize_u1_catches_worse_than_closed_form(tmp_path):
    meta, code, out = matrix_call(tmp_path, "consistencize", "u1", 8, consistent=False)
    A = meta["A"]
    # a consistent matrix farther from A than the closed form: the identity gauge
    n = A.shape[0]
    zero = {"group": "u1", "n": n, "variance": "covariant", "entries": [{"theta": 0.0}] * (n * n)}
    residual = float(sum(inputs.wrap(A[i, j]) ** 2 for i in range(n) for j in range(i + 1, n)))
    assert_caught("consistencize", meta, code, edit(out, lambda r: r.update(matrix=zero, residual=residual)))


def test_consistencize_su2_catches_corruption(tmp_path):
    meta, code, out = matrix_call(tmp_path, "consistencize", "su2", 6, consistent=False, method="riemannian")

    def tilt(r):
        q = r["matrix"]["entries"][2]["q"]
        r["matrix"]["entries"][2]["q"] = list(inputs.unit(np.array(q) + [0.0, 1e-4, 0.0, 0.0]))

    assert_caught("consistencize", meta, code, edit(out, tilt))
    assert_caught("consistencize", meta, code, edit(out, lambda r: r.update(residual=r["residual"] * 1.01)))

    def start_is_worse(r):  # claim a residual above the descent's own starting point
        C = inputs.qmul(inputs.qconj(meta["A"][0])[:, None, :], meta["A"][0][None, :, :])
        n = C.shape[0]
        r["matrix"]["entries"] = [{"q": list(C[i, j])} for i in range(n) for j in range(n)]
        r["residual"] = 10.0 * r["residual"] + 1.0

    assert_caught("consistencize", meta, code, edit(out, start_is_worse))


@pytest.fixture
def holonomy_call(tmp_path):
    K = inputs.grid_complex(3)
    field = inputs.su2_near_flat_field(np.random.default_rng(3), K, 0.05)
    pk, pf = tmp_path / "k.json", tmp_path / "f.json"
    pk.write_text(json.dumps(K))
    values = {f"{i}-{j}": inputs.element_obj("su2", h) for (i, j), h in field.items()}
    pf.write_text(json.dumps({"group": "su2", "values": values}))
    code, out = run_cli(["holonomy", str(pk), str(pf)])
    meta = {"K": K, "field": field}
    check_call("holonomy", meta, code, out, None)
    return meta, code, out


def test_holonomy_catches_corruption(holonomy_call):
    meta, code, out = holonomy_call
    n = meta["K"]["vertices"]
    i, j = meta["K"]["edges"][4]

    def nudge(r):
        r["matrix"]["entries"][i * n + j]["q"][1] += 1e-8

    def drop_edge(r):
        r["matrix"]["entries"][i * n + j] = None

    def fill_gap(r):
        r["matrix"]["entries"][n - 1] = {"q": [1.0, 0.0, 0.0, 0.0]}  # 0 and n-1 are not adjacent

    assert_caught("holonomy", meta, code, edit(out, nudge))
    assert_caught("holonomy", meta, code, edit(out, drop_edge))
    assert_caught("holonomy", meta, code, edit(out, fill_gap))
    assert_caught("holonomy", meta, code, edit(out, lambda r: r.update(global_ii=r["global_ii"] + 1e-6)))
    assert_caught("holonomy", meta, code, edit(out, lambda r: r["curvatures"].pop()))


@pytest.mark.parametrize("config", [
    {"group": "su2", "observable": "mean_curvature_In", "N": 300},
    {"group": "u1", "observable": "mean_curvature_In", "N": 300},
    {"group": "u1", "observable": "wilson_character", "loop": [0, 1, 2, 3, 0], "N": 300},
    {"group": "u1", "random_pc": 5, "N": 300},
])
def test_montecarlo_catches_corruption(tmp_path, config):
    (kind, argv, meta), (_, _, repeat_meta) = inputs.haar_mc({"configs": [config]}, 5, tmp_path)(0)
    code, out = run_cli(argv)
    check_call(kind, meta, code, out, None)
    check_call(kind, repeat_meta, code, out, out)
    assert_caught(kind, repeat_meta, code, out, out.replace("\n", "\n ", 1))  # not byte-identical
    assert_caught(kind, meta, code, edit(out, lambda r: r.update(mean=r["mean"] + 6 * r["std_error"])))
    assert_caught(kind, meta, code, edit(out, lambda r: r.update(N=r["N"] + 1)))
    if "random_pc" in config:
        def lose_count(r):
            r["histogram"]["counts"][0] += 1

        assert_caught(kind, meta, code, edit(out, lose_count))
        assert_caught(kind, meta, code, edit(out, lambda r: r.update(mean=math.pi + 0.01)))



def test_benchmark_json_lists_the_traced_metrics():
    from tracing import Tracer, units

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    emitted = {name: units(name) for name in [*Tracer().metrics(report_bytes=0.0), "trace.overhead_s"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
