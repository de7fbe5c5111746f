"""Per-layer timings of the report writer and the document reader.

    python bench/layers.py --baseline-src OLD/src --baseline-commit SHA   # writes BENCH_layers.json
    python bench/layers.py --runs 2 --rounds 1 --out /tmp/layers.json    # quick: checks that it runs

It times the ``src/`` of the checkout it is in.  The layers are:

- ``json_text`` of the su2 ``holonomy`` report (matrix, curvature records,
  global_ii) of a random field on ``grid_complex(m)``, m = 20, 30, 40;
- ``json_text`` of the su2 n = 21 ``consistencize`` report;
- ``load_matrix`` of an n = 48 su2 matrix document;
- ``consistencize_riemannian`` of an su2 matrix at n = 15 and 21, drawn by
  the ``su2-dense`` generator of ``perfbench/inputs.py`` at its noise, and
  the synchronization start of that solver (``SU2.batch_synchronize`` of
  the entry array; a tree without it has no such layer);
- the triad sweep of ``is_consistent`` on such su2 matrices at n = 10, 30
  and 60;
- one Monte Carlo block (1024 samples) of ``expectation``: the u1 worst
  triad indicator of random 5 x 5 matrices (``montecarlo --random-pc 5``)
  and su2 ``mean_curvature_In`` on ``full_simplex(3)``;
- ``validate`` of the gapped matrices of the ``holonomy`` reports above,
  and of gap-free random su2 n = 48 and u1 n = 9 matrices, drawn after
  every other input so that no other layer's input moves;
- one in-process ``holopc.cli.main(argv)`` call per subcommand, end to
  end with its stdout captured, on small inputs drawn after all of the
  above: ``check`` of a u1 n = 9 JSON matrix, ``consistencize --method
  abelian`` of an rplus n = 9 CSV matrix with log-normal entries,
  ``holonomy`` of a u1 field on ``full_simplex(4)``, and ``montecarlo
  --random-pc 5 --group u1 -N 256``.

Each source tree is timed in its own interpreter, since both are the package
``holopc``; with a baseline the two trees alternate for ``--rounds`` rounds.
Each layer's record holds the median and interquartile range of its timed
runs (after one untimed warm-up per interpreter), in milliseconds, for the
tree and for its baseline, together with the machine, the Python and numpy
versions and a hash of each tree's ``holopc`` sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GRIDS = (20, 30, 40)


def layers(src: str, tmp: Path) -> dict:
    """The timed layers of the ``holopc`` under ``src``, each a function of
    no arguments; the inputs are drawn from a fixed seed, and files go in
    ``tmp``."""
    sys.path[:0] = [src, str(ROOT)]
    from holopc.cli import main
    from holopc.consistencize import consistencize_riemannian
    from holopc.groups import RPLUS, SU2, U1
    from holopc.integrate import Observable, expectation
    from holopc.pcmatrix import _entry_array, from_upper_triangle, is_consistent, random_pc_matrix, validate
    from holopc.serialize import Records, complex_to_obj, field_to_obj, json_text, load_matrix, save_matrix, save_obj
    from holopc.simplicial import EdgeField, _triangle_scores, full_simplex, grid_complex, holonomy_pc_matrix
    from perfbench.inputs import su2_matrix

    rng = np.random.default_rng(20)
    out, holonomy = {}, {}
    for m in GRIDS:
        K = grid_complex(m)
        q = rng.normal(size=(len(K.edges), 4))
        F = EdgeField(SU2, dict(zip(K.edges, map(tuple, q / np.linalg.norm(q, axis=1, keepdims=True)))))
        scores, value, worst = _triangle_scores(K, F, None)
        report = {  # as cli.cmd_holonomy builds it
            "group": "su2",
            "vertices": K.vertices,
            "matrix": holonomy_pc_matrix(K, F),
            "curvatures": Records(in_value=scores, triangle=K._tri_array),
            "global_ii": value,
            "worst_triangle": list(worst) if worst else None,
        }
        out[f"json_text.holonomy_su2_grid{m}"] = lambda report=report: json_text(report)
        holonomy[m] = report["matrix"]
    result = consistencize_riemannian(random_pc_matrix(SU2, 21, rng), max_iter=20)
    report = {  # as cli.cmd_consistencize builds it
        "group": "su2",
        "n": 21,
        "method": "riemannian",
        "lambda": [SU2.checked_to_obj(v) for v in result.lam],
        "matrix": result.matrix,
        "residual": result.residual,
        "ii_before": result.ii_before,
        "ii_after": result.ii_after,
        "iterations": result.iterations,
        "status": result.status,
    }
    out["json_text.consistencize_su2_n21"] = lambda: json_text(report)
    path = tmp / "su2_48.json"
    save_matrix(random_pc_matrix(SU2, 48, rng), path)
    out["load_matrix.su2_n48"] = lambda: load_matrix(path)
    noise = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]["su2-dense"]["inputs"]["noise"]

    def dense(n):
        return from_upper_triangle(SU2, [tuple(q) for q in su2_matrix(rng, n, noise)[np.triu_indices(n, 1)].tolist()])

    for n in (15, 21):
        A = dense(n)
        out[f"consistencize_riemannian.su2_n{n}"] = lambda A=A: consistencize_riemannian(A)
        if hasattr(SU2, "batch_synchronize"):
            out[f"synchronize.su2_n{n}"] = lambda M=_entry_array(A): SU2.batch_synchronize(M)
    for n in (10, 30, 60):
        out[f"is_consistent.su2_n{n}"] = lambda A=dense(n): is_consistent(A)
    random_pc5 = Observable("ii3_of_random_matrix", n=5)
    out["mc_block.u1_random_pc5"] = lambda: expectation(None, U1, random_pc5, N=1024, seed=5)
    K = full_simplex(3)
    curvature = Observable("mean_curvature_In")
    out["mc_block.su2_mean_curvature_simplex3"] = lambda: expectation(K, SU2, curvature, N=1024, seed=3)
    for m, A in holonomy.items():
        out[f"validate.holonomy_su2_grid{m}"] = lambda A=A: validate(A)
    out["validate.su2_n48"] = lambda A=random_pc_matrix(SU2, 48, rng): validate(A)
    out["validate.u1_n9"] = lambda A=random_pc_matrix(U1, 9, rng): validate(A)
    save_matrix(random_pc_matrix(U1, 9, rng), tmp / "u1_9.json")
    save_matrix(from_upper_triangle(RPLUS, np.exp(rng.normal(size=36)).tolist()), tmp / "rplus_9.csv")
    K = full_simplex(4)
    save_obj(complex_to_obj(K), tmp / "simplex4.json")
    theta = rng.uniform(-np.pi, np.pi, len(K.edges)).tolist()
    save_obj(field_to_obj(EdgeField(U1, dict(zip(K.edges, theta)))), tmp / "u1_field.json")
    calls = {
        "check": ["check", str(tmp / "u1_9.json")],
        "consistencize": ["consistencize", str(tmp / "rplus_9.csv"), "--method", "abelian"],
        "holonomy": ["holonomy", str(tmp / "simplex4.json"), str(tmp / "u1_field.json")],
        "montecarlo": ["montecarlo", "--random-pc", "5", "--group", "u1", "-N", "256", "--seed", "5"],
    }

    def cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code not in (0, 1):  # a report, not an input error
            raise RuntimeError(f"{argv}: exit {code}")

    for command, argv in calls.items():
        out[f"cli.{command}"] = lambda argv=argv: cli(argv)
    return out


def worker(src: str, runs: int) -> None:
    """Print ``{layer: [seconds, ...]}`` for ``runs`` timed runs of each layer."""
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, f in layers(src, Path(tmp)).items():
            f()  # warm-up
            times[name] = []
            for _ in range(runs):
                t = perf_counter()
                f()
                times[name].append(perf_counter() - t)
    print(json.dumps(times))


def timed(src: Path, runs: int) -> dict:
    cmd = [sys.executable, __file__, "--worker", str(src), "--runs", str(runs)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900).stdout)


def summary(seconds: list[float]) -> dict:
    ms = sorted(1e3 * s for s in seconds)
    q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
    return {"median_ms": statistics.median(ms), "iqr_ms": q3 - q1, "runs": len(ms)}


def src_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "holopc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "system": platform.platform()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline-src", help="source tree to compare with, timed alternately")
    parser.add_argument("--baseline-commit", help="the commit the baseline tree was taken from")
    parser.add_argument("--runs", type=int, default=10, help="timed runs per layer per round")
    parser.add_argument("--rounds", type=int, default=4, help="interpreters per tree")
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args.worker, args.runs)
    trees = {"change": ROOT / "src"}
    if args.baseline_src:
        trees["baseline"] = Path(args.baseline_src).resolve()
    times: dict = {tree: {} for tree in trees}
    for r in range(args.rounds):
        for tree in sorted(trees, reverse=r % 2 == 1):  # alternate which tree goes first
            for name, seconds in timed(trees[tree], args.runs).items():
                times[tree].setdefault(name, []).extend(seconds)
    records = []
    for name, seconds in times["change"].items():
        record = {"layer": name, **summary(seconds)}
        if name in times.get("baseline", {}):
            record["baseline"] = summary(times["baseline"][name])
            record["ratio"] = record["median_ms"] / record["baseline"]["median_ms"]
        records.append(record)
    doc = {
        "what": "per-layer timings: median and IQR of timed runs, in milliseconds",
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_sha256": src_hash(trees["change"]),
        "baseline_commit": args.baseline_commit,
        "baseline_src_sha256": src_hash(trees["baseline"]) if "baseline" in trees else None,
        "runs_per_round": args.runs,
        "rounds": args.rounds,
        "records": records,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for record in records:
        base = f"  (baseline {record['baseline']['median_ms']:.2f} ms)" if "baseline" in record else ""
        print(f"{record['layer']:40s} {record['median_ms']:9.2f} ms  IQR {record['iqr_ms']:.2f}{base}")


if __name__ == "__main__":
    main()
