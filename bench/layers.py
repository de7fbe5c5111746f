"""Per-layer timings of the report writer and the document reader.

    python bench/layers.py --baseline-src OLD/src --baseline-commit SHA   # writes BENCH_layers.json
    python bench/layers.py --runs 2 --rounds 1 --out /tmp/layers.json    # quick: checks that it runs

It times the ``src/`` of the checkout it is in.  The layers are:

- ``json_text`` of the su2 ``holonomy`` report (matrix, curvature records,
  global_ii) of a random field on ``grid_complex(m)``, m = 20, 30, 40, and
  ``field_from_obj`` of the m = 20 field's document as ``json`` reads it;
- ``json_text`` of the su2 n = 21 ``consistencize`` report;
- ``load_matrix`` of an n = 48 su2 matrix document, and ``load_json`` of
  the ``full_simplex(3)`` complex document the ``haar-mc`` workload reads;
- ``consistencize_riemannian`` of an su2 matrix at n = 15 and 21, drawn by
  the ``su2-dense`` generator of ``perfbench/inputs.py`` at its noise, and
  the synchronization start of that solver (``SU2.batch_synchronize`` of
  the entry array; a tree without it has no such layer);
- the triad sweep of ``is_consistent`` on such su2 matrices at n = 10, 30
  and 60, and, drawn after every other input so that no other layer's
  input moves, at n = 48 (``su2-dense``'s largest ``check``) and on an
  exactly consistent n = 60 matrix (``from_gauge_vector`` of a Haar gauge,
  the ranked sweep's worst case);
- one Monte Carlo block (1024 samples) of ``expectation``: the u1 worst
  triad indicator of random 5 x 5 matrices (``montecarlo --random-pc 5``)
  and su2 ``mean_curvature_In`` on ``full_simplex(3)``;
- ``validate`` of the gapped matrices of the ``holonomy`` reports above,
  and of gap-free random su2 n = 48 and u1 n = 9 matrices, drawn after
  every other input so that no other layer's input moves;
- ``load_matrix`` of the u1 n = 9 JSON file and the rplus n = 9 CSV file
  that the ``check`` and ``consistencize`` calls below read (the matrix
  sizes of ``ahp-small``); they draw nothing;
- one in-process ``holopc.cli.main(argv)`` call per subcommand, end to
  end with its stdout captured, on small inputs drawn after all of the
  above: ``check`` of a u1 n = 9 JSON matrix, ``consistencize --method
  abelian`` of an rplus n = 9 CSV matrix with log-normal entries,
  ``holonomy`` of a u1 field on ``full_simplex(4)``, as
  ``cli.holonomy_su2_grid20`` the ``holonomy`` of the su2 field on
  ``grid_complex(20)`` above (the size of a ``lattice`` call), ``montecarlo
  --random-pc 5 --group u1 -N 256``, and, as ``cli.montecarlo_complex``,
  the su2 ``mean_curvature_In`` call of ``haar-mc`` (``--complex`` of the
  ``full_simplex(3)`` file, N = 200);
- at the sizes of the ``haar-mc`` workload, on inputs drawn after all of
  the above: the u1 kernels ``batch_multiply`` and ``batch_defect`` on
  (600, 4) and (1300,) carrier arrays (the u1 curvature and Wilson loop
  blocks), ``_estimate`` of 600 sample values, ``json_text`` of a
  ``montecarlo --random-pc 5`` report, and one ``expectation`` per
  ``haar-mc`` configuration, at its N.

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
    from holopc import serialize
    from holopc.cli import _mc_report, main
    from holopc.consistencize import consistencize_riemannian
    from holopc.groups import RPLUS, SU2, U1
    from holopc.integrate import Observable, _estimate, expectation, ii_distribution
    from holopc.pcmatrix import _entry_array, from_gauge_vector, from_upper_triangle, is_consistent, random_pc_matrix, validate
    from holopc.serialize import (
        Records,
        complex_to_obj,
        field_from_obj,
        field_to_obj,
        json_text,
        load_json,
        load_matrix,
        save_matrix,
        save_obj,
    )
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
        if m == 20:  # the documents the lattice workload reads, for the reader and the end-to-end call
            save_obj(complex_to_obj(K), tmp / "grid20.json")
            save_obj(field_to_obj(F), tmp / "su2_grid20_field.json")
            field20 = load_json(tmp / "su2_grid20_field.json")
            out["field_from_obj.su2_grid20"] = lambda: field_from_obj(field20)
    result = consistencize_riemannian(random_pc_matrix(SU2, 21, rng), max_iter=20)
    report = {  # as cli.cmd_consistencize builds it
        "group": "su2",
        "n": 21,
        "method": "riemannian",
        "lambda": (  # a tree without the carrier writer wrote the objects
            serialize.Carriers(SU2, SU2.to_array(result.lam))
            if hasattr(serialize, "Carriers")
            else [SU2.checked_to_obj(v) for v in result.lam]
        ),
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
    simplex3_path = str(tmp / "simplex3.json")
    save_obj(complex_to_obj(full_simplex(3)), simplex3_path)
    out["load_json.simplex3"] = lambda: load_json(simplex3_path)
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
    out["mc_block.su2_mean_curvature_simplex3"] = lambda K=K: expectation(K, SU2, curvature, N=1024, seed=3)
    for m, A in holonomy.items():
        out[f"validate.holonomy_su2_grid{m}"] = lambda A=A: validate(A)
    out["validate.su2_n48"] = lambda A=random_pc_matrix(SU2, 48, rng): validate(A)
    out["validate.u1_n9"] = lambda A=random_pc_matrix(U1, 9, rng): validate(A)
    save_matrix(random_pc_matrix(U1, 9, rng), tmp / "u1_9.json")
    save_matrix(from_upper_triangle(RPLUS, np.exp(rng.normal(size=36)).tolist()), tmp / "rplus_9.csv")
    for name, file in (("rplus_csv_n9", "rplus_9.csv"), ("u1_n9", "u1_9.json")):  # the ahp-small readers
        out[f"load_matrix.{name}"] = lambda path=tmp / file: load_matrix(path)
    K = full_simplex(4)
    save_obj(complex_to_obj(K), tmp / "simplex4.json")
    theta = rng.uniform(-np.pi, np.pi, len(K.edges)).tolist()
    save_obj(field_to_obj(EdgeField(U1, dict(zip(K.edges, theta)))), tmp / "u1_field.json")
    for shape in ((600, 4), (1300,)):
        a, b, c = (U1.batch_haar_sample(rng, shape) for _ in range(3))
        size = "x".join(map(str, shape))
        out[f"u1.batch_multiply.{size}"] = lambda a=a, b=b: U1.batch_multiply(a, b)
        out[f"u1.batch_defect.{size}"] = lambda a=a, b=b, c=c: U1.batch_defect(a, b, c)
    values = rng.uniform(0.0, np.pi, 600)
    out["estimate.600"] = lambda: _estimate(values, 0, "mean_curvature_In")
    hist, est = ii_distribution(U1, 5, N=440, seed=int(rng.integers(2**31)))
    random_pc_report = _mc_report("u1", est, hist.to_obj())  # as cli.cmd_montecarlo builds it
    out["json_text.montecarlo_random_pc5"] = lambda: json_text(random_pc_report)
    haar_mc = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]["haar-mc"]["inputs"]
    simplex3 = full_simplex(3)
    for cfg in haar_mc["configs"]:
        group = {"u1": U1, "su2": SU2}[cfg["group"]]
        if "random_pc" in cfg:
            K, obs = None, Observable("ii3_of_random_matrix", n=cfg["random_pc"])
        else:
            K, obs = simplex3, Observable(cfg["observable"], loop=tuple(cfg["loop"]) if "loop" in cfg else None)
        name = f"expectation.{cfg['group']}_{obs.tag}_N{cfg['N']}"
        out[name] = lambda K=K, group=group, obs=obs, N=cfg["N"]: expectation(K, group, obs, N=N, seed=7)
    out["is_consistent.su2_n48"] = lambda A=dense(48): is_consistent(A)
    consistent = from_gauge_vector(SU2, SU2.batch_haar_sample(rng, (60,)).tolist())
    out["is_consistent.su2_consistent_n60"] = lambda: is_consistent(consistent)
    calls = {
        "check": ["check", str(tmp / "u1_9.json")],
        "consistencize": ["consistencize", str(tmp / "rplus_9.csv"), "--method", "abelian"],
        "holonomy": ["holonomy", str(tmp / "simplex4.json"), str(tmp / "u1_field.json")],
        "holonomy_su2_grid20": ["holonomy", str(tmp / "grid20.json"), str(tmp / "su2_grid20_field.json")],
        "montecarlo": ["montecarlo", "--random-pc", "5", "--group", "u1", "-N", "256", "--seed", "5"],
        "montecarlo_complex": [
            "montecarlo", "--complex", simplex3_path, "--group", "su2",
            "--observable", "mean_curvature_In", "-N", "200", "--seed", "5",
        ],
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
