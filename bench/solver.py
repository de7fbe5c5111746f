"""Compare the Newton consistencizer's steps and residuals between two source trees.

    python bench/solver.py --baseline-src OLD/src            # every input of every set
    python bench/solver.py --baseline-src src --limit 2      # quick: the tree against itself

It runs ``consistencize_riemannian`` on fixed su2 inputs drawn by
``perfbench.inputs.su2_matrix`` (import only), in one interpreter per source
tree: the ``src/`` of the checkout it is in, and the baseline tree.  The sets
are those of ROADMAP item 2, and the benchmark's ``su2-dense`` repairs:

- A: 24 matrices, n = 20, noise 1.0, ``default_rng(8)``;
- B: 6 matrices, n = 18, noise 0.1, ``default_rng(4242)``;
- C: 6 matrices, n = 20, noise 0.3, ``default_rng(7)``;
- su2-dense: the 16 ``consistencize`` inputs of that workload at seed 4242.

Each set's matrices are drawn in turn from its one generator.  For each input
it prints the accepted steps and the residual of both trees, and flags a
residual above the baseline's by more than a relative 1e-9 (rounding of the
same minimum is about 1e-13).  It exits 1 if any residual is flagged or a run
raises in one tree only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETS = {"A": (24, 20, 1.0, 8), "B": (6, 18, 0.1, 4242), "C": (6, 20, 0.3, 7)}  # count, n, noise, seed
RELATIVE = 1e-9  # a residual this much above the baseline's is flagged


def inputs(limit: int | None) -> dict[str, list[np.ndarray]]:
    """Each set's (n, n, 4) entry arrays, the first ``limit`` of each."""
    sys.path.insert(0, str(ROOT))
    from perfbench.inputs import su2_matrix

    out = {}
    for name, (count, n, noise, seed) in SETS.items():
        rng = np.random.default_rng(seed)
        out[name] = [su2_matrix(rng, n, noise) for _ in range(count)]
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]["su2-dense"]["inputs"]
    rng = np.random.default_rng([4242, sum(map(ord, "su2-dense"))])  # as perfbench.inputs.build draws them
    dense = []
    for k in range(spec["pool"]):
        n_check, n_desc = spec["pairs"][k % len(spec["pairs"])]
        su2_matrix(rng, n_check, spec["noise"])  # the check input, drawn first
        dense.append(su2_matrix(rng, n_desc, spec["noise"]))
    out["su2-dense"] = dense
    return {name: mats[:limit] for name, mats in out.items()}


def worker(src: str, limit: int | None) -> None:
    """Print ``{set: [[steps, residual, ms] or exception name, ...]}`` for the
    ``holopc`` under ``src``."""
    sys.path.insert(0, src)
    from holopc.consistencize import consistencize_riemannian
    from holopc.groups import SU2
    from holopc.pcmatrix import from_upper_triangle

    out = {}
    for name, mats in inputs(limit).items():
        rows = []
        for M in mats:
            A = from_upper_triangle(SU2, [tuple(q) for q in M[np.triu_indices(len(M), 1)].tolist()])
            t = perf_counter()
            try:
                result = consistencize_riemannian(A)
            except Exception as exc:  # compared by its type's name
                rows.append(type(exc).__name__)
                continue
            rows.append([result.iterations, result.residual, 1e3 * (perf_counter() - t)])
        out[name] = rows
    print(json.dumps(out))


def run_tree(src: Path, limit: int | None) -> dict:
    cmd = [sys.executable, __file__, "--worker", str(src)] + ([] if limit is None else ["--limit", str(limit)])
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=1800).stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline-src", help="source tree to compare with (required)")
    parser.add_argument("--limit", type=int, help="inputs per set (default: all)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args.worker, args.limit)
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    change, base = run_tree(ROOT / "src", args.limit), run_tree(Path(args.baseline_src).resolve(), args.limit)
    flagged = 0
    for name in change:
        print(f"set {name}: input, steps (baseline -> change), residual (baseline -> change), ms (baseline -> change)")
        steps = {"baseline": [], "change": []}
        lower = higher = 0
        for k, (c, b) in enumerate(zip(change[name], base[name])):
            if isinstance(c, str) or isinstance(b, str):
                bad = c != b
                flagged += bad
                print(f"  {k:3d}  raised {b} -> {c}" + ("  DIFFERS" if bad else ""))
                continue
            steps["baseline"].append(b[0])
            steps["change"].append(c[0])
            high = c[1] > b[1] + RELATIVE * max(b[1], 1e-300)
            higher += high
            lower += c[1] < b[1] - RELATIVE * b[1]
            mark = "  HIGHER" if high else ""
            print(f"  {k:3d}  {b[0]:4d} -> {c[0]:4d}  {b[1]:.6f} -> {c[1]:.6f}  {b[2]:7.2f} -> {c[2]:7.2f}{mark}")
        flagged += higher
        if steps["change"]:
            print(
                f"  median steps {statistics.median(steps['baseline'])} -> {statistics.median(steps['change'])},"
                f" max {max(steps['baseline'])} -> {max(steps['change'])};"
                f" residual lower on {lower}, higher on {higher}, of {len(steps['change'])}"
            )
    print(f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
