"""Compare the CLI's stdout, stderr and exit codes between two source trees.

    python bench/stdout.py --baseline-src OLD/src              # first 24 operations, seed 4242
    python bench/stdout.py --baseline-src src --ops 2 --seed 1 # quick: the tree against itself

It builds the first ``--ops`` operations of each benchmark workload with
``perfbench.inputs.build`` at ``--seed`` and runs every call of them through
``holopc.cli.main`` in one interpreter per source tree: the ``src/`` of the
checkout it is in, and the baseline tree.  After each operation it makes one
call of a fixed list of usage errors and help requests, so a parser that
kept state from one call to the next would change the calls after it.  It
lists each call whose exit code, stdout or stderr differs, with the first
differing line, and exits 1 if any call differs.  Comparing a tree with
itself checks that reports repeat across processes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worker(src: str, calls_path: str, out_dir: str) -> None:
    """Run each argv of the JSON list at ``calls_path`` with the ``holopc``
    under ``src``; write call c's stdout to ``out_dir/c.out`` and its stderr
    to ``out_dir/c.err``, and print the exit codes as a JSON list (a raised
    exception is its type's name)."""
    sys.path.insert(0, src)
    import holopc.cli

    if Path(holopc.cli.__file__).resolve().parent != (Path(src) / "holopc").resolve():
        raise ImportError(f"holopc was imported from {holopc.cli.__file__}, not from {src}")
    codes = []
    for c, argv in enumerate(json.loads(Path(calls_path).read_text())):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = holopc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising call is compared by its exception type
            code = type(exc).__name__
        codes.append(code)
        (Path(out_dir) / f"{c}.out").write_text(out.getvalue())
        (Path(out_dir) / f"{c}.err").write_text(err.getvalue())
    print(json.dumps(codes))


def usage_calls(work: Path) -> list[list[str]]:
    """Argv that argparse or the subcommand refuses with exit 2, or answers
    with help, each the same for a parser built per call or once, and for a
    parse entered at the subcommand or at the top."""
    matrix = work / "usage.csv"
    matrix.write_text("1,2\n0.5,1\n")
    triangle = work / "usage_triangle.json"
    triangle.write_text('{"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "triangles": [[0, 1, 2]], "base": 0}\n')
    return [
        ["chek"],
        ["check"],
        ["montecarlo", "--random-pc", "3", "--group", "u1", "--format", "xml"],
        ["consistencize", str(matrix), "--method", "newton"],
        ["holonomy", "-h"],
        ["check", str(matrix), "--bogus"],  # arguments the subcommand leaves: the full parser's error
        ["montecarlo", "--complex", str(triangle), "--group", "u1", "--bogus"],
    ]


def build_calls(ops: int, seed: int, work: Path) -> list[tuple[str, int, list[str]]]:
    """``(workload, operation, argv)`` of every call of the first ``ops``
    operations of each workload, with the inputs written under ``work``;
    after each operation, the next of the ``usage_calls`` in turn."""
    sys.path.insert(0, str(ROOT))
    from perfbench import inputs

    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    work.mkdir(parents=True)
    usage = itertools.cycle(usage_calls(work))
    calls = []
    for name, wl in spec.items():
        op_at = inputs.build(name, wl["inputs"], seed, work / name)
        for k in range(ops):
            calls += [(name, k, argv) for _, argv, _ in op_at(k)]
            calls.append((name, k, next(usage)))
    return calls


def run_tree(src: Path, calls_path: Path, out_dir: Path) -> list:
    out_dir.mkdir()
    cmd = [sys.executable, __file__, "--worker", str(src), str(calls_path), str(out_dir)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=1800).stdout)


def first_difference(a: str, b: str) -> str:
    for line, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {line}: {x.strip()[:80]!r} vs {y.strip()[:80]!r}"
    return f"lengths {len(a)} vs {len(b)} bytes"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline-src", help="source tree to compare with (required)")
    parser.add_argument("--ops", type=int, default=24, help="operations per workload")
    parser.add_argument("--seed", type=int, default=4242, help="workload seed")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(*args.worker)
    if not args.baseline_src:
        parser.error("--baseline-src is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        calls = build_calls(args.ops, args.seed, tmp / "inputs")
        calls_path = tmp / "calls.json"
        calls_path.write_text(json.dumps([argv for _, _, argv in calls]))
        trees = {"change": ROOT / "src", "baseline": Path(args.baseline_src).resolve()}
        codes = {tree: run_tree(src, calls_path, tmp / tree) for tree, src in trees.items()}
        differ = 0
        for c, (name, k, argv) in enumerate(calls):
            a, b = ((tmp / tree / f"{c}.out").read_text() for tree in trees)
            ea, eb = ((tmp / tree / f"{c}.err").read_text() for tree in trees)
            if codes["change"][c] != codes["baseline"][c] or a != b or ea != eb:
                differ += 1
                if a != b:
                    what = first_difference(a, b)
                elif ea != eb:
                    what = "stderr " + first_difference(ea, eb)
                else:
                    what = f"exit {codes['change'][c]} vs {codes['baseline'][c]}"
                print(f"{name} op {k}: holopc {' '.join(Path(x).name for x in argv)}: {what}")
    print(f"{len(calls)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
