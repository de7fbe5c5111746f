"""holopc benchmark: CLI workloads timed end to end, with a traced variant.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ahp-small --seed 1 --seconds 24 --trace 0

The run generates the workload's inputs from ``--seed`` (see ``inputs.py`` and
``workloads.json``), then acts as one caller in a closed loop: each operation
is a fixed sequence of in-process calls to ``holopc.cli.main(argv)`` with
stdout captured, and the next operation starts when the previous one ends.
Every call's output is checked (``checks.py``) outside the timed region.

``--trace 0`` runs operations for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of operations twice, untraced
and then traced (``tracing.py``), and reports the per-layer metrics of the
traced pass together with the tracing overhead.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the per-subcommand figures and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from checks import CheckError, check_call
from speed import REFERENCE_S, SENSITIVITY, SLICE_SOURCE, SpeedLog
from tracing import SUBCOMMANDS, Tracer, units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


def percentile_tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    c = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(c * p / 100.0)
        if c - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": c}
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "holopc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


SETUP_PROBE = SLICE_SOURCE + """
from time import perf_counter
import sys


def slices(count):
    out = []
    for _ in range(count):
        t = perf_counter()
        calibration_slice()
        out.append(perf_counter() - t)
    return out


calibration_slice()
before = slices(10)
sys.path.insert(0, {src!r})
t0 = perf_counter()
import holopc.cli
t1 = perf_counter()
print(t1 - t0, *before, *slices(10))
"""


def measure_setup(launches: int) -> tuple[float, float]:
    """Median time for a fresh interpreter to import holopc.cli, at
    reference speed and as measured.  Each interpreter times its own import
    and the calibration slices around it."""
    code = SETUP_PROBE.format(src=str(SRC))
    raw, scaled = [], []
    for _ in range(launches):
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=60, capture_output=True, text=True)
        t, *slices = map(float, out.stdout.split())
        raw.append(t)
        scaled.append(t / (statistics.median(slices) / REFERENCE_S) ** SENSITIVITY)
    return statistics.median(scaled), statistics.median(raw)


def import_cli():
    sys.path.insert(0, str(SRC))
    import holopc
    import holopc.cli

    if Path(holopc.__file__).resolve().parent != SRC / "holopc":
        raise ImportError(f"holopc was imported from {holopc.__file__}, not from {SRC}")
    return holopc.cli.main


def call_items(kind: str, meta: dict) -> int:
    """Work items of one call: MC samples, field edges, or one matrix."""
    if kind == "montecarlo":
        return meta["N"]
    if kind == "holonomy":
        return len(meta["field"])
    return 1


class Runner:
    """Runs operations, times each CLI call, and checks its output."""

    def __init__(self, cli_main, op_at):
        self.cli_main = cli_main
        self.op_at = op_at
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, kind: str, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.cli_main(argv)
                else:
                    code = self.tracer.call(f"cli.{kind}", self.cli_main, argv)
        except (Exception, SystemExit) as exc:  # a raising call is a failed call
            error = f"{type(exc).__name__}: {exc}"
        return t0, perf_counter(), code, out.getvalue(), error or err.getvalue().strip()

    def run_op(self, k: int, record: list | None) -> float:
        """Run operation k; append ``(k, kind, start, end, items, stdout bytes)``
        per call and return the operation's call time."""
        total = 0.0
        previous = None
        for kind, argv, meta in self.op_at(k):
            t0, t1, code, out, error = self.invoke(kind, argv)
            if self.tracer is not None:
                self.tracer.flush()
            self.attempted += 1
            total += t1 - t0
            try:
                if code is None:
                    raise CheckError(f"call raised {error}")
                check_call(kind, meta, code, out, previous)
            except CheckError as exc:
                self.failures.append(f"op {k} {' '.join(argv)}: {exc}")
            if record is not None:
                record.append((k, kind, t0, t1, call_items(kind, meta), len(out)))
            previous = out
        return total


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Closed loop for ``seconds``; times are scaled to the reference speed."""
    runner.run_op(0, None)  # warm-up: first-call set-up is excluded from timing
    records = []
    k = 1
    with SpeedLog() as log:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            runner.run_op(k, records)
            k += 1
    calls = [(kind, log.scaled(t0, t1), items) for _, kind, t0, t1, items, _ in records]
    ops = [0.0] * (k - 1)
    raw = [0.0] * (k - 1)
    for (op, _, t0, t1, *_), (_, t, _) in zip(records, calls):
        ops[op - 1] += t
        raw[op - 1] += t1 - t0 - log.busy(t0, t1)
    metrics = {
        "op_ms.p50": (1e3 * statistics.median(ops), "ms"),
        "items_per_s": (sum(c[2] for c in calls) / sum(ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "operations": len(ops),
        "op_ms.tail": percentile_tail([1e3 * t for t in ops]),
        "raw_op_ms.p50": 1e3 * statistics.median(raw),
        "slowdown.p50": statistics.median(log.durations) / REFERENCE_S,
    }
    for sub in SUBCOMMANDS:
        lat = [c[1] for c in calls if c[0] == sub]
        if lat:
            detail[f"{sub}_ms.p50"] = 1e3 * statistics.median(lat)
            detail[f"{sub}_ms.tail"] = percentile_tail([1e3 * t for t in lat])
    mc = [c for c in calls if c[0] == "montecarlo"]
    if mc:
        detail["mc_samples_per_s"] = sum(c[2] for c in mc) / sum(c[1] for c in mc)
    return metrics, detail


def traced_run(runner: Runner, ops: int, spans_path: Path) -> tuple[dict, dict]:
    runner.run_op(0, None)
    untraced = sum(runner.run_op(k, None) for k in range(ops))
    tracer = Tracer()
    runner.tracer = tracer
    calls: list = []
    tracer.install()
    try:
        traced = sum(runner.run_op(k, calls) for k in range(ops))
    finally:
        tracer.uninstall()
        runner.tracer = None
    tracer.write(spans_path)
    values = tracer.metrics(report_bytes=statistics.mean(c[5] for c in calls))
    values["trace.overhead_s"] = traced - untraced
    metrics = {name: (v, units(name)) for name, v in values.items()}
    detail = {"operations": ops, "untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    args = parse_args(argv, list(spec["workloads"]))
    if not (SRC / "holopc" / "cli.py").is_file():
        print(f"error: no holopc sources at {SRC}; run from the root of a holopc checkout", file=sys.stderr)
        return 2
    wl = spec["workloads"][args.workload]
    env = environment(args.seed)
    setup_s, raw_setup_s = measure_setup(spec["setup_launches"])
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        op_at = inputs.build(args.workload, wl["inputs"], args.seed, work)
        runner = Runner(import_cli(), op_at)
        if args.trace:
            ops = max(1, math.ceil(args.seconds * wl["trace_ops_per_s"]))
            spans = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
            metrics, detail = traced_run(runner, ops, spans)
        else:
            metrics, detail = timed_run(runner, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    for message in runner.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    detail.update(
        workload=args.workload,
        trace=args.trace,
        setup_s=setup_s,
        raw_setup_s=raw_setup_s,
        fail_ratio={"value": failed / runner.attempted, "failed": failed, "attempted": runner.attempted},
        env=env,
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
