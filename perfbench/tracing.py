"""Tracing from outside the program: spans around public functions and
aggregate counters on the group methods.

:class:`Tracer` replaces each traced function by a wrapper in every loaded
``holopc`` module that holds a reference to it, because a name bound by
``from .x import y`` is a separate binding in each importing module and a
call through an unpatched binding would escape the trace.  Group methods are
patched on their classes.  Spans are ``(name, start, end, parent)`` tuples
kept in memory; ``write`` stores them as JSON lines once the run is over.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

GROUP_METHODS = ("check", "multiply", "inverse", "distance", "log_coords", "exp_coords", "haar_sample")
GROUP_TAGS = ("rplus", "u1", "su2")
SPANNED = {
    "pcmatrix": ("validate", "is_consistent", "ii_indicator", "ii3_matrix"),
    "consistencize": ("consistencize_abelian", "consistencize_riemannian"),
    "simplicial": (
        "holonomy_pc_matrix",
        "spanning_tree_gauge",
        "path_holonomy",
        "triangle_curvature",
        "global_ii",
        "plaquette",
    ),
    "integrate": ("expectation", "ii_distribution", "sample_rng", "sample_field"),
    "serialize": ("load_matrix", "complex_from_obj", "field_from_obj", "matrix_to_obj"),
}
COUNTED = {"consistencize": ("lsq_objective", "lsq_gradient")}
SWEEPS = ("pcmatrix.is_consistent", "pcmatrix.ii_indicator", "pcmatrix.ii3_matrix")
SUBCOMMANDS = ("check", "consistencize", "holonomy", "montecarlo")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counters = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.totals = defaultdict(int)  # quantities read from arguments and results
        self._pending: list = []  # work done after a CLI call, outside every span
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, t0, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += perf_counter() - t0

        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span, e.g. one CLI call."""
        return self._span(name, fn)(*args)

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, wrapped) -> None:
        for mod in [m for k, m in sys.modules.items() if k == "holopc" or k.startswith("holopc.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        from holopc import groups, pcmatrix

        for tag in GROUP_TAGS:
            cls = type(groups.group_from_tag(tag))
            for meth in GROUP_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self._counter(f"groups.{tag}.{meth}", cls.__dict__[meth]))
        self._patch(pcmatrix.PCMatrix, "__init__", self._span("pcmatrix.PCMatrix", pcmatrix.PCMatrix.__init__))
        hooks = {
            "consistencize.consistencize_riemannian": self._after_descent,
            "integrate.expectation": self._after_mc,
            "integrate.ii_distribution": self._after_mc,
            "simplicial.holonomy_pc_matrix": self._after_holonomy,
        }
        hooks.update({name: self._after_sweep for name in SWEEPS})
        for modname, names in SPANNED.items():
            mod = sys.modules[f"holopc.{modname}"]
            for fname in names:
                key = f"{modname}.{fname}"
                self._rebind(getattr(mod, fname), self._span(key, getattr(mod, fname), hooks.get(key)))
        for modname, names in COUNTED.items():
            mod = sys.modules[f"holopc.{modname}"]
            for fname in names:
                self._rebind(getattr(mod, fname), self._counter(f"{modname}.{fname}", getattr(mod, fname)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- result hooks ----------------------------------------------------------

    def _after_descent(self, args, kwargs, result) -> None:
        self.totals["descent_iterations"] += result.iterations

    def _after_mc(self, args, kwargs, result) -> None:
        est = result[1] if isinstance(result, tuple) else result  # ii_distribution: (hist, est)
        self.totals["mc_samples"] += est.samples

    def _after_sweep(self, args, kwargs, result) -> None:
        self.totals["triads"] += math.comb(args[0].n, 3)

    def _after_holonomy(self, args, kwargs, A) -> None:
        self._pending.append(A)

    def flush(self) -> None:
        """Count the gap pattern of holonomy matrices built by the last call."""
        for A in self._pending:
            filled = sum(e is not None for row in A.entries for e in row) - A.n
            self.totals["holonomy_filled"] += filled
            self.totals["holonomy_cells"] += A.n * A.n
        self._pending.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}) + "\n")

    def metrics(self, report_bytes: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; ``units`` gives their units."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, float] = {}
        for tag in GROUP_TAGS:
            for meth in GROUP_METHODS:
                if tag == "rplus" and meth == "haar_sample":
                    continue  # rplus has no Haar measure
                c, s = self.counters[f"groups.{tag}.{meth}"]
                out[f"groups.{tag}.{meth}.calls"] = c
                out[f"groups.{tag}.{meth}.s"] = s

        def total(meth):
            return sum(self.counters[f"groups.{t}.{meth}"][0] for t in GROUP_TAGS)

        out["groups.check_per_op"] = ratio(total("check"), total("multiply") + total("inverse") + total("distance"))
        for fname in ("PCMatrix",) + SPANNED["pcmatrix"]:
            out[f"pcmatrix.{fname}.s"] = busy[f"pcmatrix.{fname}"]
        out["pcmatrix.triads_per_s"] = ratio(self.totals["triads"], sum(busy[n] for n in SWEEPS))

        for fname in SPANNED["consistencize"]:
            out[f"consistencize.{fname}.s"] = busy[f"consistencize.{fname}"]
        evals = self.counters["consistencize.lsq_objective"][0]
        out["consistencize.objective_evals"] = evals
        out["consistencize.gradient_evals"] = self.counters["consistencize.lsq_gradient"][0]
        out["consistencize.iterations"] = self.totals["descent_iterations"]
        out["consistencize.accept_ratio"] = ratio(self.totals["descent_iterations"], evals)
        abelian = {sid for sid, s in enumerate(self.spans) if s[0] == "consistencize.consistencize_abelian"}
        fell_back = {s[3] for s in self.spans if s[0] == "consistencize.consistencize_riemannian" and s[3] in abelian}
        out["consistencize.fallback_ratio"] = ratio(len(fell_back), len(abelian))

        for fname in SPANNED["simplicial"]:
            out[f"simplicial.{fname}.s"] = busy[f"simplicial.{fname}"]
            out[f"simplicial.{fname}.calls"] = calls[f"simplicial.{fname}"]
        out["simplicial.cell_fill_ratio"] = ratio(self.totals["holonomy_filled"], self.totals["holonomy_cells"])

        for fname in SPANNED["integrate"]:
            out[f"integrate.{fname}.s"] = busy[f"integrate.{fname}"]
            out[f"integrate.{fname}.calls"] = calls[f"integrate.{fname}"]
        mc_time = busy["integrate.expectation"] + busy["integrate.ii_distribution"]
        out["integrate.us_per_sample"] = 1e6 * ratio(mc_time, self.totals["mc_samples"])

        for fname in SPANNED["serialize"]:
            out[f"serialize.{fname}.s"] = busy[f"serialize.{fname}"]
        out["serialize.report_bytes"] = report_bytes

        for sub in SUBCOMMANDS:
            roots = [sid for sid, s in enumerate(self.spans) if s[0] == f"cli.{sub}"]
            out[f"cli.{sub}.self_s"] = sum(self.spans[r][2] - self.spans[r][1] - child_time[r] for r in roots)
        return out


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the workload never reached the denominator."""
    return num / den if den else 0.0


def units(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_evals") or name.endswith(".iterations"):
        return "count"
    if name.endswith("triads_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("us_per_sample"):
        return "us"
    if name.endswith("report_bytes"):
        return "bytes"
    return "ratio"
