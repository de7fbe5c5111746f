"""Batch command-line front end.

Subcommands: ``check`` validates and scores a matrix file, ``consistencize``
writes a nearby consistent matrix, ``holonomy`` builds the matrix and
curvature report of an edge field on a complex, and ``montecarlo`` runs
product-Haar estimates.  Reports are JSON on stdout; exit codes are 0 for
success (for ``check``: consistent), 1 for a valid but inconsistent matrix,
and 2 for invalid input.

Every call of :func:`main` in a process parses with one parser, built on
its first call, so importing this module costs no more for it.  Reuse is
safe because argparse keeps no state between parses: each one fills a new
namespace.  Building a parser on every call took about as long as the rest
of a small matrix's ``check`` or ``consistencize`` call; in 10 alternating
24 s pairs of the benchmark's ``ahp-small`` workload (``perfbench``, seed
4242), reusing one took the median operation from 1.70 to 0.91 ms.

When the first argument names a subcommand, :func:`main` parses the rest
with that subcommand's parser, taken from the shared parser's subparsers
action, and sets ``command`` itself: that is all the top-level parse would
do with such an argv, and it cost as much again as the subcommand's own
parse.  Every other argv (none, ``-h``, a misspelled subcommand) and every
argv whose subcommand leaves arguments unrecognized goes to the full
parser, the one parser that answers them; so help, usage and errors are
argparse's own.  With input files read by plain ``open``
(``serialize._read``), this took the median ``haar-mc`` operation (8
``montecarlo`` calls) from 3.75 to 3.34 ms in 10 alternating 24 s pairs of
the benchmark at seed 7, 10 of 10 pairs faster.

:func:`main` runs the command with Python's cyclic garbage collector
paused, as Mercurial's ``util.nogc`` pauses it while it builds large
containers, and turns it back on afterwards only if it was on before.  The
commands make no reference cycles: with the collector off, 200 operations
of any benchmark workload leave the 88 objects that building the shared
parser leaves once per process, and no more (``gc.collect()``).  But
``json.loads`` of a large document builds thousands of containers, and
each allocation threshold they cross starts a collection that scans every
live container for nothing.  A ``holonomy`` call on the su2 field of
``grid_complex(20)`` (1,240 edges) started 8 collections, 0.71-0.96 ms of
the call, and a ``check`` and a ``consistencize`` call on dense su2
matrices 4 together, 0.32-0.54 ms (``gc.callbacks``, the ``lattice`` and
``su2-dense`` benchmark workloads at seed 4242, 60-300 operations a run,
shared 2-vCPU host).  The other two workloads started a collection in
fewer than 1 of 50 calls.  The library's functions leave
the collector as their caller set it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys

from .consistencize import _check_solver_options, consistencize_abelian, consistencize_riemannian
from .groups import group_from_tag
from .integrate import Observable, expectation, ii_distribution
from .pcmatrix import _require_nonnegative, ii_n_chain, is_consistent, validate
from .serialize import (
    Carriers,
    Records,
    complex_from_obj,
    field_from_obj,
    json_text,
    load_json,
    load_matrix,
    save_matrix,
)
from .simplicial import _triangle_scores, holonomy_pc_matrix


def _print_report(report: dict, out: str | None) -> None:
    text = json_text(report)
    if out:  # written first, so that a path that cannot be written leaves stdout empty
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_check(args) -> int:
    A = load_matrix(args.matrix, fmt=args.format)
    _require_nonnegative("tol", args.tol)  # checked on every matrix: bad values are input errors
    _require_nonnegative("epsilon", args.epsilon)
    if args.group and A.group.tag != args.group:
        return _fail(f"matrix group is {A.group.tag}, not {args.group}")
    violations = validate(A)
    report = {
        "valid": not violations,
        "violations": [list(v) for v in violations],
        "group": A.group.tag,
        "n": A.n,
        "variance": A.variance,
        "gaps": not A.gap_free,
        "tol": args.tol,
        "consistent": None,
        "witness": None,
        "ii3": None,
        "ii_n": None,
        "ii_In": None,
        "worst_triad": None,
        "epsilon": args.epsilon,
        "within_epsilon": None,
    }
    if violations:
        _print_report(report, args.out)
        return 2
    if A.gap_free:
        # one sweep: the consistency defect is the default indicator ii_In
        chk = is_consistent(A, tol=args.tol)
        triad = list(chk.worst_triad) if chk.worst_triad else None
        report["consistent"] = chk.consistent
        report["witness"] = None if chk.consistent else triad
        report["ii_In"] = chk.worst_defect
        report["worst_triad"] = triad
        if A.group.tag == "rplus":
            report["ii3"] = -math.expm1(-chk.worst_defect)  # ii3 = 1 - exp(-ii_In), monotone: the same sweep's max
            report["ii_n"] = ii_n_chain(A)
        # epsilon is on the ii3 scale: compare 1 - exp(-ii_In) < epsilon, computed as the ii3 above
        report["within_epsilon"] = bool(-math.expm1(-chk.worst_defect) < args.epsilon)
        _print_report(report, args.out)
        return 0 if chk.consistent else 1
    _print_report(report, args.out)
    return 0


def cmd_consistencize(args) -> int:
    A = load_matrix(args.matrix, fmt=args.format)
    _check_solver_options(args.max_iter, args.tol)  # also for abelian, which ignores them: bad values are input errors
    if args.method == "abelian":
        result = consistencize_abelian(A)
    else:
        result = consistencize_riemannian(A, max_iter=args.max_iter, tol=args.tol)
    G = A.group
    report = {
        "group": G.tag,
        "n": A.n,
        "method": args.method,
        "lambda": Carriers(G, G.to_array(result.lam)),
        "matrix": result.matrix,
        "residual": result.residual,
        "ii_before": result.ii_before,
        "ii_after": result.ii_after,
        "iterations": result.iterations,
        "status": result.status,
    }
    if args.out:
        save_matrix(result.matrix, args.out)
        report["out"] = args.out
    _print_report(report, None)
    return 0


def cmd_holonomy(args) -> int:
    K = complex_from_obj(load_json(args.complex))
    F = field_from_obj(load_json(args.field))
    A = holonomy_pc_matrix(K, F)
    # the bi-invariant indicator cannot see the conjugation that basing the
    # loop at the base vertex adds, so the plaquette scores each triangle;
    # global_ii is the first maximum of the same scores
    scores, value, worst = _triangle_scores(K, F, None)
    report = {
        "group": F.group.tag,
        "vertices": K.vertices,
        "matrix": A,
        "curvatures": Records(in_value=scores, triangle=K._tri_array),
        "global_ii": value,
        "worst_triangle": list(worst) if worst else None,
    }
    _print_report(report, args.out)
    return 0


def _mc_report(group_tag: str, est, histogram) -> dict:
    return {
        "observable": est.observable,
        "group": group_tag,
        "N": est.samples,
        "seed": est.seed,
        "mean": est.mean,
        "std_error": est.std_error,
        "histogram": histogram,
    }


def cmd_montecarlo(args) -> int:
    group = group_from_tag(args.group)
    if args.random_pc is not None:
        if args.observable is not None or args.loop is not None:
            return _fail("--observable and --loop apply to --complex only; --random-pc scores ii3_of_random_matrix")
        if args.format == "csv" and not args.out:
            return _fail("--format csv needs --out for the histogram file")
        hist, est = ii_distribution(group, n=args.random_pc, N=args.samples, seed=args.seed)
        report = _mc_report(group.tag, est, hist.to_obj())
        if args.format == "csv":
            lines = ["bin_lo,bin_hi,count"]
            for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
                lines.append(f"{lo!r},{hi!r},{c}")
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            report["histogram_csv"] = args.out
            _print_report(report, None)
            return 0
        _print_report(report, args.out)
        return 0

    if args.format == "csv":
        return _fail("--format csv applies to --random-pc histograms only")
    obs = Observable(
        "mean_curvature_In" if args.observable is None else args.observable,
        loop=tuple(args.loop) if args.loop else None,
    )
    if obs.loop is not None and obs.tag != "wilson_character":
        return _fail("--loop applies to --observable wilson_character only")
    K = complex_from_obj(load_json(args.complex))
    est = expectation(K, group, obs, N=args.samples, seed=args.seed)
    _print_report(_mc_report(group.tag, est, None), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="holopc",
        description="Group-valued pairwise comparisons and holonomy fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a matrix file and score its inconsistency")
    p.add_argument("matrix", help="matrix file (JSON, or CSV for positive reals)")
    p.add_argument("--group", help="expected group tag")
    p.add_argument(
        "--tol", type=float, default=1e-9, help="consistency tolerance on the worst triad defect ii_In (>= 0)"
    )
    p.add_argument(
        "--epsilon",
        type=float,
        default=1.0 / 3.0,
        help="neighborhood size on the ii3 scale (>= 0): within_epsilon holds when 1 - exp(-ii_In) < epsilon",
    )
    p.add_argument("--format", choices=("json", "csv"), help="override format inference")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("consistencize", help="replace a matrix by a nearby consistent one")
    p.add_argument("matrix")
    p.add_argument("--method", choices=("abelian", "riemannian"), required=True)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="riemannian: stop once a step lowers the objective by less than this, "
        "or the model predicts a decrease below this times the objective",
    )
    p.add_argument("--max-iter", type=int, default=500, help="riemannian: most accepted Newton steps")
    p.add_argument("--format", choices=("json", "csv"), help="override input format inference")
    p.add_argument("--out", help="write the consistent matrix here")
    p.set_defaults(func=cmd_consistencize)

    p = sub.add_parser("holonomy", help="matrix and curvature report of a field on a complex")
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("field", help="edge field JSON file")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("montecarlo", help="product-Haar Monte Carlo estimates")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--complex", help="complex JSON file to sample fields on")
    src.add_argument("--random-pc", type=int, metavar="N_INDEX", help="sample random n x n matrices instead")
    p.add_argument("--group", required=True, help="compact group tag (u1, su2, zmod:<m>)")
    p.add_argument("--observable", help="observable tag (default mean_curvature_In)")
    p.add_argument("--loop", type=int, nargs="+", help="vertex loop for wilson_character")
    p.add_argument("-N", "--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="report (json) or histogram (csv) destination")
    p.set_defaults(func=cmd_montecarlo)

    return parser


@functools.cache
def _shared_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of :func:`build_parser`, built on the first :func:`main`
    call, and its subcommand parsers by name."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _shared_parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, unknown = sub.parse_known_args(argv[1:])
        args.command = argv[0]
    if sub is None or unknown:  # argparse's own answer: help, a usage error, or unrecognized arguments
        args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a ParseError is a ValueError
        return _fail(str(exc))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
