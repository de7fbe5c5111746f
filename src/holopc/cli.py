"""Batch command-line front end.

Subcommands: ``check`` validates and scores a matrix file, ``consistencize``
writes a nearby consistent matrix, ``holonomy`` builds the matrix and
curvature report of an edge field on a complex, and ``montecarlo`` runs
product-Haar estimates.  Reports are JSON on stdout; exit codes are 0 for
success (for ``check``: consistent), 1 for a valid but inconsistent matrix,
and 2 for invalid input.

Each call of :func:`main` builds its own parser, and only the named
subcommand's (about a third of the cost of all four): help, usage and
errors read as the full parser's, which a call that names no subcommand
gets.  The parser is not cached across calls: the benchmark harness
(``perfbench/run.py``) keeps one record per completed call, so the extra
calls a cache allows raised its peak memory by up to 11 %, past that
metric's 10 % bound.  The cache waits until those records are folded.
"""

from __future__ import annotations

import argparse
import math
import sys

from .consistencize import _check_solver_options, consistencize_abelian, consistencize_riemannian
from .errors import ParseError
from .groups import group_from_tag
from .integrate import Observable, expectation, ii_distribution
from .pcmatrix import _require_nonnegative, ii_n_chain, is_consistent, validate
from .serialize import (
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
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


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
        "lambda": [G.checked_to_obj(v) for v in result.lam],
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
        hist, est = ii_distribution(group, n=args.random_pc, N=args.samples, seed=args.seed)
        report = _mc_report(group.tag, est, hist.to_obj())
        if args.format == "csv":
            if not args.out:
                return _fail("--format csv needs --out for the histogram file")
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
    K = complex_from_obj(load_json(args.complex))
    obs = Observable(args.observable, loop=tuple(args.loop) if args.loop else None)
    est = expectation(K, group, obs, N=args.samples, seed=args.seed)
    _print_report(_mc_report(group.tag, est, None), args.out)
    return 0


def _add_check(p: argparse.ArgumentParser) -> None:
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


def _add_consistencize(p: argparse.ArgumentParser) -> None:
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


def _add_holonomy(p: argparse.ArgumentParser) -> None:
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("field", help="edge field JSON file")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_holonomy)


def _add_montecarlo(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--complex", help="complex JSON file to sample fields on")
    src.add_argument("--random-pc", type=int, metavar="N_INDEX", help="sample random n x n matrices instead")
    p.add_argument("--group", required=True, help="compact group tag (u1, su2, zmod:<m>)")
    p.add_argument("--observable", default="mean_curvature_In", help="observable tag")
    p.add_argument("--loop", type=int, nargs="+", help="vertex loop for wilson_character")
    p.add_argument("-N", "--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="report (json) or histogram (csv) destination")
    p.set_defaults(func=cmd_montecarlo)


_SUBCOMMANDS = (
    ("check", "validate a matrix file and score its inconsistency", _add_check),
    ("consistencize", "replace a matrix by a nearby consistent one", _add_consistencize),
    ("holonomy", "matrix and curvature report of a field on a complex", _add_holonomy),
    ("montecarlo", "product-Haar Monte Carlo estimates", _add_montecarlo),
)
_NAMES = tuple(name for name, _, _ in _SUBCOMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``command`` the parser of that
    one alone.  The latter parses that subcommand's argv exactly as the full
    parser does: the usage that argparse prints on unrecognized arguments
    still names all four subcommands (a ``metavar`` on the full parser would
    instead rename ``command`` in its "required" and "invalid choice"
    errors)."""
    parser = argparse.ArgumentParser(
        prog="holopc",
        description="Group-valued pairwise comparisons and holonomy fields.",
    )
    metavar = None if command is None else "{" + ",".join(_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, text, add in _SUBCOMMANDS:
        if command in (None, name):
            add(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # build only the parser of the subcommand named first; anything else
    # (no argument, -h, a misspelled command) gets the full parser
    command = argv[0] if argv and argv[0] in _NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(str(exc))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
