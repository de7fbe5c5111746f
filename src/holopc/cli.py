"""Batch command-line front end.

Subcommands: ``check`` validates and scores a matrix file, ``consistencize``
writes a nearby consistent matrix, ``holonomy`` builds the matrix and
curvature report of an edge field on a complex, and ``montecarlo`` runs
product-Haar estimates.  Reports are JSON on stdout; exit codes are 0 for
success (for ``check``: consistent), 1 for a valid but inconsistent matrix,
and 2 for invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .consistencize import _check_solver_options, consistencize_abelian, consistencize_riemannian
from .errors import ParseError
from .groups import group_from_tag
from .integrate import Observable, expectation, ii_distribution
from .pcmatrix import (
    ii3_matrix,
    ii_indicator,
    ii_n_chain,
    is_consistent,
    validate,
)
from .serialize import (
    complex_from_obj,
    field_from_obj,
    load_json,
    load_matrix,
    matrix_to_obj,
    save_matrix,
    save_obj,
)
from .simplicial import _triangle_scores, holonomy_pc_matrix


def _print_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_check(args) -> int:
    A = load_matrix(args.matrix, fmt=args.format)
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
        chk = is_consistent(A, tol=args.tol)
        value, triad = ii_indicator(A)
        report["consistent"] = chk.consistent
        report["witness"] = None if chk.consistent else list(chk.worst_triad)
        report["ii_In"] = value
        report["worst_triad"] = list(triad) if triad else None
        if A.group.tag == "rplus":
            report["ii3"] = ii3_matrix(A)[0]
            report["ii_n"] = ii_n_chain(A)
        # epsilon is on the ii3 scale; compare via 1 - exp(-ii_In) < epsilon
        report["within_epsilon"] = bool(1.0 - math.exp(-value) < args.epsilon)
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
        "matrix": matrix_to_obj(result.matrix),
        "residual": result.residual,
        "ii_before": result.ii_before,
        "ii_after": result.ii_after,
        "iterations": result.iterations,
        "status": result.status,
    }
    if args.out:
        save_matrix(result.matrix, args.out)
        report["out"] = args.out
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    return 0


def cmd_holonomy(args) -> int:
    K = complex_from_obj(load_json(args.complex))
    F = field_from_obj(load_json(args.field))
    A = holonomy_pc_matrix(K, F)
    # the bi-invariant indicator cannot see the conjugation that basing the
    # loop at the base vertex adds, so the plaquette scores each triangle;
    # global_ii is the first maximum of the same scores
    scores, value, worst = _triangle_scores(K, F, None)
    curvatures = [
        {"triangle": list(t), "in_value": v}
        for t, v in zip(K.triangles, scores.tolist())
    ]
    report = {
        "group": F.group.tag,
        "vertices": K.vertices,
        "matrix": matrix_to_obj(A),
        "curvatures": curvatures,
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
            print(json.dumps(report, indent=2, sort_keys=True))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holopc",
        description="Group-valued pairwise comparisons and holonomy fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a matrix file and score its inconsistency")
    p.add_argument("matrix", help="matrix file (JSON, or CSV for positive reals)")
    p.add_argument("--group", help="expected group tag")
    p.add_argument("--tol", type=float, default=1e-9, help="consistency tolerance")
    p.add_argument("--epsilon", type=float, default=1.0 / 3.0, help="neighborhood size on the ii3 scale")
    p.add_argument("--format", choices=("json", "csv"), help="override format inference")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("consistencize", help="replace a matrix by a nearby consistent one")
    p.add_argument("matrix")
    p.add_argument("--method", choices=("abelian", "riemannian"), required=True)
    p.add_argument(
        "--tol", type=float, default=1e-12, help="riemannian: stop once a step lowers the objective by less than this"
    )
    p.add_argument("--max-iter", type=int, default=500, help="riemannian: most accepted Gauss-Newton steps")
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
    p.add_argument("--observable", default="mean_curvature_In", help="observable tag")
    p.add_argument("--loop", type=int, nargs="+", help="vertex loop for wilson_character")
    p.add_argument("-N", "--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="report (json) or histogram (csv) destination")
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(str(exc))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
