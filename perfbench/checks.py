"""Output checks for every CLI call the benchmark makes.

Each check takes the call's metadata (the generated input and what is known
about it), the exit code and the captured stdout, and raises
:class:`CheckError` when the output breaks one of the paper's identities or
disagrees with a numpy reference computed here, independently of the
program.  ``check_call`` dispatches on the call kind.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from inputs import qconj, qmul, wrap

CONSISTENT_TOL = 1e-9  # the CLI's default --tol for check
IDENTITY_TOL = 1e-12  # ii3 = 1 - exp(-ii_In) holds to rounding
RESIDUAL_RTOL = 1e-9
RESIDUAL_ATOL = 1e-18  # residuals of consistent inputs are pure rounding
EDGE_TOL = 1e-9
MC_SIGMAS = 5.0


class CheckError(Exception):
    """An output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def parse_report(out: str) -> dict:
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not a JSON report: {exc.msg}") from None
    require(isinstance(report, dict), "report is not a JSON object")
    return report


def valid_triad(t, n: int) -> bool:
    return (
        isinstance(t, list)
        and len(t) == 3
        and all(isinstance(v, int) for v in t)
        and 0 <= t[0] < t[1] < t[2] < n
    )


def matrix_from_report(doc: dict, group: str, n: int) -> np.ndarray:
    require(doc.get("group") == group and doc.get("n") == n, "matrix group or size changed")
    entries = doc.get("entries")
    require(isinstance(entries, list) and len(entries) == n * n, "matrix entries have the wrong length")
    require(all(e is not None for e in entries), "repaired matrix has gaps")
    if group == "u1":
        values = [e["theta"] for e in entries]
    elif group == "su2":
        values = [e["q"] for e in entries]
    else:
        values = entries
    shape = (n, n, 4) if group == "su2" else (n, n)
    return np.array(values, dtype=float).reshape(shape)


def su2_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The program's bi-invariant distance 2 atan2(|a - b|, |a + b|)."""
    return 2.0 * np.arctan2(np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1))


def u1_distance(a, b):
    return np.abs(np.vectorize(wrap)(np.asarray(a) - np.asarray(b)))


def worst_triad_defect(group: str, A: np.ndarray) -> float:
    """max over i<j<k of d(a_ij a_jk, a_ik): zero exactly on consistent matrices."""
    n = A.shape[0]
    if n < 3:
        return 0.0
    i, j, k = np.array(list(itertools.combinations(range(n), 3))).T
    if group == "rplus":
        d = np.abs(np.log(A[i, j]) + np.log(A[j, k]) - np.log(A[i, k]))
    elif group == "u1":
        d = u1_distance(A[i, j] + A[j, k], A[i, k])
    else:
        d = su2_distance(qmul(A[i, j], A[j, k]), A[i, k])
    return float(np.max(d))


def pair_residual(group: str, A: np.ndarray, C: np.ndarray) -> float:
    """sum over i<j of d(a_ij, c_ij)^2."""
    iu, ju = np.triu_indices(A.shape[0], 1)
    if group == "rplus":
        d = np.log(A[iu, ju]) - np.log(C[iu, ju])
    elif group == "u1":
        d = u1_distance(A[iu, ju], C[iu, ju])
    else:
        d = su2_distance(A[iu, ju], C[iu, ju])
    return float(np.sum(d * d))


def row_mean_projection(group: str, A: np.ndarray) -> np.ndarray:
    """Closed-form consistent matrix from log-space row means (principal branch)."""
    L = np.log(A) if group == "rplus" else A
    ell = -L.mean(axis=1)
    diff = ell[None, :] - ell[:, None]
    return np.exp(diff) if group == "rplus" else np.vectorize(wrap)(diff)


def descent_start(A: np.ndarray) -> np.ndarray:
    """The descent's starting matrix c_ij = conj(a_0i) a_0j."""
    lam = A[0]
    return qmul(qconj(lam)[:, None, :], lam[None, :, :])


def check_check(meta: dict, code: int, out: str) -> None:
    r = parse_report(out)
    n = meta["A"].shape[0]
    require(r.get("valid") is True, "a generated matrix was reported invalid")
    require(r.get("n") == n and r.get("group") == meta["group"], "report names the wrong group or size")
    require(code == (0 if r["consistent"] else 1), f"exit code {code} contradicts consistent={r['consistent']}")
    require(r["consistent"] is meta["consistent"], f"consistent={r['consistent']}, expected {meta['consistent']}")
    if meta["consistent"]:
        require(r["ii_In"] <= r["tol"], f"consistent input scored ii_In={r['ii_In']} above tol")
        require(r["witness"] is None, "consistent input reported a witness")
    else:
        require(valid_triad(r["witness"], n), f"witness {r['witness']!r} is not a triad of size {n}")
    require(valid_triad(r["worst_triad"], n), f"worst triad {r['worst_triad']!r} is not a triad")
    if meta["group"] == "rplus":
        gap = abs(r["ii3"] - (1.0 - math.exp(-r["ii_In"])))
        require(gap <= IDENTITY_TOL, f"ii3 = 1 - exp(-ii_In) off by {gap:.3g}")


def check_consistencize(meta: dict, code: int, out: str) -> None:
    require(code == 0, f"exit code {code}")
    r = parse_report(out)
    group, A = meta["group"], meta["A"]
    C = matrix_from_report(r.get("matrix", {}), group, A.shape[0])
    defect = worst_triad_defect(group, C)
    require(defect <= CONSISTENT_TOL, f"repaired matrix is inconsistent: triad defect {defect:.3g}")
    require(r["ii_after"] <= CONSISTENT_TOL, f"ii_after={r['ii_after']:.3g}")
    got = r["residual"]
    require(abs(got - pair_residual(group, A, C)) <= RESIDUAL_RTOL * got + RESIDUAL_ATOL,
            "residual does not match the written matrix")
    if group == "rplus":
        ref = pair_residual(group, A, row_mean_projection(group, A))
        require(abs(got - ref) <= RESIDUAL_RTOL * ref + RESIDUAL_ATOL,
                f"residual {got!r} differs from the row-mean reference {ref!r}")
    elif group == "u1":
        ref = pair_residual(group, A, row_mean_projection(group, A))
        require(got <= ref * (1.0 + RESIDUAL_RTOL) + RESIDUAL_ATOL,
                f"residual {got!r} exceeds the principal-branch closed form {ref!r}")
    else:
        start = pair_residual(group, A, descent_start(A))
        require(got <= start * (1.0 + RESIDUAL_RTOL) + RESIDUAL_ATOL,
                f"descent residual {got!r} exceeds its starting value {start!r}")


def check_holonomy(meta: dict, code: int, out: str) -> None:
    require(code == 0, f"exit code {code}")
    r = parse_report(out)
    K, field = meta["K"], meta["field"]
    n = K["vertices"]
    entries = r.get("matrix", {}).get("entries")
    require(r.get("vertices") == n and isinstance(entries, list) and len(entries) == n * n,
            "holonomy matrix has the wrong size")
    present = [(i, j) for i in range(n) for j in range(n) if i != j and entries[i * n + j] is not None]
    expected = {(i, j) for i, j in field} | {(j, i) for i, j in field}
    require(len(present) == len(expected) and set(present) == expected, "gaps do not fall exactly off the edges")
    require(all(entries[i * n + i] == {"q": [1.0, 0.0, 0.0, 0.0]} for i in range(n)), "diagonal is not the identity")
    keys = list(field)
    got = np.array([entries[i * n + j]["q"] for i, j in keys])
    want = np.array([field[e] for e in keys])
    worst = float(np.max(np.abs(got - want)))
    require(worst <= EDGE_TOL, f"edge entry differs from the field value by {worst:.3g}")
    back = np.array([entries[j * n + i]["q"] for i, j in keys])
    require(float(np.max(np.abs(back - qconj(want)))) <= EDGE_TOL, "reversed edge entry is not the inverse")
    curv = r.get("curvatures")
    require(isinstance(curv, list) and len(curv) == len(K["triangles"]), "one curvature per triangle expected")
    top = max(c["in_value"] for c in curv)
    require(abs(r["global_ii"] - top) <= EDGE_TOL, f"global_ii {r['global_ii']!r} is not the max curvature {top!r}")
    require(r["worst_triangle"] in K["triangles"], "worst triangle is not a triangle of the complex")


def check_montecarlo(meta: dict, code: int, out: str, first_out: str | None = None) -> None:
    require(code == 0, f"exit code {code}")
    if first_out is not None:
        require(out == first_out, "repeated call with the same (seed, N) changed stdout")
    r = parse_report(out)
    require(r.get("N") == meta["N"] and r.get("seed") == meta["seed"], "report names the wrong N or seed")
    mean, se = r["mean"], r["std_error"]
    require(se > 0.0 and math.isfinite(mean), f"degenerate estimate mean={mean!r} se={se!r}")
    tag = meta.get("observable", "ii3_of_random_matrix")
    require(r.get("observable") == tag, f"observable {r.get('observable')!r}, expected {tag!r}")
    if tag == "mean_curvature_In":
        # Haar plaquettes: E d(1, g) = pi/2 on u1 and su2
        require(abs(mean - math.pi / 2) <= MC_SIGMAS * se, f"mean curvature {mean:.4f} not within 5 SE of pi/2")
    elif tag == "wilson_character":
        # the holonomy of a simple loop is Haar, so E chi = 0
        require(abs(mean) <= MC_SIGMAS * se, f"Wilson character {mean:.4f} not within 5 SE of 0")
    else:
        # max over triads of Haar-distributed holonomies: pi/2 <= E <= pi
        require(math.pi / 2 - MC_SIGMAS * se <= mean <= math.pi, f"random-matrix indicator mean {mean:.4f} out of range")
        hist = r.get("histogram") or {}
        counts, edges = hist.get("counts", []), hist.get("edges", [])
        require(sum(counts) == meta["N"], "histogram counts do not sum to N")
        require(len(edges) == len(counts) + 1 and edges == sorted(edges), "histogram edges are malformed")
        mids = [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])]
        binned = sum(c * m for c, m in zip(counts, mids)) / meta["N"]
        width = max(hi - lo for lo, hi in zip(edges, edges[1:]))
        require(abs(mean - binned) <= width / 2, f"mean {mean:.4f} disagrees with the histogram's {binned:.4f}")


def check_call(kind: str, meta: dict, code: int, out: str, previous_out: str | None) -> None:
    if kind == "check":
        check_check(meta, code, out)
    elif kind == "consistencize":
        check_consistencize(meta, code, out)
    elif kind == "holonomy":
        check_holonomy(meta, code, out)
    else:
        check_montecarlo(meta, code, out, previous_out if meta.get("repeat") else None)
