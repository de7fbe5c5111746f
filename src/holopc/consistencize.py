"""Inconsistency minimization.

Given a gap-free matrix A, find a gauge vector lam whose consistent matrix
C (c_ij = lam_i^-1 * lam_j) minimizes the squared-distance residual

    sum_{i<j} d(a_ij, c_ij)^2.

For the abelian scalar groups the minimizer has a closed form in log
coordinates (a row mean); for the others a damped Newton
(Levenberg-Marquardt) iteration on (lam_1, ..., lam_{n-1}) does the job.
The least-squares objective is an average-type surrogate for the
sup-based indicator: the output matrix is consistent by construction, so
the indicator value always drops to zero.

The residual of pair i < j is r_ij = log(e_ij^-1 a_ij) with
e_ij = lam_i^-1 lam_j, so the objective is sum |r_ij|^2.  Moving lam_p to
lam_p exp(xi_p) changes r_ij to first order by Ad(e_ij^-1) xi_i - xi_j.
The Gauss-Newton matrix J^T J is a connection Laplacian: blocks (n - 1) I
on the diagonal and -Ad(e_ij^-1)^T at (i, j).  For su2 this is rotation
averaging (Hartley, Trumpf, Dai and Li, "Rotation averaging", IJCV 2013);
for rplus and u1 it is the Laplacian of the complete graph and the exact
Hessian.  On su2 the exact Hessian (Absil, Mahony and Sepulchre,
"Optimization Algorithms on Matrix Manifolds", 2008) also weighs each
pair by the curvature of the squared distance and adds a BCH bracket term
(``Group.batch_pair_hessian``).  The solver uses it, so it converges
quadratically near consistency.  It starts from the lower of the row-0
gauge lam_j = a_0j and the synchronization gauge of
``Group.batch_synchronize``, which reads a consistent matrix as a flat
field (angular synchronization; Singer, "Angular synchronization by
eigenvectors and semidefinite programming", ACHA 2011): on the su2
matrices of the benchmark, one Newton step from the minimum.

The objective, the residual logs, the gradient and the Hessian run as
array kernels over the pairs i < j of ``np.triu_indices(n, 1)``, and the
solver keeps its gauge vector as a carrier array (see
:mod:`holopc.groups`); each pair's gradient and Hessian terms are
scatter-added into the gauge coordinates with one ``np.bincount`` each.
Each trial gauge's products e_ij are formed once, for its objective, and
reused by its linearization and by the result.  The residual logs come from
``Group.batch_log_ratio``, which on rplus takes log a_ij - log e_ij where
e_ij^-1 a_ij leaves the float range, as the distance does; so no residual
beyond that range makes the Newton path refuse a valid matrix.

Both methods refuse a matrix that breaks the PC axioms (validated once per
repair), and a positive-real repair that leaves double precision.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FloatRangeError, GapError, LogBranchError
from .groups import Element, Group, _log_row_mean, _row_gauge
from .pcmatrix import (
    COVARIANT,
    Indicator,
    PCMatrix,
    _entry_array,
    _from_pairs,
    _gauge_upper,
    _pairs,
    _require_nonnegative,
    _require_valid,
    _upper,
    ii_indicator,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter reached"

_DAMPING_MIN = 1e-15  # the first trial's damping, and the floor that keeps it from underflowing to 0
_DAMPING_MAX = 1e18  # damping beyond which a trial step no longer moves the gauge


class IterationRecord(NamedTuple):
    """One accepted Newton step: the objective and the gradient norm
    at the new gauge, the damping the step was solved with, and how many
    trials were rejected before it."""

    objective: float
    grad_norm: float
    mu: float
    rejected: int


@dataclass(frozen=True)
class ConsistencizationResult:
    """A consistent matrix near the input, with bookkeeping.

    ``residual`` is the squared-distance sum between input and output over
    the strict upper triangle; ``iterations`` counts accepted Newton
    steps (zero for the closed form), and ``history`` holds one
    :class:`IterationRecord` per accepted step.
    """

    lam: tuple[Element, ...]
    matrix: PCMatrix
    residual: float
    ii_before: float
    ii_after: float
    iterations: int
    status: str
    history: tuple[IterationRecord, ...] = ()


def _sum_of_squares(d: np.ndarray) -> float:
    return float(np.sum(d * d))


def _gauge_array(G: Group, lam) -> np.ndarray:
    """A gauge vector as a carrier array.  A sequence of elements is
    checked; an ndarray is taken to be a carrier array already."""
    if isinstance(lam, np.ndarray):
        return lam
    return G.batch_check(lam)


def residual_between(A: PCMatrix, C: PCMatrix) -> float:
    """Sum of squared entry distances over i < j."""
    return _sum_of_squares(A.group.batch_distance(_upper(A), _upper(C)))


def _require_ready(A: PCMatrix) -> None:
    """Refuse gaps, contravariant su2, and broken axioms: the closed form
    averages whole rows, while the objective reads the upper triangle."""
    if not A.gap_free:
        raise GapError("matrix has gaps: gapped matrices are not supported yet; fill every entry first")
    if A.variance != COVARIANT and A.group.tag == "su2":
        raise ValueError("contravariant su2 matrices are not supported: dualize first")
    _require_valid(A)


def _in_float_range(repair):
    """Report a positive-real repair whose gauge, matrix or residual leaves
    double precision as such, whichever kernel found it."""

    @functools.wraps(repair)
    def checked(*args, **kwargs):
        try:
            return repair(*args, **kwargs)
        except FloatRangeError as exc:
            raise FloatRangeError(
                f"the repair (its gauge, matrix or residual) is not representable in double precision ({exc}); "
                "repair the entrywise square root instead, whose repair is the square root of this one"
            ) from exc

    return checked


def _objective(A: PCMatrix, lam: np.ndarray) -> tuple[np.ndarray, float]:
    """The products e_ij = lam_i^-1 lam_j over the pairs i < j, row-major,
    and the objective at the carrier array ``lam``."""
    G = A.group
    e = _gauge_upper(G, lam)  # the rplus product kernel refuses e that C's lower triangle could not invert
    return e, _sum_of_squares(G.batch_distance(_upper(A), e))


def lsq_objective(A: PCMatrix, lam) -> float:
    """The squared-distance objective at a gauge vector.

    ``lam`` is a sequence of n elements or a carrier array of them.
    """
    return _objective(A, _gauge_array(A.group, lam))[1]


@functools.lru_cache(maxsize=64)
def _pair_slots(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the pairs i < j put their terms among the n d gauge coordinates,
    d per lam_p: the flat indices of each pair's (xi_i, xi_j) rows, and of
    its (2 d)-square block in the (n d)-square matrix, both read-only."""
    I, J = _pairs(n)
    rows = (np.stack((I, J), axis=1)[:, :, None] * d + np.arange(d)).reshape(len(I), 2 * d)
    cells = rows[:, :, None] * (n * d) + rows[:, None, :]
    rows.flags.writeable = cells.flags.writeable = False
    return rows.ravel(), cells.ravel()


def _linearize(A: PCMatrix, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half the gradient and half the model Hessian of the objective: J^T r
    as an (n, dim) array, row p for lam_p, and the Hessian for
    lam_1..lam_{n-1}, from the gauge products e_ij = lam_i^-1 lam_j and the
    residual logs r_ij = log(e_ij^-1 a_ij) over the pairs i < j.  Each
    pair's terms are scatter-added in one pass.

    Raises :class:`LogBranchError` when some residual sits on the cut locus.
    """
    G, n, d = A.group, A.n, A.group.dim
    if d == 0:  # finite groups have no directions to move in
        return np.zeros((n, 0)), np.zeros((0, 0))
    r = G.batch_log_ratio(e, _upper(A))
    ad = G.batch_adjoint(e)
    s = (ad @ r[..., None])[..., 0]  # Ad(e) r = log(a e^-1)
    rows, cells = _pair_slots(n, d)
    # moving lam_i turns e into exp(-t xi) e, and by bi-invariance
    # d/dt d(a, exp(-t xi) e)^2 = 2 <log(a e^-1), xi> = 2 <Ad(e) r, xi>;
    # moving lam_j turns e into e exp(t xi), and d/dt d(a, e exp(t xi))^2 = -2 <r, xi>
    half = np.bincount(rows, np.concatenate((s, -r), axis=1).ravel(), n * d).reshape(n, d)
    H = np.bincount(cells, _pair_hessians(G, ad, r, s).ravel(), (n * d) ** 2).reshape(n * d, n * d)
    return half, H[d:, d:].copy()


def lsq_gradient(A: PCMatrix, lam) -> np.ndarray:
    """Gradient of the objective for lam_1..lam_{n-1}, lam_0 held fixed.

    Coordinates are taken in the chart lam_p -> lam_p * exp(xi), the same
    chart a finite-difference check must use.  Returns an (n - 1, dim)
    array, row p - 1 for lam_p.  Raises :class:`LogBranchError` when some
    residual rotation sits on the cut locus, where the squared distance is
    not differentiable.
    """
    return 2.0 * _linearize(A, _gauge_upper(A.group, _gauge_array(A.group, lam)))[0][1:]


def lsq_hessian(A: PCMatrix, lam) -> np.ndarray:
    """Hessian of the objective for lam_1..lam_{n-1}, lam_0 held fixed, in
    the chart of :func:`lsq_gradient`: an ((n - 1) dim) square matrix, block
    (p - 1, q - 1) for (lam_p, lam_q).  It is exact while every residual
    is within pi/2 of the identity (see ``Group.batch_pair_hessian``)."""
    return 2.0 * _linearize(A, _gauge_upper(A.group, _gauge_array(A.group, lam)))[1]


def _pair_hessians(G: Group, ad: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Half the Hessian of |r_ij|^2 in (xi_i, xi_j), one (2 dim)-square
    block per pair i < j, from the adjoints ad = Ad(e_ij), the residual logs
    r and s = Ad(e_ij) r.

    The pair sees a = Ad(e_ij)^T xi_i and b = xi_j through
    |log(exp(-b) exp(a) e_ij^-1 a_ij)|^2 / 2, so with W, X at r from
    ``Group.batch_pair_hessian`` its block is [[Ad W Ad^T, -Ad (W - X)],
    [-(W - X)^T Ad^T, W]], where Ad W(r) Ad^T = W(s) since conjugation is
    an isometry.  For an abelian group the blocks add up to J^T J, the
    Laplacian of the complete graph."""
    P, d = len(r), G.dim
    W, X = G.batch_pair_hessian(np.concatenate((r, s)))
    block = np.empty((P, 2, d, 2, d))
    block[:, 0, :, 0] = W[P:]
    block[:, 1, :, 1] = W[:P]
    block[:, 0, :, 1] = -ad @ (W[:P] - X[:P])
    block[:, 1, :, 0] = np.swapaxes(block[:, 0, :, 1], -1, -2)
    return block


def _result(
    A: PCMatrix, lam: np.ndarray, e: np.ndarray, f: float, status: str, history: tuple[IterationRecord, ...] = ()
) -> ConsistencizationResult:
    """The result at the gauge ``lam`` with its products e and objective f
    from :func:`_objective`: C's upper triangle is e, so f is the residual
    between A and C."""
    C = _from_pairs(A.group, A.n, *_pairs(A.n), e, A.variance)
    return ConsistencizationResult(
        lam=tuple(A.group.from_array(lam)),
        matrix=C,
        residual=f,
        ii_before=ii_indicator(A)[0],
        ii_after=ii_indicator(C)[0],
        iterations=len(history),
        status=status,
        history=history,
    )


@_in_float_range
def consistencize_abelian(A: PCMatrix) -> ConsistencizationResult:
    """Closed-form projection for positive-real and circle matrices.

    In log coordinates the optimal gauge is the row mean
    l_i = -(1/n) sum_k log a_ik, normalized to l_0 = 0.  Circle matrices
    use principal angles; when that branch choice leaves some entry more
    than pi/2 away from the projection, a Newton pass refines the
    result and the better of the two is returned.
    """
    _require_ready(A)
    G = A.group
    if G.tag not in ("rplus", "u1"):
        raise ValueError(f"closed-form consistencization needs rplus or u1, not {G.tag}")
    lam = _log_row_mean(G, _entry_array(A))
    e, f = _objective(A, lam)
    if G.tag == "u1" and np.max(G.batch_distance(_upper(A), e)) > math.pi / 2:
        # principal-branch least squares can pick a wrong winding
        refined = _newton(A)
        if refined.residual < f:  # f is the closed form's residual
            return refined
    return _result(A, lam, e, f, STATUS_CONVERGED)


def _check_solver_options(max_iter: int, tol: float) -> None:
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter (--max-iter) must be a nonnegative integer, got {max_iter!r}")
    _require_nonnegative("tol", tol)


def _start(A: PCMatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """The solver's start, with its products and objective (:func:`_objective`):
    the row-0 gauge lam_j = a_0j or ``Group.batch_synchronize``, whichever
    has the lower objective, row 0 on a tie.  Both are exact on consistent
    input, and the result can never end above the row-0 objective.  A
    positive-real start whose products leave the float range is skipped:
    row 0 can, where the least-squares gauge does not."""
    M = _entry_array(A)
    starts = []
    for lam in (_row_gauge(A.group, M), A.group.batch_synchronize(M)):
        with contextlib.suppress(FloatRangeError):
            starts.append((lam, *_objective(A, lam)))
    if not starts:  # the products of both gauges, or the least-squares gauge itself, leave the range
        raise FloatRangeError("positive-real products of the row-0 and least-squares gauges left (2**-1024, inf)")
    return min(starts, key=lambda start: start[2])


@_in_float_range
def consistencize_riemannian(A: PCMatrix, max_iter: int = 500, tol: float = 1e-12) -> ConsistencizationResult:
    """Damped Newton (Levenberg-Marquardt) on gauge vectors, any group.

    Starts from :func:`_start`, the lower of the row-0 and synchronization
    gauges, and holds lam_0 fixed.  Each trial solves (H + mu I) xi = -g
    with the exact Hessian H (:func:`lsq_hessian`, halved) and half the
    gradient g, and moves lam_p to lam_p exp(xi_p).  The first trial is
    undamped.  A trial whose predicted decrease is negative (H + mu I is
    indefinite) is rejected unevaluated; any other is accepted only if the
    objective decreases, and the damping mu follows Nielsen's gain ratio
    rule.  Stops once the gradient vanishes, the model predicts a decrease
    below ``tol`` times the objective (``tol`` squared once the objective
    is below ``tol``, so consistent input takes no step), an accepted step
    lowers the objective by less than ``tol``, no damping gives a
    decrease, or ``max_iter`` steps were accepted.  On rplus the start is
    the closed form, so the result is the closed form's.
    """
    _check_solver_options(max_iter, tol)
    _require_ready(A)
    return _newton(A, max_iter, tol)


def _newton(A: PCMatrix, max_iter: int = 500, tol: float = 1e-12) -> ConsistencizationResult:
    """The Newton loop of :func:`consistencize_riemannian`, on a matrix and
    options that have passed its checks."""
    G, n = A.group, A.n
    lam, e, f = _start(A)
    half, H = _linearize(A, e)

    mu, nu = _DAMPING_MIN, 2.0  # the model is the exact Hessian: try the Newton step first
    history: list[IterationRecord] = []
    status = STATUS_CONVERGED
    while len(history) < max_iter:
        g = half[1:].reshape(-1)
        gnorm2 = 4.0 * float(g @ g)  # |lsq_gradient|^2
        if gnorm2 <= 1e-30:
            break
        diagonal = H.diagonal().copy()
        rejected = 0
        hit_branch = False
        accepted = None
        while mu <= _DAMPING_MAX:
            np.fill_diagonal(H, diagonal + mu)
            xi = np.linalg.solve(H, -g)
            pred = float(xi @ (mu * xi - g))  # the decrease the model predicts
            if 0.0 <= pred < tol * max(f, tol):  # below an objective of tol, tol^2 is rounding
                break
            if pred > 0.0:  # else H + mu I is indefinite: no descent step to try
                cand = np.concatenate((lam[:1], G.batch_multiply(lam[1:], G.batch_exp(xi.reshape(n - 1, G.dim)))))
                ec, fc = _objective(A, cand)
                if fc < f:
                    try:
                        accepted = (cand, ec, fc, *_linearize(A, ec))
                        break
                    except LogBranchError:
                        hit_branch = True
            rejected += 1
            mu *= nu
            nu *= 2.0
        if accepted is None:
            if hit_branch and mu > _DAMPING_MAX:
                raise LogBranchError("Gauss-Newton stalled on the log branch cut: damping ran out")
            break  # converged, or no admissible decrease left
        lam, e, fc, half, H = accepted
        decrease = f - fc
        gain = decrease / pred  # actual over predicted decrease
        history.append(IterationRecord(fc, 2.0 * float(np.linalg.norm(half[1:])), mu, rejected))
        mu = max(_DAMPING_MIN, mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3))
        nu = 2.0
        f = fc
        if decrease < tol:
            break
    else:
        status = STATUS_MAX_ITER

    return _result(A, lam, e, f, status, tuple(history))


def epsilon_membership(A: PCMatrix, epsilon: float, indicator: Indicator | None = None) -> bool:
    """Whether the indicator value lies in the half-open interval [0, epsilon).

    These sets are nested in epsilon and form a neighborhood base of the
    consistent matrices.
    """
    _require_nonnegative("epsilon", epsilon)
    return ii_indicator(A, indicator)[0] < epsilon
