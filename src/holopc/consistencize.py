"""Inconsistency minimization.

Given a gap-free matrix A, find a gauge vector lam whose consistent matrix
C (c_ij = lam_i^-1 * lam_j) minimizes the squared-distance residual

    sum_{i<j} d(a_ij, c_ij)^2.

For the abelian scalar groups the minimizer has a closed form in log
coordinates (a row mean); for the others a Riemannian gradient descent on
(lam_1, ..., lam_{n-1}) does the job.  The least-squares objective is an
average-type surrogate for the sup-based indicator: the output matrix is
consistent by construction, so the indicator value always drops to zero.

The objective, its gradient and the residual run as one array kernel over
the pairs i < j of ``np.triu_indices(n, 1)``, and the descent keeps its
gauge vector as a carrier array (see :mod:`holopc.groups`); gradient
contributions accumulate per component with ``np.add.at`` in pair order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GapError, LogBranchError
from .groups import Element, Group
from .pcmatrix import (
    COVARIANT,
    Indicator,
    PCMatrix,
    _entry_array,
    _gauge_matrix,
    _gauge_upper,
    _pairs,
    ii_indicator,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter reached"

_MIN_STEP = 1e-18


@dataclass(frozen=True)
class ConsistencizationResult:
    """A consistent matrix near the input, with bookkeeping.

    ``residual`` is the squared-distance sum between input and output over
    the strict upper triangle; ``iterations`` counts accepted descent steps
    (zero for the closed form).
    """

    lam: tuple[Element, ...]
    matrix: PCMatrix
    residual: float
    ii_before: float
    ii_after: float
    iterations: int
    status: str


def _upper(A: PCMatrix) -> np.ndarray:
    """The entries a_ij, i < j, row-major, as a carrier array."""
    return _entry_array(A)[_pairs(A.n)]


def _sum_of_squares(d: np.ndarray) -> float:
    return float(np.sum(d * d))


def _gauge_array(G: Group, lam) -> np.ndarray:
    """A gauge vector as a carrier array.  A sequence of elements is
    checked; an ndarray is taken to be a carrier array already."""
    if isinstance(lam, np.ndarray):
        return lam
    return G.to_array([G.check(v) for v in lam])


def residual_between(A: PCMatrix, C: PCMatrix) -> float:
    """Sum of squared entry distances over i < j."""
    return _sum_of_squares(A.group.batch_distance(_upper(A), _upper(C)))


def _require_ready(A: PCMatrix) -> None:
    if not A.gap_free:
        raise GapError("matrix has gaps: gapped matrices are not supported yet; fill every entry first")
    if A.variance != COVARIANT and A.group.tag == "su2":
        raise ValueError("contravariant su2 matrices are not supported: dualize first")


def lsq_objective(A: PCMatrix, lam) -> float:
    """The squared-distance objective at a gauge vector.

    ``lam`` is a sequence of n elements or a carrier array of them.
    """
    G = A.group
    return _sum_of_squares(G.batch_distance(_upper(A), _gauge_upper(G, _gauge_array(G, lam))))


def lsq_gradient(A: PCMatrix, lam) -> np.ndarray:
    """Gradient of the objective for lam_1..lam_{n-1}, lam_0 held fixed.

    Coordinates are taken in the chart lam_p -> lam_p * exp(xi), the same
    chart a finite-difference check must use.  Returns an (n - 1, dim)
    array, row p - 1 for lam_p.  Raises :class:`LogBranchError` when some
    residual rotation sits on the cut locus, where the squared distance is
    not differentiable.
    """
    G = A.group
    lam = _gauge_array(G, lam)
    grad = np.zeros((A.n, G.dim))
    if G.dim == 0:
        return grad[1:]  # finite groups have no directions to move in
    I, J = _pairs(A.n)
    a = _upper(A)
    e_inv = G.batch_inverse(_gauge_upper(G, lam))
    # moving lam_j turns e = lam_i^-1 lam_j into e exp(t xi):
    # d/dt d(a, e exp(t xi))^2 = -2 <log(e^-1 a), xi>
    np.add.at(grad, J, -2.0 * G.batch_log(G.batch_multiply(e_inv, a)))
    # moving lam_i turns e into exp(-t xi) e, and by bi-invariance
    # d/dt d(a, exp(-t xi) e)^2 = 2 <log(a e^-1), xi>
    np.add.at(grad, I, 2.0 * G.batch_log(G.batch_multiply(a, e_inv)))
    return grad[1:]


def _result(A: PCMatrix, lam: np.ndarray, iterations: int, status: str) -> ConsistencizationResult:
    C = _gauge_matrix(A.group, lam, A.variance)
    return ConsistencizationResult(
        lam=tuple(A.group.from_array(lam)),
        matrix=C,
        residual=residual_between(A, C),
        ii_before=ii_indicator(A)[0],
        ii_after=ii_indicator(C)[0],
        iterations=iterations,
        status=status,
    )


def consistencize_abelian(A: PCMatrix) -> ConsistencizationResult:
    """Closed-form projection for positive-real and circle matrices.

    In log coordinates the optimal gauge is the row mean
    l_i = -(1/n) sum_k log a_ik, normalized to l_0 = 0.  Circle matrices
    use principal angles; when that branch choice leaves some entry more
    than pi/2 away from the projection, a descent pass refines the result
    and the better of the two is returned.
    """
    _require_ready(A)
    G = A.group
    if G.tag not in ("rplus", "u1"):
        raise ValueError(f"closed-form consistencization needs rplus or u1, not {G.tag}")
    L = G.batch_log(_entry_array(A))[..., 0]
    ell = -L.mean(axis=1)
    ell -= ell[0]
    lam = G.batch_exp(ell[:, None])
    result = _result(A, lam, 0, STATUS_CONVERGED)

    if G.tag == "u1":
        worst = float(np.max(G.batch_distance(_upper(A), _gauge_upper(G, lam))))
        if worst > math.pi / 2:
            # principal-branch least squares can pick a wrong winding
            refined = consistencize_riemannian(A)
            if refined.residual < result.residual:
                return refined
    return result


def consistencize_riemannian(
    A: PCMatrix,
    max_iter: int = 500,
    step: float | None = None,
    tol: float = 1e-12,
) -> ConsistencizationResult:
    """Gradient descent on gauge vectors for any group.

    Starts from lam_j = a_0j (exact on consistent input), takes fixed-size
    steps with halving whenever the objective fails to decrease, and stops
    once the decrease per accepted step falls below ``tol`` or ``max_iter``
    steps were taken.  On abelian matrices the result matches the closed
    form; the default step 1/(2n) is the exact minimizing step there.
    """
    _require_ready(A)
    G = A.group
    n = A.n
    if step is None:
        step = 1.0 / (2.0 * n)
    lam = G.to_array([G.identity] + [A.entry(0, j) for j in range(1, n)])
    f = lsq_objective(A, lam)
    grad = lsq_gradient(A, lam)

    iterations = 0
    status = STATUS_CONVERGED
    while iterations < max_iter:
        gnorm2 = float(np.sum(grad * grad))
        if gnorm2 <= 1e-30:
            break
        s = step
        accepted = None
        hit_branch = False
        while s >= _MIN_STEP:
            cand = np.concatenate((lam[:1], G.batch_multiply(lam[1:], G.batch_exp(-s * grad))))
            fc = lsq_objective(A, cand)
            if fc < f:
                try:
                    gc = lsq_gradient(A, cand)
                except LogBranchError:
                    hit_branch = True
                    s *= 0.5
                    continue
                accepted = (cand, fc, gc)
                break
            s *= 0.5
        if accepted is None:
            if hit_branch:
                raise LogBranchError("descent stalled on the log branch cut: step underflow")
            break  # no admissible decrease left
        decrease = f - accepted[1]
        lam, f, grad = accepted
        iterations += 1
        if decrease < tol:
            break
    else:
        status = STATUS_MAX_ITER

    return _result(A, lam, iterations, status)


def epsilon_membership(A: PCMatrix, epsilon: float, indicator: Indicator | None = None) -> bool:
    """Whether the indicator value lies in the half-open interval [0, epsilon).

    These sets are nested in epsilon and form a neighborhood base of the
    consistent matrices.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return ii_indicator(A, indicator)[0] < epsilon
