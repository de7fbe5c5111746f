"""Inconsistency minimization.

Given a gap-free matrix A, find a gauge vector lam whose consistent matrix
C (c_ij = lam_i^-1 * lam_j) minimizes the squared-distance residual

    sum_{i<j} d(a_ij, c_ij)^2.

For the abelian scalar groups the minimizer has a closed form in log
coordinates (a row mean); for the others a Riemannian gradient descent on
(lam_1, ..., lam_{n-1}) does the job.  The least-squares objective is an
average-type surrogate for the sup-based indicator: the output matrix is
consistent by construction, so the indicator value always drops to zero.
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
    from_gauge_vector,
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


def residual_between(A: PCMatrix, C: PCMatrix) -> float:
    """Sum of squared entry distances over i < j."""
    G = A.group
    total = 0.0
    for i in range(A.n):
        for j in range(i + 1, A.n):
            total += G.distance(A.entry(i, j), C.entry(i, j)) ** 2
    return total


def _require_ready(A: PCMatrix) -> None:
    if not A.gap_free:
        raise GapError("matrix has gaps: gapped matrices are not supported yet; fill every entry first")
    if A.variance != COVARIANT and A.group.tag == "su2":
        raise ValueError("contravariant su2 matrices are not supported: dualize first")


def lsq_objective(A: PCMatrix, lam) -> float:
    """The squared-distance objective at a gauge vector."""
    G = A.group
    total = 0.0
    for i in range(A.n):
        inv_i = G.inverse(lam[i])
        for j in range(i + 1, A.n):
            total += G.distance(A.entry(i, j), G.multiply(inv_i, lam[j])) ** 2
    return total


def lsq_gradient(A: PCMatrix, lam) -> list[np.ndarray]:
    """Gradient of the objective for lam_1..lam_{n-1}, lam_0 held fixed.

    Coordinates are taken in the chart lam_p -> lam_p * exp(xi), the same
    chart a finite-difference check must use.  Raises
    :class:`LogBranchError` when some residual rotation sits on the cut
    locus, where the squared distance is not differentiable.
    """
    G = A.group
    n = A.n
    grad = [np.zeros(G.dim) for _ in range(n)]
    if G.dim == 0:
        return grad[1:]  # finite groups have no directions to move in
    for i in range(n):
        inv_i = G.inverse(lam[i])
        for j in range(i + 1, n):
            a = A.entry(i, j)
            e = G.multiply(inv_i, lam[j])
            # d/dt d(a, e*exp(t xi))^2 = -2 <log(e^-1 a), xi>
            r = G.log_coords(G.multiply(G.inverse(e), a))
            grad[j] -= 2.0 * r
            # d/dt d(a, exp(-t xi)... ) via the right-translated chart at lam_i
            grad[i] += 2.0 * G.log_coords(G.multiply(a, G.inverse(e)))
    return grad[1:]


def _result(A: PCMatrix, lam, iterations: int, status: str) -> ConsistencizationResult:
    C = from_gauge_vector(A.group, lam)
    if A.variance != COVARIANT:
        C = PCMatrix(A.group, C.entries, A.variance)
    return ConsistencizationResult(
        lam=tuple(lam),
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
    n = A.n
    L = np.array([[G.log_coords(A.entry(i, k))[0] for k in range(n)] for i in range(n)])
    ell = -L.mean(axis=1)
    ell -= ell[0]
    lam = [G.exp_coords([t]) for t in ell]
    result = _result(A, lam, 0, STATUS_CONVERGED)

    if G.tag == "u1":
        worst = max(
            G.distance(A.entry(i, j), result.matrix.entry(i, j))
            for i in range(n)
            for j in range(i + 1, n)
        )
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
    lam = [G.identity] + [A.entry(0, j) for j in range(1, n)]
    f = lsq_objective(A, lam)
    grad = lsq_gradient(A, lam)

    iterations = 0
    status = STATUS_CONVERGED
    while iterations < max_iter:
        gnorm2 = sum(float(g @ g) for g in grad)
        if gnorm2 <= 1e-30:
            break
        s = step
        accepted = None
        hit_branch = False
        while s >= _MIN_STEP:
            cand = [G.identity] + [
                G.multiply(lam[p], G.exp_coords(-s * grad[p - 1])) for p in range(1, n)
            ]
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
