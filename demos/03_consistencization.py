"""Repairing an inconsistent matrix.

The closed form projects scalar and circle matrices onto the consistent
set in log coordinates; a damped Gauss-Newton solver does the same for
unit quaternions.  Both return the gauge vector, the repaired matrix, and
the indicator before and after; the solver also keeps one history record
per accepted step.
"""

import numpy as np

from holopc import (
    SU2,
    PCMatrix,
    consistencize_abelian,
    consistencize_riemannian,
    epsilon_membership,
    from_gauge_vector,
    from_upper_triangle,
)
from holopc.groups import RPLUS

print("closed form on the scalar triad (2, 8, 2):")
A = from_upper_triangle(RPLUS, [2.0, 8.0, 2.0])
result = consistencize_abelian(A)
print("  repaired upper triangle:", [result.matrix.entry(0, 1), result.matrix.entry(0, 2), result.matrix.entry(1, 2)])
print("  residual:", result.residual)
print("  ii before/after:", result.ii_before, "/", result.ii_after)

print("\nneighborhood membership (strict threshold):")
print("  inside eps=0.8?", epsilon_membership(A, 0.8))
print("  inside eps=0.1?", epsilon_membership(A, 0.1))

print("\nGauss-Newton on a perturbed quaternion matrix:")
rng = np.random.default_rng(2)
lam = [SU2.haar_sample(rng) for _ in range(4)]
Q = from_gauge_vector(SU2, lam)
grid = [list(r) for r in Q.entries]
grid[0][1] = SU2.multiply(grid[0][1], SU2.exp_coords([0.3, -0.1, 0.2]))
grid[1][0] = SU2.inverse(grid[0][1])
bumped = PCMatrix(SU2, grid)
result = consistencize_riemannian(bumped)
print("  iterations:", result.iterations, "status:", result.status)
for k, step in enumerate(result.history, 1):
    print(f"  step {k}: objective {step.objective:.12g}, |grad| {step.grad_norm:.3g},", end=" ")
    print(f"damping {step.mu:.3g}, rejected trials {step.rejected}")
print("  residual:", result.residual)
print("  ii before/after:", result.ii_before, "/", result.ii_after)
