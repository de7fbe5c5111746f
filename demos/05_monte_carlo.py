"""Monte Carlo under the product Haar measure.

Fields are sampled edge by edge; matrices entry by entry.  Sample k owns a
generator derived from (seed, k), so estimates depend only on (seed, N):
a rerun reproduces them bit for bit.
"""

import math

from holopc import Observable, U1, SU2, expectation, full_simplex, ii_distribution, zmod

K = full_simplex(2)
N = 20000

print(f"mean curvature distance on one triangle, N={N}:")
for group in (U1, SU2):
    est = expectation(K, group, Observable("mean_curvature_In"), N=N, seed=0)
    print(f"  {group.tag}: {est.mean:.4f} +/- {est.std_error:.4f}   (analytic {math.pi/2:.4f})")

print("\nwilson character on the triangle boundary (centered at 0):")
est = expectation(K, U1, Observable("wilson_character"), N=N, seed=0)
print(f"  u1: {est.mean:.4f} +/- {est.std_error:.4f}")

print("\ndeterminism across reruns:")
a = expectation(K, SU2, Observable("mean_curvature_In"), N=5000, seed=42)
b = expectation(K, SU2, Observable("mean_curvature_In"), N=5000, seed=42)
print("  first run:", a.mean)
print("  rerun    :", b.mean, " identical:", a == b)

print("\ndistribution of the indicator over random 3x3 circle matrices:")
hist, est = ii_distribution(U1, n=3, N=N, seed=1)
print(f"  mean ii_In: {est.mean:.4f} +/- {est.std_error:.4f}   (analytic {math.pi/2:.4f})")
peak = max(range(len(hist.counts)), key=lambda i: hist.counts[i])
print(f"  histogram: 64 bins over [{hist.edges[0]:.3f}, {hist.edges[-1]:.3f}], fullest bin #{peak}")

print("\nover z2 the indicator lives on two points:")
hist, est = ii_distribution(zmod(2), n=3, N=N, seed=2)
support = {round(0.5 * (lo + hi), 2) for lo, hi, c in zip(hist.edges, hist.edges[1:], hist.counts) if c}
print("  observed support:", sorted(support), " (0 and pi)")
