"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from holopc.cli import main as cli_main
from holopc.consistencize import (
    consistencize_abelian,
    consistencize_riemannian,
    lsq_gradient,
    lsq_objective,
    residual_between,
)
from holopc.groups import RPLUS, SU2, U1, zmod
from holopc.integrate import Observable, expectation
from holopc.pcmatrix import (
    CONTRAVARIANT,
    COVARIANT,
    PCMatrix,
    from_gauge_vector,
    from_upper_triangle,
    gauge_extract,
    gauge_transform,
    ii3,
    ii_indicator,
    is_consistent,
    normalize_gauge,
    random_pc_matrix,
    triad_holonomy,
)
from holopc.serialize import complex_to_obj, save_obj
from holopc.simplicial import (
    EdgeField,
    field_from_gauge,
    full_simplex,
    gauge_transform_field,
    global_ii,
    holonomy_pc_matrix,
    triangle_curvature,
)

GROUPS = [RPLUS, U1, SU2, zmod(5)]


def random_elements(group, count, rng):
    if group.compact:
        return [group.haar_sample(rng) for _ in range(count)]
    return [math.exp(rng.normal()) for _ in range(count)]


def test_criterion_1_gauge_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    n = 5
    for group in GROUPS:
        for _ in range(500):
            lam = random_elements(group, n, rng)
            A = from_gauge_vector(group, lam)
            assert is_consistent(A, tol=1e-10).consistent
            recovered = gauge_extract(A, tol=1e-10)
            expected = normalize_gauge(group, lam)
            for a, b in zip(recovered, expected):
                assert group.distance(a, b) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS - gauge round trip, 500 vectors x 4 groups in {elapsed:.2f}s")


def test_criterion_2_flatness_equivalence():
    start = time.perf_counter()
    K = full_simplex(4)
    tol = 1e-9
    rng = np.random.default_rng(1002)
    for group in GROUPS:
        for trial in range(200):
            if trial % 4 == 3:
                # flat fields exercise the both-true branch of the iff
                F = field_from_gauge(K, group, random_elements(group, K.vertices, rng))
            elif group.compact:
                F = EdgeField(group, {e: group.haar_sample(rng) for e in K.edges})
            else:
                F = EdgeField(group, {e: math.exp(rng.normal()) for e in K.edges})
            flat = all(
                group.distance(triangle_curvature(K, F, t), group.identity) <= tol
                for t in K.triangles
            )
            A = holonomy_pc_matrix(K, F)
            assert A.variance == CONTRAVARIANT
            assert flat == is_consistent(A, tol=tol).consistent

    # exhaustive single-triangle check over z2: 8 field assignments
    z2 = zmod(2)
    T = full_simplex(2)
    for h01, h02, h12 in itertools.product(range(2), repeat=3):
        F = EdgeField(z2, {(0, 1): h01, (0, 2): h02, (1, 2): h12})
        flat = z2.distance(triangle_curvature(T, F, (0, 1, 2)), 0) <= tol
        assert flat == ((h01 + h12 + h02) % 2 == 0)
        assert flat == is_consistent(holonomy_pc_matrix(T, F), tol=tol).consistent
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS - flat holonomy iff consistent matrix, {elapsed:.2f}s")


def test_criterion_3_ii3_golden_values():
    assert abs(ii3(2, 8, 4) - 0.0) <= 1e-12
    assert abs(ii3(1, 2, 1) - 0.5) <= 1e-12
    assert abs(ii3(2, 4, 4) - 0.5) <= 1e-12
    assert abs(ii3(2, 4, 8) - 0.75) <= 1e-12
    rng = np.random.default_rng(1003)
    for _ in range(10_000):
        x, y, z = np.exp(rng.normal(size=3) * 2)
        assert abs(ii3(x, y, z) - (1.0 - math.exp(-abs(math.log(y / (x * z)))))) <= 1e-12
    print("ACCEPTANCE 3 PASS - ii3 golden values and closed-form identity on 10^4 triads")


def test_criterion_4_abelian_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    for _ in range(100):
        A = from_upper_triangle(RPLUS, list(np.exp(rng.normal(size=3) * 1.5)))
        result = consistencize_abelian(A)
        assert result.ii_after <= 1e-10
        L01 = math.log(A.entry(0, 1))
        L02 = math.log(A.entry(0, 2))
        L12 = math.log(A.entry(1, 2))
        # two-parameter consistent family: upper triangle (x, x*y, y)
        u0 = math.log(result.matrix.entry(0, 1))
        v0 = math.log(result.matrix.entry(1, 2))
        u = np.linspace(u0 - 3, u0 + 3, 200)[:, None]
        v = np.linspace(v0 - 3, v0 + 3, 200)[None, :]
        grid_best = float(((L01 - u) ** 2 + (L02 - u - v) ** 2 + (L12 - v) ** 2).min())
        assert result.residual <= grid_best + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4 PASS - closed form beats a 200x200 grid on 100 matrices, {elapsed:.2f}s")


def test_criterion_5_riemannian_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    h = 1e-5
    improved = 0
    for _ in range(100):
        lam = [SU2.haar_sample(rng) for _ in range(4)]
        A0 = from_gauge_vector(SU2, lam)
        grid = [list(r) for r in A0.entries]
        bump = SU2.exp_coords(rng.uniform(0.05, 0.4) * rng.normal(size=3))
        grid[0][1] = SU2.multiply(grid[0][1], bump)
        grid[1][0] = SU2.inverse(grid[0][1])
        A = PCMatrix(SU2, grid, COVARIANT)

        # analytic gradient against central differences, in the same chart
        point = [SU2.identity] + [
            SU2.multiply(A.entry(0, j), SU2.exp_coords(0.05 * rng.normal(size=3)))
            for j in range(1, 4)
        ]
        an = np.array(lsq_gradient(A, point))
        fd = np.zeros_like(an)
        for p in range(1, 4):
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = h
                up = list(point)
                up[p] = SU2.multiply(point[p], SU2.exp_coords(e))
                dn = list(point)
                dn[p] = SU2.multiply(point[p], SU2.exp_coords(-e))
                fd[p - 1, axis] = (lsq_objective(A, up) - lsq_objective(A, dn)) / (2 * h)
        assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))

        # objective along the accepted iterates never increases
        trace = [
            residual_between(A, consistencize_riemannian(A, max_iter=k).matrix)
            for k in range(0, 6)
        ]
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12

        result = consistencize_riemannian(A)
        if result.ii_after < result.ii_before:
            improved += 1
    assert improved >= 99
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 PASS - gradient check, monotone descent, {improved}/100 improved, {elapsed:.2f}s"
    )


def test_criterion_6_gauge_invariance():
    rng = np.random.default_rng(1006)
    K = full_simplex(3)
    for group in GROUPS:
        F = (
            EdgeField(group, {e: group.haar_sample(rng) for e in K.edges})
            if group.compact
            else EdgeField(group, {e: math.exp(rng.normal()) for e in K.edges})
        )
        base_field_ii = global_ii(K, F)[0]
        matrices = {
            COVARIANT: random_pc_matrix(group, 4, rng, COVARIANT)
            if group.compact
            else from_upper_triangle(RPLUS, list(np.exp(rng.normal(size=6)))),
            CONTRAVARIANT: random_pc_matrix(group, 4, rng, CONTRAVARIANT)
            if group.compact
            else from_upper_triangle(RPLUS, list(np.exp(rng.normal(size=6))), CONTRAVARIANT),
        }
        base_matrix_ii = {v: ii_indicator(A)[0] for v, A in matrices.items()}
        for _ in range(1000):
            mu = random_elements(group, 4, rng)
            assert abs(global_ii(K, gauge_transform_field(K, F, mu))[0] - base_field_ii) <= 1e-10
            for variance, A in matrices.items():
                transformed = gauge_transform(A, mu)
                assert abs(ii_indicator(transformed)[0] - base_matrix_ii[variance]) <= 1e-10
    print("ACCEPTANCE 6 PASS - indicator invariant under 1000 vertex gauges per group")


def test_criterion_7_monte_carlo_constants():
    # analytic side: E d(1, Haar) = pi/2 on both the circle and the 3-sphere
    u1_mean = scipy_integrate.quad(lambda t: abs(t) / (2 * math.pi), -math.pi, math.pi)[0]
    su2_mean = scipy_integrate.quad(
        lambda p: p * (2 / math.pi) * math.sin(p) ** 2, 0, math.pi
    )[0]
    assert u1_mean == pytest.approx(math.pi / 2, abs=1e-10)
    assert su2_mean == pytest.approx(math.pi / 2, abs=1e-10)

    K = full_simplex(2)
    for group in (U1, SU2):
        start = time.perf_counter()
        est = expectation(K, group, Observable("mean_curvature_In"), N=100_000, seed=1007)
        elapsed = time.perf_counter() - start
        assert abs(est.mean - math.pi / 2) < 3 * est.std_error
        assert est.std_error < 0.01
        assert elapsed < 30.0

    start = time.perf_counter()
    wilson = expectation(K, U1, Observable("wilson_character"), N=100_000, seed=1008)
    elapsed = time.perf_counter() - start
    assert abs(wilson.mean) < 3 * wilson.std_error
    assert elapsed < 30.0
    print("ACCEPTANCE 7 PASS - pi/2 curvature means and centered wilson character at N=10^5")


def test_criterion_8_determinism(tmp_path, capsys):
    cpath = tmp_path / "k.json"
    save_obj(complex_to_obj(full_simplex(2)), cpath)
    argv = [
        "montecarlo", "--complex", str(cpath), "--group", "su2",
        "--observable", "mean_curvature_In", "-N", "2000", "--seed", "77",
    ]
    outputs = []
    for _ in range(4):
        code = cli_main(argv)
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    json.loads(outputs[0])  # stays a well-formed report
    with capsys.disabled():
        print("ACCEPTANCE 8 PASS - byte-identical reports across four reruns")


def test_criterion_9_z3_exhaustive_oracle():
    z3 = zmod(3)
    tau = 2 * math.pi

    def oracle_distance(a, b):
        k = abs(a - b) % 3
        return tau * min(k, 3 - k) / 3

    for a01, a02, a12 in itertools.product(range(3), repeat=3):
        entries = [
            [0, a01, a02],
            [(-a01) % 3, 0, a12],
            [(-a02) % 3, (-a12) % 3, 0],
        ]
        for variance in (COVARIANT, CONTRAVARIANT):
            A = PCMatrix(z3, entries, variance)

            # direct triple-loop consistency in modular arithmetic
            expected_consistent = True
            for i, j, k in itertools.product(range(3), repeat=3):
                lhs = (
                    (entries[i][j] + entries[j][k]) % 3
                    if variance == COVARIANT
                    else (entries[j][k] + entries[i][j]) % 3
                )
                if lhs != entries[i][k]:
                    expected_consistent = False
            assert is_consistent(A, tol=0.0).consistent == expected_consistent

            # direct holonomy of the only triad
            if variance == CONTRAVARIANT:
                expected_hol = ((-a02) + a12 + a01) % 3
            else:
                expected_hol = (a01 + a12 + (-a02)) % 3
            assert triad_holonomy(A, 0, 1, 2) == expected_hol

            # direct indicator value: metric distance of the holonomy to 0
            expected_ii = oracle_distance(expected_hol, 0)
            value, triad = ii_indicator(A)
            assert value == pytest.approx(expected_ii, abs=1e-15)
            assert triad == (0, 1, 2)
            assert expected_consistent == (expected_ii == 0.0)
    print("ACCEPTANCE 9 PASS - z3 exhaustive oracle agrees on all 27 x 2 cases")
