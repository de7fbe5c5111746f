import math

import numpy as np
import pytest

from holopc import consistencize, pcmatrix
from holopc.errors import GapError, InvalidMatrixError
from holopc.groups import RPLUS, SU2, U1, zmod
from holopc.consistencize import (
    STATUS_CONVERGED,
    consistencize_abelian,
    consistencize_riemannian,
    epsilon_membership,
    lsq_gradient,
    lsq_objective,
    residual_between,
)
from holopc.pcmatrix import (
    PCMatrix,
    from_gauge_vector,
    from_upper_triangle,
    gauge_transform,
    identity_matrix,
    ii_indicator,
    is_consistent,
    normalize_gauge,
    random_pc_matrix,
)


def grid_search_residual(A, width=3.0, points=201):
    """Brute-force oracle: best residual over a (log x, log y) grid of the
    two-parameter family of consistent 3x3 positive matrices."""
    L01 = math.log(A.entry(0, 1))
    L02 = math.log(A.entry(0, 2))
    L12 = math.log(A.entry(1, 2))
    u = np.linspace(L01 - width, L01 + width, points)[:, None]
    v = np.linspace(L12 - width, L12 + width, points)[None, :]
    res = (L01 - u) ** 2 + (L02 - (u + v)) ** 2 + (L12 - v) ** 2
    return float(res.min())


def perturbed_su2_matrix(n, rng, size=0.1):
    lam = tuple(SU2.haar_sample(rng) for _ in range(n))
    A = from_gauge_vector(SU2, lam)
    grid = [list(r) for r in A.entries]
    bump = SU2.exp_coords(size * rng.normal(size=3))
    grid[0][1] = SU2.multiply(grid[0][1], bump)
    grid[1][0] = SU2.inverse(grid[0][1])
    return PCMatrix(SU2, grid, A.variance)


# --- closed form -------------------------------------------------------------


def test_abelian_fixes_consistent_input():
    A = from_gauge_vector(RPLUS, (1.0, 2.0, 6.0, 0.5))
    result = consistencize_abelian(A)
    assert result.residual < 1e-24
    assert result.iterations == 0
    for i in range(A.n):
        for j in range(A.n):
            assert RPLUS.distance(result.matrix.entry(i, j), A.entry(i, j)) < 1e-12


def test_abelian_golden_282():
    A = from_upper_triangle(RPLUS, [2.0, 8.0, 2.0])
    result = consistencize_abelian(A)
    assert result.matrix.entry(0, 1) == pytest.approx(16 ** (1 / 3), rel=1e-12)
    assert result.matrix.entry(0, 2) == pytest.approx(16 ** (2 / 3), rel=1e-12)
    assert result.matrix.entry(1, 2) == pytest.approx(16 ** (1 / 3), rel=1e-12)
    assert result.residual <= grid_search_residual(A) + 1e-12
    assert result.ii_after <= 1e-12


def test_abelian_beats_grid_on_244():
    A = from_upper_triangle(RPLUS, [2.0, 4.0, 4.0])
    result = consistencize_abelian(A)
    assert result.ii_before == pytest.approx(math.log(2.0))
    assert result.ii_after < 1e-12
    assert result.residual <= grid_search_residual(A) + 1e-12


def test_abelian_is_idempotent():
    rng = np.random.default_rng(31)
    for _ in range(20):
        A = from_upper_triangle(RPLUS, list(np.exp(rng.normal(size=6))))
        once = consistencize_abelian(A)
        twice = consistencize_abelian(once.matrix)
        assert twice.residual < 1e-24
        for i in range(A.n):
            for j in range(A.n):
                d = RPLUS.distance(twice.matrix.entry(i, j), once.matrix.entry(i, j))
                assert d < 1e-12


def test_abelian_gauge_equivariance():
    rng = np.random.default_rng(32)
    for _ in range(20):
        A = from_upper_triangle(RPLUS, list(np.exp(rng.normal(size=6))))
        mu = tuple(np.exp(rng.normal(size=4)))
        direct = consistencize_abelian(gauge_transform(A, mu)).matrix
        swapped = gauge_transform(consistencize_abelian(A).matrix, mu)
        for i in range(4):
            for j in range(4):
                assert RPLUS.distance(direct.entry(i, j), swapped.entry(i, j)) < 1e-10


def test_abelian_u1_wrap_fallback():
    # Built from a gauge vector, so the true residual is zero, but the
    # principal-angle closed form lands on the wrong winding.
    A = from_gauge_vector(U1, (0.0, 2.5, -2.5))
    result = consistencize_abelian(A)
    assert result.residual < 1e-16
    assert result.ii_after < 1e-12


def test_abelian_rejects_wrong_group_and_gaps():
    with pytest.raises(ValueError):
        consistencize_abelian(identity_matrix(SU2, 3))
    gapped = PCMatrix(RPLUS, [[1, 2, None], [0.5, 1, 1], [None, 1, 1]])
    with pytest.raises(GapError, match="not supported yet; fill every entry first"):
        consistencize_abelian(gapped)


@pytest.mark.parametrize("repair", [consistencize_abelian, consistencize_riemannian])
def test_repairs_refuse_matrices_that_break_the_axioms(repair):
    # the upper triangle (0.3, 0.5, 0.2) is consistent, but a_10 is 1.0, not -0.3:
    # the closed form would average the bad lower triangle into its rows
    A = PCMatrix(U1, [[0.0, 0.3, 0.5], [1.0, 0.0, 0.2], [-0.5, -0.2, 0.0]])
    with pytest.raises(InvalidMatrixError, match=r"reciprocity at \(1,0\); run `holopc check`") as info:
        repair(A)
    assert info.value.violation == (1, 0, "reciprocity")


def test_abelian_fallback_validates_once(monkeypatch):
    calls = []
    validate = pcmatrix.validate
    monkeypatch.setattr(pcmatrix, "validate", lambda A: calls.append(A) or validate(A))
    A = from_gauge_vector(U1, (0.0, 2.5, -2.5))  # the closed form falls back to Newton
    assert consistencize_abelian(A).residual < 1e-16
    assert calls == [A]


def test_abelian_fallback_sweeps_only_the_result_it_returns(monkeypatch):
    # the closed form's ii_before and ii_after are not computed when Newton
    # wins: the upper triangles swept are A's and the returned C's, once each
    swept = []
    sweep = pcmatrix._triad_sweep
    for module in (pcmatrix, consistencize):
        monkeypatch.setattr(module, "_triad_sweep", lambda U, *a: swept.extend(u.tobytes() for u in U) or sweep(U, *a))
    A = from_gauge_vector(U1, (0.0, 2.5, -2.5))  # the closed form falls back to Newton
    result = consistencize_abelian(A)
    assert result.residual < 1e-16  # Newton's result: the closed form's winding is wrong
    assert swept == [pcmatrix._upper(A).tobytes(), pcmatrix._upper(result.matrix).tobytes()]


@pytest.mark.parametrize("variance", [pcmatrix.COVARIANT, pcmatrix.CONTRAVARIANT])
@pytest.mark.parametrize("n", [2, 3, 9, 21, 24, 25, 26])  # no triad, one block, two blocks, ranked su2 sweeps
@pytest.mark.parametrize("group", [RPLUS, U1, zmod(7), SU2], ids=lambda g: g.tag)
def test_result_indicators_are_the_sweeps_of_each_matrix(group, n, variance):
    # ii_before and ii_after, swept as one stack, are ii_indicator of A and
    # of C bit for bit; C is consistent, so an su2 C ties in its first key block
    rng = np.random.default_rng(n)
    P = n * (n - 1) // 2
    if group is RPLUS:
        upper, lam = np.exp(3.0 * rng.normal(size=P)), np.exp(rng.normal(size=n))
    else:
        upper, lam = group.batch_haar_sample(rng, (P,)), group.batch_haar_sample(rng, (n,))
    A = pcmatrix._from_pairs(group, n, *pcmatrix._pairs(n), upper, variance)
    result = consistencize._result(A, lam, *consistencize._objective(A, lam), STATUS_CONVERGED)
    assert result.ii_before.hex() == ii_indicator(A)[0].hex()
    assert result.ii_after.hex() == ii_indicator(result.matrix)[0].hex()
    assert (n < 3) == (result.ii_before == 0.0)


def test_each_repair_validates_its_input(monkeypatch):
    # no mark is left on a matrix: every call validates it
    calls = []
    validate = pcmatrix.validate
    monkeypatch.setattr(pcmatrix, "validate", lambda A: calls.append(A) or validate(A))
    A = from_upper_triangle(RPLUS, [2.0, 8.0, 2.0])
    consistencize_abelian(A)
    consistencize_riemannian(A)
    consistencize_abelian(A)
    assert calls == [A, A, A]


def test_abelian_fallback_checks_no_solver_options(monkeypatch):
    # the fallback runs the Newton core, past the public function's checks
    calls = []
    check = consistencize._check_solver_options
    monkeypatch.setattr(consistencize, "_check_solver_options", lambda *args: calls.append(args) or check(*args))
    A = from_gauge_vector(U1, (0.0, 2.5, -2.5))  # the closed form falls back to Newton
    assert consistencize_abelian(A).residual < 1e-16
    assert calls == []


# --- descent ------------------------------------------------------------------


def test_riemannian_skips_a_start_that_leaves_the_float_range():
    # row 0 has e_12 = a_01^-1 a_02 = 1e600, but the least-squares gauge fits in floats
    A = from_upper_triangle(RPLUS, [1e-300, 1e300, 1.0])
    assert consistencize_riemannian(A).matrix == consistencize_abelian(A).matrix


def test_riemannian_consistent_input_stops_immediately():
    rng = np.random.default_rng(33)
    lam = tuple(SU2.haar_sample(rng) for _ in range(4))
    A = from_gauge_vector(SU2, lam)
    result = consistencize_riemannian(A)
    assert result.iterations == 0
    assert result.residual < 1e-18
    assert result.status == STATUS_CONVERGED


def test_riemannian_matches_abelian():
    A = from_upper_triangle(RPLUS, [2.0, 8.0, 2.0])
    closed = consistencize_abelian(A)
    descent = consistencize_riemannian(A)
    assert descent.residual == pytest.approx(closed.residual, abs=1e-6)
    for i in range(3):
        for j in range(3):
            d = RPLUS.distance(descent.matrix.entry(i, j), closed.matrix.entry(i, j))
            assert d < 1e-6


def test_riemannian_su2_descends():
    rng = np.random.default_rng(34)
    for _ in range(10):
        A = perturbed_su2_matrix(4, rng)
        result = consistencize_riemannian(A)
        assert result.ii_after < result.ii_before
        assert result.matrix.gap_free
        assert is_consistent(result.matrix, tol=1e-10).consistent
        # the projection can only improve on the trivial candidate built
        # from row 0, whose residual is the perturbation size squared
        lam0 = [SU2.identity] + [A.entry(0, j) for j in range(1, 4)]
        assert result.residual <= lsq_objective(A, lam0) + 1e-15


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(35)
    h = 1e-5
    for _ in range(20):
        A = perturbed_su2_matrix(4, rng, size=0.3)
        lam = [SU2.identity] + [
            SU2.multiply(A.entry(0, j), SU2.exp_coords(0.05 * rng.normal(size=3)))
            for j in range(1, 4)
        ]
        grad = lsq_gradient(A, lam)
        fd = []
        for p in range(1, 4):
            row = []
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = h
                up = list(lam)
                up[p] = SU2.multiply(lam[p], SU2.exp_coords(e))
                dn = list(lam)
                dn[p] = SU2.multiply(lam[p], SU2.exp_coords(-e))
                row.append((lsq_objective(A, up) - lsq_objective(A, dn)) / (2 * h))
            fd.append(row)
        fd = np.array(fd)
        an = np.array(grad)
        assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))


def test_descent_objective_is_monotone():
    rng = np.random.default_rng(36)
    A = perturbed_su2_matrix(4, rng, size=0.5)
    # re-run the public routine at increasing iteration caps; the
    # objective along the iterates must never increase
    values = [
        residual_between(A, consistencize_riemannian(A, max_iter=k).matrix)
        for k in range(0, 12)
    ]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_riemannian_zmod_returns_row_gauge():
    A = random_pc_matrix(zmod(5), 4, rng=37)
    result = consistencize_riemannian(A)
    assert result.iterations == 0
    assert is_consistent(result.matrix, tol=0.0).consistent
    assert result.ii_after == 0.0


def test_max_iter_flag():
    rng = np.random.default_rng(38)
    A = perturbed_su2_matrix(4, rng, size=0.8)
    starved = consistencize_riemannian(A, max_iter=1, tol=0.0)
    assert starved.iterations == 1
    assert starved.status == "max_iter reached"


# --- neighborhoods --------------------------------------------------------------


def test_epsilon_membership_boundary():
    A = from_upper_triangle(RPLUS, [2.0, 4.0, 4.0])
    assert not epsilon_membership(A, math.log(2.0))
    assert epsilon_membership(A, math.log(2.0) + 1e-9)
    assert epsilon_membership(identity_matrix(SU2, 3), 1e-12)
    with pytest.raises(ValueError):
        epsilon_membership(A, -0.1)


def test_epsilon_membership_nested():
    rng = np.random.default_rng(39)
    eps = sorted(rng.uniform(0, 2, size=6))
    for _ in range(50):
        A = random_pc_matrix(U1, 4, rng=rng)
        flags = [epsilon_membership(A, e) for e in eps]
        # once inside, stays inside for every larger epsilon
        assert flags == sorted(flags)


def test_result_indicator_never_increases():
    rng = np.random.default_rng(40)
    for _ in range(20):
        A = random_pc_matrix(U1, 4, rng=rng)
        result = consistencize_abelian(A)
        assert result.ii_after <= result.ii_before + 1e-12
