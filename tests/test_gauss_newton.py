"""The damped Gauss-Newton consistencizer: oracles over random inputs, its
iteration history, its iteration bound, and its typed input errors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopc.cli import main
from holopc.consistencize import (
    STATUS_CONVERGED,
    consistencize_abelian,
    consistencize_riemannian,
    lsq_gradient,
    lsq_hessian,
    lsq_objective,
)
from holopc.errors import LogBranchError
from holopc.groups import RPLUS, SU2, U1
from holopc.pcmatrix import PCMatrix, from_gauge_vector, from_upper_triangle, gauge_transform
from holopc.serialize import save_matrix

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def noisy_matrix(group, n, noise, seed):
    """a_ij = lam_i^-1 lam_j exp(noise * z_ij) over i < j, with a random
    gauge (Haar on u1 and su2, log-normal on rplus) and z_ij standard normal."""
    rng = np.random.default_rng(seed)
    if group.compact:
        lam = group.batch_haar_sample(rng, (n,))
    else:
        lam = group.batch_exp(rng.normal(size=(n, group.dim)))
    I, J = np.triu_indices(n, 1)
    e = group.batch_multiply(group.batch_inverse(lam)[I], lam[J])
    upper = group.batch_multiply(e, group.batch_exp(noise * rng.normal(size=(len(I), group.dim))))
    return from_upper_triangle(group, group.from_array(upper))


def start_gauge(A):
    """The solver's start: lam_0 = 1, lam_j = a_0j."""
    return [A.group.identity] + [A.entry(0, j) for j in range(1, A.n)]


sizes = st.integers(3, 9)
seeds = st.integers(0, 2**32 - 1)


# --- oracles ------------------------------------------------------------------------


@ORACLE
@given(n=sizes, noise=st.floats(0.0, 1.0), seed=seeds)
def test_rplus_equals_the_closed_form(n, noise, seed):
    A = noisy_matrix(RPLUS, n, noise, seed)
    closed = consistencize_abelian(A)
    solved = consistencize_riemannian(A)
    # near consistency both residuals are rounding, of order 1e-22 apart
    assert solved.residual == pytest.approx(closed.residual, rel=1e-12, abs=1e-20)
    assert solved.lam == pytest.approx(closed.lam, rel=1e-12)


@ORACLE
@given(n=sizes, noise=st.floats(0.0, 0.5), seed=seeds)
def test_su2_converged_gauge_is_stationary(n, noise, seed):
    A = noisy_matrix(SU2, n, noise, seed)
    result = consistencize_riemannian(A)
    assert result.status == STATUS_CONVERGED
    at_start = np.linalg.norm(lsq_gradient(A, start_gauge(A)))
    at_end = np.linalg.norm(lsq_gradient(A, list(result.lam)))
    assert at_end <= 1e-6 * max(1.0, at_start)


@pytest.mark.parametrize("group", [SU2, U1], ids=lambda g: g.tag)
@ORACLE
@given(n=sizes, noise=st.floats(0.0, 0.5), seed=seeds)
def test_residual_is_gauge_invariant(group, n, noise, seed):
    A = noisy_matrix(group, n, noise, seed)
    mu = group.from_array(group.batch_haar_sample(np.random.default_rng(seed + 1), (n,)))
    moved = consistencize_riemannian(gauge_transform(A, mu))
    assert moved.residual == pytest.approx(consistencize_riemannian(A).residual, abs=1e-9)


@pytest.mark.parametrize("group", [RPLUS, SU2, U1], ids=lambda g: g.tag)
@ORACLE
@given(n=sizes, noise=st.floats(0.0, 1.0), seed=seeds)
def test_residual_never_exceeds_the_start(group, n, noise, seed):
    A = noisy_matrix(group, n, noise, seed)
    result = consistencize_riemannian(A)
    assert result.residual <= lsq_objective(A, start_gauge(A))


def ball_noise_matrix(group, n, noise, seed):
    """a_ij = lam_i^-1 lam_j exp(v_ij) over i < j with a Haar gauge lam and
    v_ij uniform in the ball of radius noise, and lam: at lam every residual
    log is -v_ij, inside the ball."""
    rng = np.random.default_rng(seed)
    lam = group.batch_haar_sample(rng, (n,))
    I, J = np.triu_indices(n, 1)
    v = rng.normal(size=(len(I), group.dim))
    v *= noise * rng.uniform(size=(len(I), 1)) ** (1.0 / group.dim) / np.linalg.norm(v, axis=1, keepdims=True)
    e = group.batch_multiply(group.batch_inverse(lam)[I], lam[J])
    return from_upper_triangle(group, group.from_array(group.batch_multiply(e, group.batch_exp(v)))), lam


def central_difference_hessian(A, lam, h=1e-4):
    """The Hessian of the objective in the chart lam_p -> lam_p exp(xi_p),
    p >= 1, by central differences of lsq_objective."""
    G, n = A.group, A.n
    m = (n - 1) * G.dim

    def f(xi):
        moved = G.batch_multiply(lam[1:], G.batch_exp(xi.reshape(n - 1, G.dim)))
        return lsq_objective(A, np.concatenate((lam[:1], moved)))

    E = h * np.eye(m)
    H = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            H[a, b] = H[b, a] = (f(E[a] + E[b]) - f(E[a] - E[b]) - f(E[b] - E[a]) + f(-E[a] - E[b])) / (4 * h * h)
    return H


@ORACLE
@given(n=st.integers(3, 6), noise=st.floats(0.0, 1.0), seed=seeds)
def test_su2_hessian_is_the_central_difference_hessian(n, noise, seed):
    # curvature and bracket term: exact while every residual is within pi/2
    A, lam = ball_noise_matrix(SU2, n, noise, seed)
    H, want = lsq_hessian(A, lam), central_difference_hessian(A, lam)
    assert np.abs(H - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("group", [RPLUS, U1], ids=lambda g: g.tag)
@ORACLE
@given(n=sizes, noise=st.floats(0.0, 1.0), seed=seeds)
def test_abelian_hessian_is_the_connection_laplacian(group, n, noise, seed):
    # an abelian group is flat and brackets vanish: the model is J^T J,
    # n - 1 on the diagonal and -1 off it, twice over for the full objective
    A = noisy_matrix(group, n, noise, seed)
    assert np.array_equal(lsq_hessian(A, start_gauge(A)), 2.0 * (n * np.eye(n - 1) - 1.0))


def test_su2_dense_iteration_bound():
    # the size and noise of the benchmark's su2 consistencize inputs
    for k, n in enumerate([15, 17, 19, 21] * 3):
        A = noisy_matrix(SU2, n, 0.1, 600 + k)
        result = consistencize_riemannian(A)
        assert result.status == STATUS_CONVERGED
        assert result.iterations <= 15


def test_su2_dense_inputs_converge_in_newton_steps():
    # the exact Hessian converges quadratically: the sizes and noise of the
    # benchmark's su2 consistencize inputs take at most 4 accepted steps
    for k, n in enumerate([15, 17, 19, 21] * 3):
        result = consistencize_riemannian(noisy_matrix(SU2, n, 0.1, 600 + k))
        assert result.status == STATUS_CONVERGED
        assert result.iterations <= 4


def test_su2_noise_half_converges_in_few_steps():
    # at this size and noise, damped Gauss-Newton on J^T J took 16-33 steps
    # on 30 random inputs, and the Newton model takes 4-12 on 100
    for k in range(12):
        result = consistencize_riemannian(noisy_matrix(SU2, 12, 0.5, 620 + k))
        assert result.status == STATUS_CONVERGED
        assert result.iterations <= 12


def test_antipodal_start_raises_log_branch_error():
    # consistent but for pair (1, 2), which is negated: the start e_12 is
    # then antipodal to a_12 in SU(2), on the cut locus of the logarithm
    rng = np.random.default_rng(41)
    A = from_gauge_vector(SU2, SU2.from_array(SU2.batch_haar_sample(rng, (4,))))
    grid = [list(row) for row in A.entries]
    grid[1][2] = tuple(-c for c in grid[1][2])
    grid[2][1] = SU2.inverse(grid[1][2])
    with pytest.raises(LogBranchError):
        consistencize_riemannian(PCMatrix(SU2, grid))


# --- history --------------------------------------------------------------------------


@pytest.mark.parametrize("group", [RPLUS, SU2, U1], ids=lambda g: g.tag)
def test_history_has_one_record_per_accepted_step(group):
    for seed in range(10):
        A = noisy_matrix(group, 6, 0.4, 700 + seed)
        result = consistencize_riemannian(A)
        assert len(result.history) == result.iterations
        objectives = [lsq_objective(A, start_gauge(A))] + [h.objective for h in result.history]
        assert all(b < a for a, b in zip(objectives, objectives[1:]))
        assert result.history[-1].objective == pytest.approx(result.residual, rel=1e-12)
        assert all(h.mu > 0.0 and h.rejected >= 0 and h.grad_norm >= 0.0 for h in result.history)


def test_closed_form_and_consistent_input_have_no_history():
    A = noisy_matrix(RPLUS, 5, 0.3, 800)
    assert consistencize_abelian(A).history == ()
    consistent = noisy_matrix(SU2, 5, 0.0, 801)
    result = consistencize_riemannian(consistent)
    assert result.iterations == 0 and result.history == ()


# --- input errors -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, flag",
    [
        ({"max_iter": -3}, "--max-iter"),
        ({"max_iter": 2.5}, "--max-iter"),
        ({"tol": math.nan}, "--tol"),
        ({"tol": -1.0}, "--tol"),
    ],
)
def test_bad_solver_options_raise(kwargs, flag):
    A = noisy_matrix(SU2, 5, 0.2, 900)
    with pytest.raises(ValueError, match=flag):
        consistencize_riemannian(A, **kwargs)


def test_zero_max_iter_and_tol_stay_valid():
    A = noisy_matrix(SU2, 5, 0.2, 901)
    assert consistencize_riemannian(A, max_iter=0).iterations == 0
    assert consistencize_riemannian(A, tol=0.0).status == STATUS_CONVERGED


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--method", "riemannian", "--max-iter", "-3"], "--max-iter"),
        (["--method", "riemannian", "--tol", "nan"], "--tol"),
        (["--method", "riemannian", "--tol", "-1"], "--tol"),
        (["--method", "abelian", "--max-iter", "-3", "--tol", "nan"], "--max-iter"),
        (["--method", "abelian", "--tol", "nan"], "--tol"),
    ],
)
def test_cli_rejects_bad_solver_options(tmp_path, capsys, flags, named):
    path = tmp_path / "q.json"
    save_matrix(noisy_matrix(U1, 5, 0.2, 902), path)  # a matrix both methods accept
    code = main(["consistencize", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_cli_report_keys_are_unchanged(tmp_path, capsys):
    path = tmp_path / "q.json"
    save_matrix(noisy_matrix(SU2, 5, 0.2, 903), path)
    assert main(["consistencize", str(path), "--method", "riemannian"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "group", "n", "method", "lambda", "matrix", "residual", "ii_before", "ii_after", "iterations", "status"
    }
