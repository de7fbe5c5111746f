import copy
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from holopc.consistencize import residual_between
from holopc.errors import FloatRangeError, GapError, GroupMismatchError, InconsistentMatrixError, NonCompactGroupError
from holopc.groups import RPLUS, SU2, U1, zmod
from holopc.integrate import Observable, expectation, sample_field
from holopc.pcmatrix import (
    CONTRAVARIANT,
    COVARIANT,
    PCMatrix,
    _entry_array,
    default_indicator,
    dualize,
    from_gauge_vector,
    from_upper_triangle,
    gauge_extract,
    gauge_transform,
    identity_matrix,
    ii3,
    ii3_matrix,
    ii_indicator,
    ii_n_chain,
    is_consistent,
    normalize_gauge,
    random_pc_matrix,
    triad_holonomy,
    validate,
)
from holopc.simplicial import full_simplex, global_ii, grid_complex, holonomy_pc_matrix, identity_field

ALL_GROUPS = [RPLUS, U1, SU2, zmod(5)]


def random_gauge(group, n, rng):
    if group.compact:
        return tuple(group.haar_sample(rng) for _ in range(n))
    return tuple(math.exp(rng.normal()) for _ in range(n))


# --- construction and validation --------------------------------------------


def test_identity_matrix_is_valid():
    for group in ALL_GROUPS:
        assert validate(identity_matrix(group, 4)) == []


def test_validate_reports_reciprocity():
    good = PCMatrix(RPLUS, [[1, 2, 1], [0.5, 1, 1], [1, 1, 1]])
    assert validate(good) == []
    bad = PCMatrix(RPLUS, [[1, 2, 1], [0.4, 1, 1], [1, 1, 1]])
    assert validate(bad) == [(1, 0, "reciprocity")]


def test_validate_scores_rplus_reciprocity_beyond_the_float_range_in_logs():
    # a_10 / a_01^-1 = 1e600 and a_21 / a_12^-1 = 1e-600 leave the float
    # range, where the distance kernel scores in logs; the pair (0, 2) stays in it
    A = PCMatrix(RPLUS, [[1, 1e300, 2], [1e300, 1, 1e-300], [0.5, 1e-300, 1]])
    assert validate(A) == [(1, 0, "reciprocity"), (2, 1, "reciprocity")]
    a_ij, a_ji = np.array([1e300, 1e-300, 2.0]), np.array([1e300, 1e-300, 0.4])
    d = RPLUS.batch_distance(a_ji, RPLUS.batch_inverse(a_ij))
    assert d[:2] == pytest.approx([600 * math.log(10.0)] * 2, rel=1e-12)
    assert d[2] == np.abs(np.log(a_ji[2] / 0.5))  # |log(a / b)|, bit for bit, inside the range


def test_validate_reports_diagonal_and_gap_symmetry():
    bad_diag = PCMatrix(RPLUS, [[2.0, 1], [1, 1]])
    assert (0, 0, "diagonal") in validate(bad_diag)
    asym = PCMatrix(RPLUS, [[1, None], [2.0, 1]])
    assert (0, 1, "gap symmetry") in validate(asym)


def test_validate_reads_a_sparse_holonomy_matrix_sparsely():
    # the su2 holonomy matrix of grid_complex(40) stores 11,441 of its
    # 1,681^2 cells; a dense grid of them would take 90 MB
    K = grid_complex(40)
    A = holonomy_pc_matrix(K, sample_field(K, SU2, np.random.default_rng(40)))
    tracemalloc.start()
    try:
        assert validate(A) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_gapped_matrices_refuse_the_dense_carrier_grid():
    A = PCMatrix(U1, [[0.0, 0.5, None], [-0.5, 0.0, 0.25], [None, -0.25, 0.0]])
    with pytest.raises(GapError):
        _entry_array(A)
    with pytest.raises(GapError):
        residual_between(A, A)


def test_entry_reads_one_stored_carrier():
    A = random_pc_matrix(SU2, 48, np.random.default_rng(48))
    x = A.entry(0, 1)
    assert A._grid is None  # the grid of plain elements was not built
    assert x == A.entries[0][1]
    for i, j in ((-1, 0), (0, -1), (48, 0), (0, 48)):
        with pytest.raises(IndexError):
            A.entry(i, j)


def test_index_arguments_are_integers():
    # integral floats and numpy integers are indices; fractions and bools are not
    A = from_upper_triangle(RPLUS, [2.0, 8.0, 3.0, 4.0, 5.0, 6.0])
    assert A.entry(1.0, np.int64(2)) == A.entry(1, 2) == 4.0
    assert triad_holonomy(A, 0.0, 1, 2.0) == triad_holonomy(A, 0, 1, 2)
    for i, j, name in [(0.5, 1, "row index i"), (True, 1, "row index i"), (0, 1.5, "column index j")]:
        with pytest.raises(ValueError, match=rf"{name} must be an integer, got {(i if name[0] == 'r' else j)!r}"):
            A.entry(i, j)
    with pytest.raises(ValueError, match=r"triad index k must be an integer, got 2\.5"):
        triad_holonomy(A, 0, 1, 2.5)
    with pytest.raises(ValueError, match="triad index i must be an integer, got False"):
        triad_holonomy(A, False, 1, 2)
    with pytest.raises(ValueError, match=r"matrix size n must be an integer, got 3\.5"):
        random_pc_matrix(U1, 3.5, 0)
    assert random_pc_matrix(U1, 3.0, 7) == random_pc_matrix(U1, 3, 7)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_entry_agrees_with_entries_on_gapped_matrices(group):
    rng = np.random.default_rng(21)
    for n in (2, 3, 5, 9):
        for _ in range(5):
            values = [random_gauge(group, n, rng) for _ in range(n)]
            grid = [[None if rng.random() < 0.3 else values[i][j] for j in range(n)] for i in range(n)]
            A = PCMatrix(group, grid)
            got = [[A.entry(i, j) for j in range(n)] for i in range(n)]
            assert A._grid is None
            assert tuple(map(tuple, got)) == A.entries


def test_constructor_rejects_bad_carriers_and_shapes():
    with pytest.raises(GroupMismatchError):
        PCMatrix(RPLUS, [[1, -2], [-0.5, 1]])
    with pytest.raises(ValueError):
        PCMatrix(RPLUS, [[1, 2]])
    with pytest.raises(ValueError):
        PCMatrix(RPLUS, [[1]])
    with pytest.raises(ValueError):
        PCMatrix(RPLUS, [[1, 2], [0.5, 1]], variance="sideways")


def test_matrix_is_immutable():
    A = identity_matrix(U1, 3)
    with pytest.raises(AttributeError):
        A.n = 5


def test_matrix_copies_and_pickles():
    rng = np.random.default_rng(19)
    matrices = [from_gauge_vector(group, random_gauge(group, 4, rng)) for group in ALL_GROUPS]
    matrices.append(random_pc_matrix(SU2, 5, rng, variance=CONTRAVARIANT))
    matrices.append(PCMatrix(zmod(7), [[0, 3, None], [4, 0, 1], [None, 6, 0]]))
    for A in matrices:
        for B in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert B == A and hash(B) == hash(A) and validate(B) == validate(A)
            with pytest.raises(AttributeError):
                B.n = 5


GAP_PATTERNS = {
    "none": lambda i, j: False,
    "symmetric": lambda i, j: {i, j} == {0, 2},
    "asymmetric": lambda i, j: (i, j) in ((1, 3), (3, 0)),
    "diagonal-only": lambda i, j: i != j,
    "diagonal-gap": lambda i, j: i == j == 1,
    "all": lambda i, j: True,
}


@pytest.mark.parametrize("pattern", GAP_PATTERNS)
@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_stored_carriers_behave_as_the_grid(group, pattern):
    rng = np.random.default_rng(20)
    gap = GAP_PATTERNS[pattern]
    values = [random_gauge(group, 4, rng) for _ in range(4)]
    grid = tuple(tuple(None if gap(i, j) else group.check(values[i][j]) for j in range(4)) for i in range(4))
    A = PCMatrix(group, grid)
    assert A.entries == grid
    assert [[A.entry(i, j) for j in range(4)] for i in range(4)] == [list(row) for row in grid]
    holes = [(i, j) for i in range(4) for j in range(4) if grid[i][j] is None]
    assert A.gaps() == holes and A.gap_free == (not holes)
    assert repr(A) == f"PCMatrix({group.tag}, n=4, covariant" + (f", gaps={len(holes)})" if holes else ")")
    assert dualize(A).entries == tuple(zip(*grid)) and dualize(dualize(A)) == A
    assert validate(A) == validate(PCMatrix(group, [list(row) for row in grid]))
    for B in (PCMatrix(group, grid), copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert B == A and hash(B) == hash(A)
        assert (B.entries, B.gaps(), B.gap_free, repr(B)) == (A.entries, A.gaps(), A.gap_free, repr(A))
    assert A != PCMatrix(group, grid, variance=CONTRAVARIANT)
    moved = [list(row) for row in grid]
    moved[0][1], moved[1][0] = None, moved[0][1]  # the same values, one gap moved
    if moved != [list(row) for row in grid]:
        assert A != PCMatrix(group, moved)
    with pytest.raises(AttributeError):
        A.entries = grid


def test_signed_zeros_compare_and_hash_alike():
    A = PCMatrix(U1, [[0.0, -0.0], [0.0, 0.0]])
    B = PCMatrix(U1, [[0.0, 0.0], [-0.0, 0.0]])
    assert A == B and hash(A) == hash(B)


# --- duality -----------------------------------------------------------------


def test_dualize_scalar_entries():
    A = from_upper_triangle(RPLUS, [2.0, 1.0, 1.0])
    B = dualize(A)
    assert B.entry(0, 1) == 0.5
    assert B.variance == CONTRAVARIANT


def test_dualize_is_involution_and_fixes_identity():
    A = random_pc_matrix(SU2, 4, rng=5)
    assert dualize(dualize(A)) == A
    I = identity_matrix(U1, 3)
    assert dualize(I).entries == I.entries


def test_dualize_swaps_consistency_variance():
    # direct check of the contravariant law on the dual of a consistent matrix
    rng = np.random.default_rng(6)
    lam = random_gauge(SU2, 4, rng)
    A = from_gauge_vector(SU2, lam)
    B = dualize(A)
    for i, j, k in itertools.permutations(range(4), 3):
        lhs = SU2.multiply(B.entry(j, k), B.entry(i, j))
        assert SU2.distance(lhs, B.entry(i, k)) < 1e-12
    assert is_consistent(B).consistent


# --- consistency and triad holonomy ------------------------------------------


def test_gauge_built_matrix_is_consistent():
    rng = np.random.default_rng(7)
    for group in ALL_GROUPS:
        A = from_gauge_vector(group, random_gauge(group, 5, rng))
        assert is_consistent(A, tol=1e-10).consistent


def test_consistency_hand_examples():
    good = from_upper_triangle(RPLUS, [2.0, 8.0, 4.0])
    assert is_consistent(good).consistent
    bad = from_upper_triangle(RPLUS, [2.0, 4.0, 4.0])
    chk = is_consistent(bad)
    assert not chk
    assert chk.worst_triad == (0, 1, 2)


def test_consistency_needs_gap_free():
    gapped = PCMatrix(RPLUS, [[1, 2, None], [0.5, 1, 1], [None, 1, 1]])
    with pytest.raises(GapError):
        is_consistent(gapped)


def test_indicator_gap_error_names_global_ii():
    gapped = PCMatrix(RPLUS, [[1, 2, None], [0.5, 1, 1], [None, 1, 1]])
    with pytest.raises(GapError, match=r"simplicial\.global_ii"):
        ii_indicator(gapped)


def test_triad_holonomy_examples():
    A = from_upper_triangle(RPLUS, [2.0, 4.0, 4.0])
    # covariant orientation: x * z * y^-1 = 2*4/4
    assert triad_holonomy(A, 0, 1, 2) == pytest.approx(2.0)
    consistent = from_upper_triangle(RPLUS, [2.0, 8.0, 4.0])
    assert triad_holonomy(consistent, 0, 1, 2) == pytest.approx(1.0)
    U = from_upper_triangle(U1, [0.3, 0.1, 0.5])
    assert triad_holonomy(U, 0, 1, 2) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        triad_holonomy(A, 1, 0, 2)


def test_triad_holonomy_detects_variance():
    rng = np.random.default_rng(8)
    lam = random_gauge(SU2, 4, rng)
    A = from_gauge_vector(SU2, lam)
    B = dualize(A)
    for i, j, k in itertools.combinations(range(A.n), 3):
        assert SU2.distance(triad_holonomy(A, i, j, k), SU2.identity) < 1e-12
        assert SU2.distance(triad_holonomy(B, i, j, k), SU2.identity) < 1e-12


# --- scalar indicators --------------------------------------------------------


def test_ii3_golden_values():
    assert ii3(2, 8, 4) == 0.0
    assert ii3(1, 2, 1) == 0.5
    assert ii3(2, 4, 4) == 0.5
    assert ii3(2, 4, 8) == 0.75
    with pytest.raises(ValueError):
        ii3(1, -2, 1)


def test_ii3_closed_forms_agree():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        x, y, z = np.exp(rng.normal(size=3) * 2)
        expected = 1.0 - math.exp(-abs(math.log(y / (x * z))))
        assert ii3(x, y, z) == pytest.approx(expected, abs=1e-12)


def test_ii3_matrix_single_triad():
    A = from_upper_triangle(RPLUS, [2.0, 4.0, 4.0])
    val, triad = ii3_matrix(A)
    assert val == pytest.approx(0.5)
    assert triad == (0, 1, 2)
    consistent = from_gauge_vector(RPLUS, (1.0, 2.0, 6.0))
    val, triad = ii3_matrix(consistent)
    assert val == pytest.approx(0.0, abs=1e-15)
    assert triad == (0, 1, 2)


def test_ii3_matrix_four_by_four():
    A = from_upper_triangle(RPLUS, [2.0, 4.0, 8.0, 2.0, 4.0, 4.0])
    # brute-force oracle over all triads with the exponential form of ii3
    per_triad = {
        (i, j, k): 1.0 - math.exp(-abs(math.log(A.entry(i, k) / (A.entry(i, j) * A.entry(j, k)))))
        for (i, j, k) in itertools.combinations(range(4), 3)
    }
    best = max(per_triad.values())
    winners = sorted(t for t, v in per_triad.items() if v == pytest.approx(best, abs=1e-15))
    val, triad = ii3_matrix(A)
    assert val == pytest.approx(0.5, abs=1e-12)
    assert val == pytest.approx(best, abs=1e-12)
    # two triads tie at 0.5; the lexicographically smallest wins
    assert winners == [(0, 2, 3), (1, 2, 3)]
    assert triad == (0, 2, 3)


def test_ii3_matrix_equals_ii3_on_3x3():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x, y, z = np.exp(rng.normal(size=3))
        A = from_upper_triangle(RPLUS, [x, y, z])
        # the sweep scores ii3 as -expm1(-defect) on a sum of logs, the formula
        # as 1 - min(r, 1/r): each rounds a few times at the scale of 1
        assert abs(ii3_matrix(A)[0] - ii3(x, y, z)) <= 4 * math.ulp(1.0)


def test_ii_n_chain_examples():
    assert ii_n_chain(from_gauge_vector(RPLUS, (1.0, 3.0, 5.0, 7.0))) == pytest.approx(0.0, abs=1e-12)
    assert ii_n_chain(from_upper_triangle(RPLUS, [2.0, 4.0, 4.0])) == pytest.approx(0.5)
    A = from_upper_triangle(RPLUS, [2.0, 4.0, 8.0, 2.0, 4.0, 4.0])
    assert ii_n_chain(A) == pytest.approx(0.5)


def test_ii3_and_chain_vanish_together():
    rng = np.random.default_rng(11)
    for _ in range(200):
        if rng.uniform() < 0.5:
            A = from_gauge_vector(RPLUS, tuple(np.exp(rng.normal(size=4))))
        else:
            A = from_upper_triangle(RPLUS, list(np.exp(rng.normal(size=6))))
        zero3 = ii3_matrix(A)[0] < 1e-12
        zero_chain = ii_n_chain(A) < 1e-12
        assert zero3 == zero_chain


def test_ii3_requires_rplus():
    with pytest.raises(ValueError):
        ii3_matrix(identity_matrix(U1, 3))


# --- group-valued indicator ---------------------------------------------------


def test_ii_indicator_examples():
    val, triad = ii_indicator(from_upper_triangle(RPLUS, [2.0, 4.0, 4.0]))
    assert val == pytest.approx(math.log(2.0))
    assert triad == (0, 1, 2)
    val, triad = ii_indicator(from_upper_triangle(U1, [0.3, 0.1, 0.5]))
    assert val == pytest.approx(0.7)
    assert triad == (0, 1, 2)
    for group in ALL_GROUPS:
        assert ii_indicator(identity_matrix(group, 4))[0] == 0.0


def test_ii_indicator_rejects_non_indicator():
    with pytest.raises(ValueError, match="not an indicator map"):
        ii_indicator(identity_matrix(U1, 3), indicator=lambda g: 1.0)


def test_nan_at_the_identity_is_not_an_indicator():
    # abs(nan) > tol is False, so nan must be refused by its own test
    nan = lambda g: math.nan  # noqa: E731
    K = full_simplex(2)
    with pytest.raises(ValueError, match="not an indicator map"):
        ii_indicator(identity_matrix(U1, 3), indicator=nan)
    with pytest.raises(ValueError, match="not an indicator map"):
        global_ii(K, identity_field(K, U1), nan)
    with pytest.raises(ValueError, match="not an indicator map"):
        expectation(K, U1, Observable("sup_curvature_In"), N=2, indicator=nan)


@pytest.mark.parametrize("loop", [(0, 1, 2), (23, 24, 25)], ids=["first-block", "last-block"])
def test_nan_off_the_identity_raises_in_any_sweep_block(loop):
    # n = 26 has 2,600 triads: (0, 1, 2) opens the first 2048-triad block of
    # the sweep and (23, 24, 25) closes the second; a nan in either raises
    A = from_upper_triangle(U1, list(np.random.default_rng(26).uniform(-0.5, 0.5, size=325)))
    h = triad_holonomy(A, *loop)
    In = lambda g: math.nan if g == h else abs(g)  # noqa: E731
    assert sum(triad_holonomy(A, *t) == h for t in itertools.combinations(range(A.n), 3)) == 1  # nan on that loop only
    with pytest.raises(ValueError, match="is nan"):
        ii_indicator(A, In)


def test_ii_n_chain_matches_the_grid_formula():
    # the chain indicator read by flat position, bit for bit as the (I, J)
    # indexing of the log grid gave it
    rng = np.random.default_rng(27)
    for n in (2, 3, 7, 30):
        A = from_upper_triangle(RPLUS, list(np.exp(3.0 * rng.normal(size=n * (n - 1) // 2))))
        L = np.log(np.array(A.entries))
        S = np.concatenate(([0.0], np.cumsum(np.diagonal(L, 1))))
        I, J = np.triu_indices(n, 1)
        assert ii_n_chain(A) == float(-np.expm1(-np.max(np.abs(L[I, J] - (S[J] - S[I])))))


def test_ii_indicator_matches_ii3_transform():
    rng = np.random.default_rng(12)
    for _ in range(100):
        A = from_upper_triangle(RPLUS, list(np.exp(rng.normal(size=6))))
        v_in, t_in = ii_indicator(A)
        v_3, t_3 = ii3_matrix(A)
        assert v_3 == pytest.approx(1.0 - math.exp(-v_in), abs=1e-12)
        assert t_in == t_3


def test_consistency_iff_zero_indicator():
    rng = np.random.default_rng(13)
    for group in ALL_GROUPS:
        for _ in range(50):
            lam = random_gauge(group, 4, rng)
            A = from_gauge_vector(group, lam)
            if rng.uniform() < 0.5 and group.dim > 0:
                # perturb one entry off the consistent set
                grid = [list(r) for r in A.entries]
                bump = group.exp_coords(0.3 * np.ones(group.dim))
                grid[0][1] = group.multiply(grid[0][1], bump)
                grid[1][0] = group.inverse(grid[0][1])
                A = PCMatrix(group, grid, A.variance)
            chk = is_consistent(A, tol=1e-9)
            value = ii_indicator(A)[0]
            assert chk.consistent == (value <= 1e-9)
            # with the metric indicator the worst defect and the sup agree
            assert value == pytest.approx(chk.worst_defect, abs=1e-12)


# --- gauge vectors ------------------------------------------------------------


def test_from_gauge_vector_hand_example():
    A = from_gauge_vector(RPLUS, (1.0, 2.0, 6.0))
    assert A.entry(0, 1) == pytest.approx(2.0)
    assert A.entry(0, 2) == pytest.approx(6.0)
    assert A.entry(1, 2) == pytest.approx(3.0)
    assert validate(A) == []


def test_from_gauge_vector_refuses_a_product_whose_inverse_overflows():
    # a_01 = 1e-300 * 1e-10 = 1e-310, below 2**-1024: a_10 = 1 / a_01 would be inf
    with pytest.raises(FloatRangeError, match=r"left \(2\*\*-1024, inf\)"):
        from_gauge_vector(RPLUS, [1e300, 1e-10])


def test_from_gauge_vector_left_shift_invariance():
    rng = np.random.default_rng(14)
    for group in ALL_GROUPS:
        lam = random_gauge(group, 4, rng)
        g = random_gauge(group, 1, rng)[0]
        shifted = tuple(group.multiply(g, v) for v in lam)
        A, B = from_gauge_vector(group, lam), from_gauge_vector(group, shifted)
        for i in range(4):
            for j in range(4):
                assert group.distance(A.entry(i, j), B.entry(i, j)) < 1e-12


def test_gauge_extract_golden():
    A = from_upper_triangle(RPLUS, [2.0, 6.0, 3.0])
    assert gauge_extract(A) == (1.0, 2.0, 6.0)
    assert gauge_extract(identity_matrix(U1, 3)) == (0.0, 0.0, 0.0)


def test_gauge_extract_round_trip():
    rng = np.random.default_rng(15)
    for group in ALL_GROUPS:
        for _ in range(100):
            lam = random_gauge(group, 5, rng)
            A = from_gauge_vector(group, lam)
            rec = gauge_extract(A, tol=1e-10)
            expected = normalize_gauge(group, lam)
            for a, b in zip(rec, expected):
                assert group.distance(a, b) < 1e-10


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_normalize_gauge_needs_a_component(group):
    with pytest.raises(ValueError, match="at least one gauge component"):
        normalize_gauge(group, [])
    assert normalize_gauge(group, [group.identity]) == (group.identity,)


def test_gauge_extract_refuses_inconsistent():
    A = from_upper_triangle(RPLUS, [2.0, 4.0, 4.0])
    with pytest.raises(InconsistentMatrixError) as err:
        gauge_extract(A)
    assert err.value.witness == (0, 1, 2)


def test_gauge_extract_refuses_contravariant():
    B = dualize(from_gauge_vector(RPLUS, (1.0, 2.0, 6.0)))
    with pytest.raises(ValueError, match="dualize"):
        gauge_extract(B)


# --- gauge action ---------------------------------------------------------------


def test_gauge_transform_identity_and_length():
    A = random_pc_matrix(U1, 4, rng=16)
    same = gauge_transform(A, (0.0,) * 4)
    for i in range(4):
        for j in range(4):
            assert U1.distance(same.entry(i, j), A.entry(i, j)) < 1e-15
    with pytest.raises(ValueError):
        gauge_transform(A, (0.0,) * 3)


def test_gauge_transform_keeps_gaps():
    grid = [list(row) for row in random_pc_matrix(U1, 4, rng=19).entries]
    grid[0][2] = grid[2][0] = None
    A = PCMatrix(U1, grid)
    B = gauge_transform(A, (0.5, -1.0, 2.0, 0.25))
    assert B.gaps() == A.gaps() == [(0, 2), (2, 0)]
    assert validate(B) == []


def test_gauge_transform_preserves_validity_and_abelian_indicator():
    rng = np.random.default_rng(17)
    for variance in (COVARIANT, CONTRAVARIANT):
        A = random_pc_matrix(U1, 5, rng=rng, variance=variance)
        mu = random_gauge(U1, 5, rng)
        B = gauge_transform(A, mu)
        assert validate(B) == []
        assert ii_indicator(B)[0] == pytest.approx(ii_indicator(A)[0], abs=1e-12)


def test_gauge_transform_conjugates_holonomy_su2():
    rng = np.random.default_rng(18)
    for variance in (COVARIANT, CONTRAVARIANT):
        A = random_pc_matrix(SU2, 4, rng=rng, variance=variance)
        mu = random_gauge(SU2, 4, rng)
        B = gauge_transform(A, mu)
        assert validate(B) == []
        for (i, j, k) in itertools.combinations(range(A.n), 3):
            h = triad_holonomy(A, i, j, k)
            hb = triad_holonomy(B, i, j, k)
            g = mu[i]
            conj = (
                SU2.multiply(SU2.multiply(g, h), SU2.inverse(g))
                if variance == CONTRAVARIANT
                else SU2.multiply(SU2.multiply(SU2.inverse(g), h), g)
            )
            assert SU2.distance(hb, conj) < 1e-12
        assert ii_indicator(B)[0] == pytest.approx(ii_indicator(A)[0], abs=1e-10)


def test_gauge_transform_group_mismatch():
    A = random_pc_matrix(SU2, 3, rng=19)
    with pytest.raises(GroupMismatchError):
        gauge_transform(A, (0.5, 0.5, 0.5))


# --- random matrices -------------------------------------------------------------


def test_random_pc_matrix_no_triads_is_consistent():
    for group in [U1, SU2, zmod(5)]:
        A = random_pc_matrix(group, 2, rng=20)
        assert is_consistent(A).consistent


def test_random_pc_matrix_trivial_group():
    A = random_pc_matrix(zmod(1), 4, rng=21)
    assert A.entries == identity_matrix(zmod(1), 4).entries


def test_random_pc_matrix_deterministic_and_valid():
    A = random_pc_matrix(U1, 3, rng=42)
    B = random_pc_matrix(U1, 3, rng=42)
    assert A == B
    assert validate(A) == []


def test_random_pc_matrix_needs_compact():
    with pytest.raises(NonCompactGroupError):
        random_pc_matrix(RPLUS, 3, rng=0)


# --- exhaustive small-group oracle ------------------------------------------------


def brute_force_consistent(entries, m, variance):
    """Direct loop over every ordered triple, in modular arithmetic."""
    n = len(entries)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if variance == COVARIANT:
                    lhs = (entries[i][j] + entries[j][k]) % m
                else:
                    lhs = (entries[j][k] + entries[i][j]) % m
                if lhs != entries[i][k] % m:
                    return False
    return True


@pytest.mark.parametrize("n", [3, 4])
def test_zmod5_exhaustive_consistency_oracle(n):
    z5 = zmod(5)
    pairs = list(itertools.combinations(range(n), 2))
    for upper in itertools.product(range(5), repeat=len(pairs)):
        for variance in (COVARIANT, CONTRAVARIANT):
            A = from_upper_triangle(z5, list(upper), variance)
            raw = [[A.entry(i, j) for j in range(n)] for i in range(n)]
            assert is_consistent(A, tol=0.0).consistent == brute_force_consistent(raw, 5, variance)
