import math
import tracemalloc

import numpy as np
import pytest

from holopc.errors import MissingEdgeError
from holopc.groups import RPLUS, SU2, U1, wrap_angle, zmod
from holopc.pcmatrix import gauge_transform, is_consistent, validate
from holopc.serialize import complex_from_obj
from holopc.simplicial import (
    EdgeField,
    SimplicialComplex2,
    field_from_gauge,
    full_simplex,
    gauge_transform_field,
    global_ii,
    grid_complex,
    holonomy_pc_matrix,
    identity_field,
    path_holonomy,
    plaquette,
    spanning_tree_gauge,
    triangle_curvature,
)

TRIANGLE = full_simplex(2)


def random_field(K, group, rng):
    return EdgeField(group, {e: group.haar_sample(rng) for e in K.edges})


# --- complex construction ----------------------------------------------------


def test_full_simplex_counts():
    K = full_simplex(4)
    assert K.vertices == 5
    assert len(K.edges) == 10
    assert len(K.triangles) == 10
    assert K.is_connected


def test_grid_complex_counts():
    K = grid_complex(2)
    assert K.vertices == 9
    # 12 axis edges + 4 diagonals
    assert len(K.edges) == 16
    assert len(K.triangles) == 8
    assert K.is_connected


def test_complex_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate edge"):
        SimplicialComplex2(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="missing edge"):
        SimplicialComplex2(3, [(0, 1), (1, 2)], [(0, 1, 2)])
    with pytest.raises(ValueError, match="bad edge"):
        SimplicialComplex2(3, [(0, 3)])
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialComplex2(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 1)])


def test_tree_paths_deterministic():
    K = SimplicialComplex2(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert K.tree_path(3) == (0, 1, 3)  # neighbor 1 explored before 2
    assert K.tree_path(0) == (0,)
    assert [K.neighbors(v) for v in range(4)] == [[1, 2], [0, 3], [0, 3], [1, 2]]
    for v in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            K.neighbors(v)



@pytest.mark.parametrize("edges, around_1", [([], []), ([[0, 1]], [0]), ([[0, 1], [1, 2], [5, 9]], [0, 2])])
def test_isolated_vertices_cost_nothing(edges, around_1):
    # a million declared vertices with at most a few edges: nothing is built per vertex
    tracemalloc.start()
    try:
        K = complex_from_obj({"vertices": 10**6, "edges": edges})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert not K.is_connected and K.reachable(1) == bool(edges)
    assert K.neighbors(1) == around_1 and K.neighbors(7) == [] and K.neighbors(10**6 - 1) == []
    assert K.tree_path(0) == (0,)
    if edges:
        assert K.tree_path(1) == (0, 1)
    with pytest.raises(ValueError, match="out of range"):
        K.neighbors(10**6)


def test_disconnected_complex_allowed_but_flagged():
    K = SimplicialComplex2(6, [(0, 1), (2, 3), (2, 4), (3, 4)], [(2, 3, 4)])
    assert not K.is_connected
    assert not K.reachable(2)
    with pytest.raises(ValueError, match="unreachable"):
        K.tree_path(2)


# --- fields --------------------------------------------------------------------


def test_edge_field_orientation():
    F = EdgeField(RPLUS, {(0, 1): 2.0, (2, 1): 4.0})
    assert F.value(0, 1) == 2.0
    assert F.value(1, 0) == 0.5
    assert F.value(1, 2) == 0.25
    assert F.value(2, 1) == 4.0
    with pytest.raises(MissingEdgeError, match="0-2"):
        F.value(0, 2)


@pytest.mark.parametrize(
    "K",
    [SimplicialComplex2(3, [(0, 1), (1, 2)]), full_simplex(2)],
    ids=["without-triangles", "with-triangles"],
)
def test_global_ii_refuses_a_field_missing_an_edge(K):
    # the field is bound before the triangles are counted
    with pytest.raises(MissingEdgeError, match="no field value on edge"):
        global_ii(K, EdgeField(U1, {(0, 1): 0.3}))
    assert global_ii(K, identity_field(K, U1)) == (0.0, None if not K.triangles else (0, 1, 2))


def test_edge_field_rejects_duplicates_and_self_edges():
    with pytest.raises(ValueError, match="duplicate"):
        EdgeField(RPLUS, {(0, 1): 2.0, (1, 0): 2.0})
    with pytest.raises(ValueError, match="self-edge"):
        EdgeField(RPLUS, {(1, 1): 2.0})


# --- path holonomy ---------------------------------------------------------------


def test_path_holonomy_identity_field():
    K = full_simplex(3)
    F = identity_field(K, SU2)
    assert path_holonomy(K, F, (0, 1, 2, 3)) == SU2.identity
    assert path_holonomy(K, F, ()) == SU2.identity
    assert path_holonomy(K, F, (2,)) == SU2.identity


def test_path_holonomy_single_edge_and_orders():
    K = TRIANGLE
    F = EdgeField(U1, {(0, 1): 0.3, (1, 2): 0.5, (0, 2): 0.1})
    assert path_holonomy(K, F, (0, 1)) == pytest.approx(0.3)
    # contravariant composition: last edge leftmost
    assert path_holonomy(K, F, (0, 1, 2)) == pytest.approx(0.8)
    with pytest.raises(ValueError, match="non-adjacent"):
        path_holonomy(K, F, (0, 0))


def test_path_reversal_cancels():
    rng = np.random.default_rng(50)
    K = full_simplex(3)
    F = random_field(K, SU2, rng)
    fwd = path_holonomy(K, F, (0, 1, 2))
    back = path_holonomy(K, F, (2, 1, 0))
    assert SU2.distance(SU2.multiply(back, fwd), SU2.identity) < 1e-12
    assert SU2.distance(back, SU2.inverse(fwd)) < 1e-12


def test_holonomy_concatenation_rule():
    rng = np.random.default_rng(51)
    K = full_simplex(4)
    F = random_field(K, SU2, rng)
    p, q = (0, 1, 2), (2, 3, 4)
    whole = path_holonomy(K, F, p + q[1:])
    split = SU2.multiply(path_holonomy(K, F, q), path_holonomy(K, F, p))
    assert SU2.distance(whole, split) < 1e-12


# --- spanning tree gauge ----------------------------------------------------------


def test_tree_gauge_identity_field():
    K = full_simplex(3)
    assert spanning_tree_gauge(K, identity_field(K, U1)) == (0.0, 0.0, 0.0, 0.0)


def test_tree_gauge_chain():
    # vertices strung on a chain: the gauge at 2 is b*a, contravariant order
    K = SimplicialComplex2(4, [(0, 1), (1, 2), (2, 3)])
    a, b, c = (SU2.haar_sample(np.random.default_rng(s)) for s in (1, 2, 3))
    F = EdgeField(SU2, {(0, 1): a, (1, 2): b, (2, 3): c})
    g = spanning_tree_gauge(K, F)
    assert SU2.distance(g[2], SU2.multiply(b, a)) < 1e-12
    assert SU2.distance(g[3], SU2.multiply(c, SU2.multiply(b, a))) < 1e-12


def test_tree_gauge_ignores_non_tree_edges():
    rng = np.random.default_rng(52)
    K = full_simplex(3)
    F = random_field(K, U1, rng)
    g1 = spanning_tree_gauge(K, F)
    # tree from base 0 on a complete graph uses only edges (0, v)
    bumped = {e: F.value(*e) for e in K.edges}
    bumped[(1, 2)] = U1.multiply(bumped[(1, 2)], 1.0)
    g2 = spanning_tree_gauge(K, EdgeField(U1, bumped))
    assert g1 == g2


def test_tree_gauge_needs_connected():
    K = SimplicialComplex2(4, [(0, 1), (2, 3)])
    F = identity_field(K, U1)
    with pytest.raises(ValueError, match="disconnected"):
        spanning_tree_gauge(K, F)


# --- holonomy matrix ----------------------------------------------------------------


def test_holonomy_matrix_identity_field_with_gaps():
    K = SimplicialComplex2(4, [(0, 1), (1, 2), (2, 3)])
    A = holonomy_pc_matrix(K, identity_field(K, U1))
    assert A.variance == "contravariant"
    assert A.entry(0, 1) == 0.0
    assert A.entry(0, 2) is None
    assert sorted(A.gaps()) == [(0, 2), (0, 3), (1, 3), (2, 0), (3, 0), (3, 1)]
    assert validate(A) == []


def test_holonomy_matrix_is_valid_on_random_fields():
    rng = np.random.default_rng(53)
    K = full_simplex(4)
    for group in [U1, SU2, zmod(5)]:
        for _ in range(200):
            A = holonomy_pc_matrix(K, random_field(K, group, rng))
            assert validate(A) == []


def test_holonomy_matrix_entries_are_edge_holonomies():
    # with the tree gauge the based conjugations telescope away; the matrix
    # canonicalizes each carrier on construction, so compare with check()
    rng = np.random.default_rng(54)
    for group in [U1, SU2, zmod(5)]:
        for K in [grid_complex(2), full_simplex(4)]:
            F = random_field(K, group, rng)
            A = holonomy_pc_matrix(K, F)
            for (i, j) in K.edges:
                assert A.entry(i, j) == group.check(F.value(i, j))
                assert A.entry(j, i) == group.check(F.value(j, i))
            assert len(A.gaps()) == K.vertices * (K.vertices - 1) - 2 * len(K.edges)


def test_spanning_tree_gauge_follows_tree_paths():
    K = grid_complex(4)
    F = random_field(K, SU2, np.random.default_rng(57))
    g = spanning_tree_gauge(K, F)
    for v in range(K.vertices):
        assert SU2.distance(g[v], path_holonomy(K, F, K.tree_path(v))) < 1e-12


def test_flat_field_gives_consistent_matrix():
    rng = np.random.default_rng(55)
    for group in [U1, SU2, zmod(7)]:
        K = full_simplex(3)
        lam = [group.haar_sample(rng) for _ in range(K.vertices)]
        A = holonomy_pc_matrix(K, field_from_gauge(K, group, lam))
        chk = is_consistent(A, tol=1e-10)
        assert chk.consistent


def test_single_triangle_curvature_conjugate():
    c = SU2.haar_sample(np.random.default_rng(56))
    F = EdgeField(SU2, {(0, 1): SU2.identity, (1, 2): SU2.identity, (0, 2): c})
    A = holonomy_pc_matrix(TRIANGLE, F)
    from holopc.pcmatrix import triad_holonomy

    h = triad_holonomy(A, 0, 1, 2)
    # conjugate elements stay at the same distance from the identity
    assert SU2.distance(h, SU2.identity) == pytest.approx(
        SU2.distance(c, SU2.identity), abs=1e-12
    )


# --- curvature -------------------------------------------------------------------------


def test_flat_field_curvature_is_identity():
    rng = np.random.default_rng(57)
    K = grid_complex(2)
    lam = [U1.haar_sample(rng) for _ in range(K.vertices)]
    F = field_from_gauge(K, U1, lam)
    for t in K.triangles:
        assert abs(triangle_curvature(K, F, t)) < 1e-12


def test_u1_triangle_curvature_angle():
    F = EdgeField(U1, {(0, 1): 0.3, (1, 2): 0.5, (0, 2): 0.1})
    assert triangle_curvature(TRIANGLE, F, (0, 1, 2)) == pytest.approx(0.7)
    assert plaquette(TRIANGLE, F, (0, 1, 2)) == pytest.approx(0.7)


def test_curvature_basepoint_independent_in_value():
    rng = np.random.default_rng(58)
    K = grid_complex(2)
    F = random_field(K, SU2, rng)
    for t in K.triangles:
        based = SU2.distance(SU2.identity, triangle_curvature(K, F, t))
        local = SU2.distance(SU2.identity, plaquette(K, F, t))
        assert based == pytest.approx(local, abs=1e-12)


def test_unknown_triangle_rejected():
    F = identity_field(TRIANGLE, U1)
    with pytest.raises(ValueError, match="unknown triangle"):
        triangle_curvature(TRIANGLE, F, (0, 1, 3))


def test_triangle_lookups_read_integer_vertices():
    # vertices follow the rule of complex construction: integral floats and
    # numpy integers are vertices, fractions and bools are not
    F = EdgeField(U1, {(0, 1): 0.3, (1, 2): 0.5, (0, 2): 0.1})
    for t in [(0, 1, 2), (2.0, 0, 1), (np.int64(1), 0.0, 2)]:
        assert TRIANGLE.has_triangle(t)
        assert plaquette(TRIANGLE, F, t) == plaquette(TRIANGLE, F, (0, 1, 2))
    for t in [(0, 1, 2.7), (0, 1.9, 2.2), (True, 0, 2), (0, 1), (0, 1, 2, 3), ("0", 1, 2)]:
        assert not TRIANGLE.has_triangle(t)
        for lookup in (plaquette, triangle_curvature):
            with pytest.raises(ValueError, match="unknown triangle"):
                lookup(TRIANGLE, F, t)


def test_edge_lookups_match_edges_by_value():
    # an edge is found by its key i * V + j; a pair of other numbers whose key
    # collides with an edge's (0.25 * 4 + 1 = key of (0, 2)) is not that edge
    K = full_simplex(3)
    F = identity_field(K, U1)
    for i, j in [(0, 1), (1, 0), (1.0, 2), (np.int64(3), 2)]:
        assert K.has_edge(i, j)
        assert path_holonomy(K, F, (i, j)) == 0.0
    for i, j in [(0.25, 1), (0.5, 2), (2, 2), (-1, 0), (0, 4), (0, 10**30)]:
        assert not K.has_edge(i, j)
        with pytest.raises(ValueError, match="non-adjacent"):
            path_holonomy(K, F, (i, j))


def test_vertex_arguments_are_integers():
    # the rule of complex construction: a bool or a fraction is no vertex, so
    # a lookup does not find it and an operation on a vertex refuses it
    K = full_simplex(3)
    assert not K.has_edge(True, 2) and not K.has_edge(0, False)
    assert not K.reachable(True) and K.reachable(1.0)
    assert K.neighbors(1.0) == K.neighbors(np.int64(1)) == [0, 2, 3]
    assert K.tree_path(2.0) == (0, 2)
    for v in (True, 1.5, "1"):
        with pytest.raises(ValueError, match=f"vertex must be an integer, got {v!r}"):
            K.neighbors(v)
        with pytest.raises(ValueError, match=f"vertex must be an integer, got {v!r}"):
            K.tree_path(v)
    with pytest.raises(ValueError, match="non-adjacent step 0->True"):
        path_holonomy(K, identity_field(K, U1), (0, True))


def test_complex_size_and_base_are_integers():
    K = SimplicialComplex2(4.0, [(0, 1)], base=np.int64(1))
    assert (K.vertices, K.base) == (4, 1) and type(K.vertices) is int
    with pytest.raises(ValueError, match=r"vertices must be an integer, got 4\.5"):
        SimplicialComplex2(4.5, [(0, 1)])
    with pytest.raises(ValueError, match="base vertex must be an integer, got True"):
        SimplicialComplex2(4, [(0, 1)], base=True)


# --- global indicator ---------------------------------------------------------------------


def test_global_ii_flat_and_single_triangle():
    rng = np.random.default_rng(59)
    K = full_simplex(3)
    lam = [SU2.haar_sample(rng) for _ in range(K.vertices)]
    val, _ = global_ii(K, field_from_gauge(K, SU2, lam))
    assert val < 1e-12
    F = EdgeField(U1, {(0, 1): 0.3, (1, 2): 0.5, (0, 2): 0.1})
    assert global_ii(TRIANGLE, F) == (pytest.approx(0.7), (0, 1, 2))


def test_global_ii_two_disjoint_triangles():
    K = SimplicialComplex2(
        6,
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
        [(0, 1, 2), (3, 4, 5)],
    )
    F = EdgeField(
        U1,
        {(0, 1): 0.2, (1, 2): 0.0, (0, 2): 0.0, (3, 4): 0.9, (4, 5): 0.0, (3, 5): 0.0},
    )
    val, tri = global_ii(K, F)
    assert val == pytest.approx(0.9)
    assert tri == (3, 4, 5)


def test_global_ii_no_triangles():
    K = SimplicialComplex2(3, [(0, 1), (1, 2)])
    assert global_ii(K, identity_field(K, U1)) == (0.0, None)


def test_boundary_holonomy_equals_signed_curvature_sum():
    # disk property on the grid: the outer boundary angle equals the sum of
    # triangle curvatures, counted with the orientation of each triangle
    rng = np.random.default_rng(60)
    m = 2
    K = grid_complex(m)
    F = random_field(K, U1, rng)
    w = m + 1
    bottom = list(range(0, m + 1))
    right = [r * w + m for r in range(1, m + 1)]
    top = [m * w + c for c in range(m - 1, -1, -1)]
    left = [r * w for r in range(m - 1, 0, -1)]
    boundary = bottom + right + top + left + [0]
    total = 0.0
    for (a, b, c) in K.triangles:
        curv = triangle_curvature(K, F, (a, b, c))
        # cells are split by the down-right diagonal: (v00, v01, v11) is
        # counterclockwise, (v00, v10, v11) clockwise
        sign = 1.0 if b == a + 1 else -1.0
        total += sign * curv
    boundary_angle = path_holonomy(K, F, tuple(boundary))
    assert wrap_angle(boundary_angle - total) == pytest.approx(0.0, abs=1e-10)


# --- gauge transformations -----------------------------------------------------------------


def test_gauge_transform_field_identity():
    K = full_simplex(3)
    F = random_field(K, SU2, np.random.default_rng(61))
    same = gauge_transform_field(K, F, [SU2.identity] * K.vertices)
    for e in K.edges:
        assert SU2.distance(same.value(*e), F.value(*e)) < 1e-15


def test_gauge_transform_field_abelian_curvature_unchanged():
    rng = np.random.default_rng(62)
    K = grid_complex(2)
    F = random_field(K, U1, rng)
    mu = [U1.haar_sample(rng) for _ in range(K.vertices)]
    Fg = gauge_transform_field(K, F, mu)
    for t in K.triangles:
        assert plaquette(K, Fg, t) == pytest.approx(plaquette(K, F, t), abs=1e-12)


def test_gauge_transform_field_conjugates_curvature():
    rng = np.random.default_rng(63)
    K = full_simplex(3)
    F = random_field(K, SU2, rng)
    mu = [SU2.haar_sample(rng) for _ in range(K.vertices)]
    Fg = gauge_transform_field(K, F, mu)
    for (i, j, k) in K.triangles:
        expected = SU2.multiply(
            SU2.multiply(mu[i], plaquette(K, F, (i, j, k))), SU2.inverse(mu[i])
        )
        assert SU2.distance(plaquette(K, Fg, (i, j, k)), expected) < 1e-12
    assert global_ii(K, Fg)[0] == pytest.approx(global_ii(K, F)[0], abs=1e-10)


# a 4-cycle that bounds no triangle, with a pendant vertex
SQUARE_AND_TAIL = SimplicialComplex2(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])


@pytest.mark.parametrize("K", [grid_complex(3), full_simplex(4), SQUARE_AND_TAIL], ids=["grid3", "simplex4", "square"])
@pytest.mark.parametrize("group", [U1, SU2, zmod(7)], ids=lambda g: g.tag)
def test_holonomy_matrix_is_gauge_covariant(group, K):
    # the paper's bridge: a vertex gauge transformation of the field moves
    # its holonomy matrix by the matrix gauge action, bit for bit
    rng = np.random.default_rng(64)
    F = random_field(K, group, rng)
    mu = [group.haar_sample(rng) for _ in range(K.vertices)]
    moved = holonomy_pc_matrix(K, gauge_transform_field(K, F, mu))
    expected = gauge_transform(holonomy_pc_matrix(K, F), mu)
    assert moved == expected
    assert np.array_equal(moved._positions, expected._positions)
    assert moved._carriers.tobytes() == expected._carriers.tobytes()


def test_gauge_transform_field_length_mismatch():
    K = full_simplex(2)
    F = identity_field(K, U1)
    with pytest.raises(ValueError, match="length"):
        gauge_transform_field(K, F, [0.0, 0.0])


# --- flatness equivalence ---------------------------------------------------------------------


def test_flatness_iff_consistent_matrix():
    rng = np.random.default_rng(64)
    K = full_simplex(4)
    tol = 1e-9
    for group in [U1, SU2, zmod(5)]:
        for trial in range(40):
            if trial % 2 == 0:
                F = random_field(K, group, rng)
            else:
                lam = [group.haar_sample(rng) for _ in range(K.vertices)]
                F = field_from_gauge(K, group, lam)
            flat = all(
                group.distance(triangle_curvature(K, F, t), group.identity) <= tol
                for t in K.triangles
            )
            consistent = is_consistent(holonomy_pc_matrix(K, F), tol=tol).consistent
            assert flat == consistent
