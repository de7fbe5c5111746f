"""Group kernels against representation oracles, and array triad sweeps
against their scalar forms.

Each group law is written once, as batched kernels, and the element
methods are those kernels on one element, so both are checked against an
independent model of the group: float arithmetic for rplus, unit complex
numbers exp(i theta) for u1 (with the bit-exact ``wrap_angle`` rule),
2 x 2 complex SU(2) matrices under ``np.matmul`` and ``expm`` for su2, and
Python-int arithmetic mod m for zmod.  The scalar triad loops that the
sweeps replaced live on here as the oracle for ``is_consistent``,
``ii_indicator``, ``ii3_matrix`` and ``validate``, and the scalar
``plaquette`` as the oracle for ``global_ii``.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from holopc.consistencize import consistencize_abelian, consistencize_riemannian, lsq_gradient, lsq_objective
from holopc.errors import LogBranchError
from holopc.groups import RPLUS, SU2, TAU, U1, CircleGroup, CyclicGroup, wrap_angle, wrap_angles, zmod
from holopc.pcmatrix import (
    _TRIAD_BLOCK,
    ALGEBRA_TOL,
    CONTRAVARIANT,
    COVARIANT,
    PCMatrix,
    default_indicator,
    from_gauge_vector,
    from_upper_triangle,
    identity_matrix,
    ii3,
    ii3_matrix,
    ii_indicator,
    is_consistent,
    random_pc_matrix,
    validate,
)
from holopc.simplicial import EdgeField, full_simplex, global_ii, grid_complex, identity_field, plaquette

Z7 = zmod(7)
GROUPS = [RPLUS, U1, SU2, Z7]
EXACT = (U1, Z7)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# --- strategies ------------------------------------------------------------------

odd_pi = st.integers(-7, 7).map(lambda k: (2 * k + 1) * math.pi)
angles = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi]),
    odd_pi,
    st.floats(-100.0, 100.0, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
quaternions = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4).filter(
    lambda v: sum(c * c for c in v) > 1e-6
).map(lambda v: SU2.check(tuple(c / math.sqrt(sum(c * c for c in v)) for c in v)))
special_quaternions = st.sampled_from([(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)])
ELEMENTS = {
    "rplus": st.floats(-30.0, 30.0).map(math.exp),
    "u1": angles.map(U1.check),
    "su2": st.one_of(quaternions, special_quaternions),
    "zmod:7": st.integers(-50, 50).map(Z7.check),
}
COORDS = {
    "rplus": st.floats(-30.0, 30.0),
    "u1": angles,
    "su2": st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=3, max_size=3),
    "zmod:7": st.just([]),
}


def elements(group, min_size=1):
    return st.lists(ELEMENTS[group.tag], min_size=min_size, max_size=8)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# --- kernels against element methods --------------------------------------------


@PROPERTY
@given(st.lists(angles, min_size=1, max_size=8))
def test_wrap_angles_is_bitwise_wrap_angle(thetas):
    assert bits(wrap_angles(np.array(thetas))) == bits([wrap_angle(t) for t in thetas])
    for t in thetas:  # Python floats, numpy scalars and 0-d arrays
        for x in (t, np.float64(t), np.array(t)):
            got = wrap_angles(x)
            assert got.shape == ()
            assert bits(got) == bits(wrap_angle(t))


def test_wrap_angles_ties_go_to_plus_pi():
    odd = np.array([(2 * k + 1) * math.pi for k in range(-5, 5)] + [-math.pi, math.pi])
    got = wrap_angles(odd)
    assert bits(got) == bits([wrap_angle(t) for t in odd])
    assert got[-2] == got[-1] == math.pi


# --- the models the group laws are checked against --------------------------------

# SU(2) in the defining representation: w + x i + y j + z k -> w 1 + x E_i +
# y E_j + z E_k, with E_i E_j = E_k as for the quaternion units
E_I = np.array([[1j, 0], [0, -1j]])
E_J = np.array([[0, 1], [-1, 0]], dtype=complex)
E_K = np.array([[0, 1j], [1j, 0]])


def su2_matrix(q):
    w, x, y, z = q
    return w * np.eye(2) + x * E_I + y * E_J + z * E_K


def algebra_matrix(v):
    """su(2) matrix of log coordinates v: exp(v) is ``expm`` of it."""
    return v[0] * E_I + v[1] * E_J + v[2] * E_K


def assert_law(group, a, b, prod, inv, dist):
    """Products a*b, inverses of a and distances d(a, b) against the model."""
    for x, y, p, i, d in zip(a, b, prod, inv, dist, strict=True):
        if group is RPLUS:
            assert p == x * y
            assert i == 1.0 / x
            assert d == pytest.approx(abs(math.log(x / y)), rel=1e-15, abs=1e-15)
        elif group is U1:
            ex, ey = cmath.exp(1j * x), cmath.exp(1j * y)
            assert bits(p) == bits(wrap_angle(x + y))
            assert bits(i) == bits(wrap_angle(-x))
            assert bits(d) == bits(abs(wrap_angle(x - y)))
            assert abs(cmath.exp(1j * p) - ex * ey) <= 4e-15
            assert abs(cmath.exp(1j * i) - ex.conjugate()) <= 4e-15
            assert d == pytest.approx(abs(cmath.phase(ex * ey.conjugate())), abs=4e-15)
        elif group is SU2:
            X, Y = su2_matrix(x), su2_matrix(y)
            assert np.abs(su2_matrix(p) - X @ Y).max() <= 1e-15
            assert np.abs(su2_matrix(i) - X.conj().T).max() <= 1e-15  # the method re-checks x, which may renormalize it by an ulp
            dot = np.trace(X.conj().T @ Y).real / 2.0  # the real inner product of the quaternions
            assert 0.0 <= d <= math.pi
            assert abs(math.cos(d) - dot) <= 1e-15
            assert d == pytest.approx(math.acos(min(1.0, max(-1.0, dot))), abs=2e-8)  # acos is ill-conditioned at the ends
        else:
            m = group.m
            k = (x - y) % m
            assert (p, i) == ((x + y) % m, (-x) % m)
            assert bits(d) == bits(TAU * min(k, m - k) / m)


def law_results(group, a, b):
    """(products, inverses, distances) from the kernels and from the element methods."""
    A, B = group.to_array(a), group.to_array(b)
    kernels = (
        group.from_array(group.batch_multiply(A, B)),
        group.from_array(group.batch_inverse(A)),
        group.batch_distance(A, B).tolist(),
    )
    methods = (
        [group.multiply(x, y) for x, y in zip(a, b)],
        [group.inverse(x) for x in a],
        [group.distance(x, y) for x, y in zip(a, b)],
    )
    return kernels, methods


def log_is_cut(group, g) -> bool:
    """Whether the principal log is refused: su2 at or within 1e-9 of -1,
    a finite group away from the identity."""
    if group is SU2:
        w, s = g[0], math.sqrt(g[1] * g[1] + g[2] * g[2] + g[3] * g[3])
        return (s < 1e-15 and w <= 0.0) or (w < 0.0 and s < 1e-9)
    return isinstance(group, CyclicGroup) and g != 0


def assert_exp(group, v, g):
    """g = exp(v) against the model."""
    if group is RPLUS:
        assert g == pytest.approx(math.exp(v[0]), rel=1e-15)
    elif group is U1:
        assert bits(g) == bits(wrap_angle(v[0]))
        # wrapping subtracts multiples of the float TAU, 2.4e-16 short of 2 pi
        assert abs(cmath.exp(1j * g) - cmath.exp(1j * v[0])) <= 4e-15 * (1.0 + abs(v[0]) / TAU)
    elif group is SU2:
        assert np.abs(su2_matrix(g) - expm(algebra_matrix(v))).max() <= 1e-14
    else:
        assert g == 0


def assert_log(group, g, v):
    """v = log(g) against the model: exp(v) = g on the principal branch."""
    assert np.shape(v) == (group.dim,)
    if group is RPLUS:
        assert v[0] == pytest.approx(math.log(g), rel=1e-15, abs=1e-15)
    elif group is U1:
        assert bits(v) == bits([g])
    elif group is SU2:
        assert np.linalg.norm(v) <= math.pi + 1e-15
        assert np.abs(expm(algebra_matrix(v)) - su2_matrix(g)).max() <= 1e-14


# --- kernels and element methods against the models --------------------------------


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_batched_group_law_matches_elements(group, data):
    a = data.draw(elements(group))
    b = data.draw(st.lists(ELEMENTS[group.tag], min_size=len(a), max_size=len(a)))
    assert group.from_array(group.to_array(a)) == a
    for prod, inv, dist in law_results(group, a, b):
        assert_law(group, a, b, prod, inv, dist)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_batched_exp_log_match_elements(group, data):
    vs = data.draw(st.lists(COORDS[group.tag], min_size=1, max_size=8))
    V = np.array(vs, dtype=float).reshape(len(vs), group.dim)
    for v, g, h in zip(V, group.from_array(group.batch_exp(V)), [group.exp_coords(v) for v in vs], strict=True):
        assert_exp(group, v, g)
        assert_exp(group, v, h)

    g = data.draw(elements(group))
    cut = [log_is_cut(group, x) for x in g]
    if any(cut):
        with pytest.raises(LogBranchError):
            group.batch_log(group.to_array(g))
    else:
        for x, v in zip(g, group.batch_log(group.to_array(g))):
            assert_log(group, x, v)
    for x, refused in zip(g, cut):
        if refused:
            with pytest.raises(LogBranchError):
                group.log_coords(x)
        else:
            assert_log(group, x, group.log_coords(x))


@pytest.mark.parametrize("group", [RPLUS, U1, SU2], ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_batch_adjoint_is_conjugation_in_log_coordinates(group, data):
    g = group.to_array(data.draw(elements(group)))
    bound = 0.999 / math.sqrt(group.dim)  # |v| < 1
    coord = st.floats(-bound, bound)
    vector = st.lists(coord, min_size=group.dim, max_size=group.dim)
    v = np.array(data.draw(st.lists(vector, min_size=len(g), max_size=len(g))))
    conjugated = group.batch_multiply(group.batch_multiply(g, group.batch_exp(v)), group.batch_inverse(g))
    rotated = (group.batch_adjoint(g) @ v[..., None])[..., 0]
    assert np.allclose(group.batch_log(conjugated), rotated, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 1e-16, 1e-15, 1e-12, 5e-10, 2e-9, 1e-6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_su2_batch_log_branch_rule(s, sign):
    q = SU2.check((sign * math.sqrt(1.0 - s * s), s, 0.0, 0.0))
    batch = SU2.to_array([SU2.identity, q])
    if sign < 0.0 and s < 1e-9:  # at or within 1e-9 of the cut locus -1
        with pytest.raises(LogBranchError):
            SU2.batch_log(batch)
        with pytest.raises(LogBranchError):
            SU2.log_coords(q)
        return
    expected = [math.atan2(q[1], q[0]), 0.0, 0.0]  # a rotation about the x axis
    got = SU2.batch_log(batch)
    assert np.all(got[0] == 0.0)
    assert np.allclose(got[1], expected, rtol=1e-15, atol=1e-15)
    assert np.allclose(SU2.log_coords(q), expected, rtol=1e-15, atol=1e-15)


def test_zmod_kernels_stay_exact_at_the_order_limit():
    m = 2**62
    z = zmod(m)
    a = [m - 1, m - 2, 1, 0]
    b = [m - 1, 3, m - 1, 0]
    for prod, inv, dist in law_results(z, a, b):
        assert_law(z, a, b, prod, inv, dist)


# --- the scalar triad loops, kept as the oracle -------------------------------------


def oracle_is_consistent(A, tol=1e-9):
    G = A.group
    worst, worst_defect = None, 0.0
    for i, j, k in itertools.combinations(range(A.n), 3):
        x, y, z = A.entry(i, j), A.entry(i, k), A.entry(j, k)
        comp = G.multiply(x, z) if A.variance == COVARIANT else G.multiply(z, x)
        defect = G.distance(comp, y)
        if worst is None or defect > worst_defect:
            worst, worst_defect = (i, j, k), defect
    return worst_defect <= tol, worst, worst_defect


def oracle_holonomy(A, i, j, k):
    G = A.group
    x, y, z = A.entry(i, j), A.entry(i, k), A.entry(j, k)
    y_inv = G.inverse(y)
    if A.variance == CONTRAVARIANT:
        return G.multiply(G.multiply(y_inv, z), x)
    return G.multiply(G.multiply(x, z), y_inv)


def oracle_ii_indicator(A, ind):
    best_val, best_triad = 0.0, None
    for i, j, k in itertools.combinations(range(A.n), 3):
        v = float(ind(oracle_holonomy(A, i, j, k)))
        if best_triad is None or v > best_val:
            best_val, best_triad = v, (i, j, k)
    return best_val, best_triad


def oracle_ii3_matrix(A):
    best_val, best_triad = 0.0, None
    for i, j, k in itertools.combinations(range(A.n), 3):
        v = ii3(A.entry(i, j), A.entry(i, k), A.entry(j, k))
        if best_triad is None or v > best_val:
            best_val, best_triad = v, (i, j, k)
    return best_val, best_triad


def oracle_validate(A):
    G = A.group
    out = []
    for i in range(A.n):
        d = A.entry(i, i)
        if d is None or G.distance(d, G.identity) > ALGEBRA_TOL:
            out.append((i, i, "diagonal"))
    for i in range(A.n):
        for j in range(i + 1, A.n):
            a, b = A.entry(i, j), A.entry(j, i)
            if (a is None) != (b is None):
                out.append((i, j, "gap symmetry"))
            elif a is not None and G.distance(b, G.inverse(a)) > ALGEBRA_TOL:
                out.append((j, i, "reciprocity"))
    return out


def random_element(group, rng):
    return group.haar_sample(rng) if group.compact else math.exp(rng.normal())


def random_matrix(group, n, rng, variance):
    if group.compact:
        return random_pc_matrix(group, n, rng, variance)
    return from_upper_triangle(group, [random_element(group, rng) for _ in range(n * (n - 1) // 2)], variance)


SIZES = list(range(3, 13)) + [26]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@pytest.mark.parametrize("variance", [COVARIANT, CONTRAVARIANT])
def test_sweeps_match_scalar_loops(group, variance):
    rng = np.random.default_rng(20240)
    for n in SIZES:
        A = random_matrix(group, n, rng, variance)
        chk = is_consistent(A)
        ok, worst, defect = oracle_is_consistent(A)
        assert (chk.consistent, chk.worst_triad) == (ok, worst)
        assert chk.worst_defect == pytest.approx(defect, abs=1e-12)

        value, triad = ii_indicator(A)
        expected = oracle_ii_indicator(A, default_indicator(group))
        assert triad == expected[1]
        assert value == pytest.approx(expected[0], abs=1e-12)
        if group in EXACT:
            assert value == expected[0]

        if group is RPLUS:
            value, triad = ii3_matrix(A)
            expected = oracle_ii3_matrix(A)
            assert triad == expected[1]
            assert value == pytest.approx(expected[0], abs=1e-12)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
def test_supplied_indicator_sees_every_holonomy(group):
    rng = np.random.default_rng(20241)
    ind = lambda g: 0.5 * group.distance(group.identity, g)  # noqa: E731
    for n in (3, 7, 26):
        A = random_matrix(group, n, rng, COVARIANT)
        value, triad = ii_indicator(A, ind)
        expected = oracle_ii_indicator(A, ind)
        assert triad == expected[1]
        assert value == pytest.approx(expected[0], abs=1e-12)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
def test_validate_matches_scalar_loop(group):
    rng = np.random.default_rng(20242)
    for n in SIZES:
        grid = [[random_element(group, rng) for _ in range(n)] for _ in range(n)]
        good = random_matrix(group, n, rng, COVARIANT)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.6:
                    grid[i][j] = good.entry(i, j)  # keep many reciprocal pairs
                if rng.random() < 0.1:
                    grid[i][j] = None
        A = PCMatrix(group, grid)
        assert validate(A) == oracle_validate(A)
        assert validate(good) == oracle_validate(good) == []


# --- tie rule across blocks ---------------------------------------------------------


def zmod_matrix_with_bumped_triads(n, bumps):
    """Z7 matrix, all zero except the pairs of the given triads, bumped by
    (d_ij, d_ik, d_jk); its defect at such a triad is d_ij + d_jk - d_ik."""
    upper = {pair: 0 for pair in itertools.combinations(range(n), 2)}
    for (i, j, k), (dij, dik, djk) in bumps.items():
        upper[i, j], upper[i, k], upper[j, k] = dij, dik, djk
    return from_upper_triangle(Z7, [upper[p] for p in sorted(upper)])


def triad_rank(n, triad):
    return list(itertools.combinations(range(n), 3)).index(triad)


def test_tie_across_blocks_keeps_the_lexicographically_first_triad():
    n = 26
    first, last = (1, 2, 3), (n - 3, n - 2, n - 1)
    assert triad_rank(n, first) < _TRIAD_BLOCK <= triad_rank(n, last)

    # both triads reach the largest Z7 defect, 3 steps; every other triad 1 step
    tie = zmod_matrix_with_bumped_triads(n, {first: (1, 6, 1), last: (1, 6, 1)})
    chk = is_consistent(tie)
    assert chk.worst_triad == first
    assert chk.worst_defect == Z7.distance(0, 3)
    assert ii_indicator(tie) == (Z7.distance(0, 3), first)
    assert oracle_ii_indicator(tie, default_indicator(Z7)) == (Z7.distance(0, 3), first)

    # a strictly larger defect in the later block wins
    later = zmod_matrix_with_bumped_triads(n, {first: (1, 0, 1), last: (1, 6, 1)})
    assert is_consistent(later).worst_triad == last
    assert ii_indicator(later) == (Z7.distance(0, 3), last)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
def test_identity_matrix_reports_first_triad(group):
    A = identity_matrix(group, 30)
    assert math.comb(30, 3) > _TRIAD_BLOCK
    assert ii_indicator(A) == (0.0, (0, 1, 2))
    chk = is_consistent(A, tol=0.0)
    assert (chk.consistent, chk.worst_triad, chk.worst_defect) == (True, (0, 1, 2), 0.0)


# --- each carrier is checked once ------------------------------------------------------


class CountingCircle(CircleGroup):
    """u1 that counts its carrier checks."""

    def __init__(self):
        self.checks = 0

    def check(self, a):
        self.checks += 1
        return super().check(a)


def test_constructors_check_each_value_once():
    G = CountingCircle()
    values = [0.1 * k for k in range(10)]
    from_upper_triangle(G, values)
    assert G.checks == len(values)

    G.checks = 0
    lam = [0.3, -1.0, 2.5, 3.0]
    from_gauge_vector(G, lam)
    assert G.checks == len(lam)


def test_sweeps_and_descent_check_nothing():
    G = CountingCircle()
    rng = np.random.default_rng(20243)
    A = from_upper_triangle(G, [U1.haar_sample(rng) for _ in range(15)], CONTRAVARIANT)
    G.checks = 0
    validate(A)
    is_consistent(A)
    ii_indicator(A)
    consistencize_abelian(A)
    consistencize_riemannian(A)
    lam = G.to_array([A.entry(0, j) for j in range(A.n)])
    lsq_objective(A, lam)
    lsq_gradient(A, lam)
    assert G.checks == 0


# --- plaquette sweep against the scalar plaquette ----------------------------------

Z5 = zmod(5)
FIELD_VALUES = {"u1": ELEMENTS["u1"], "su2": ELEMENTS["su2"], "zmod:5": st.integers(-50, 50).map(Z5.check)}
FIELD_COMPLEXES = [full_simplex(2), full_simplex(3), full_simplex(4), grid_complex(2)]


def scaled_distance(group):
    return lambda g: 0.5 * group.distance(g, group.identity)


@pytest.mark.parametrize("supplied", [False, True], ids=["default", "supplied"])
@pytest.mark.parametrize("group", [U1, SU2, Z5], ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_global_ii_matches_scalar_plaquettes(group, supplied, data):
    K = data.draw(st.sampled_from(FIELD_COMPLEXES))
    values = data.draw(st.lists(FIELD_VALUES[group.tag], min_size=len(K.edges), max_size=len(K.edges)))
    F = EdgeField(group, dict(zip(K.edges, values)))
    ind = scaled_distance(group) if supplied else default_indicator(group)
    scores = [float(ind(plaquette(K, F, t))) for t in K.triangles]
    first = max(range(len(scores)), key=scores.__getitem__)  # first maximum
    value, tri = global_ii(K, F, ind if supplied else None)
    if group is SU2:
        assert value == pytest.approx(scores[first], abs=1e-12)
        assert scores[K.triangles.index(tri)] == pytest.approx(scores[first], abs=1e-12)
    else:
        assert (value, tri) == (scores[first], K.triangles[first])


@pytest.mark.parametrize("supplied", [False, True], ids=["default", "supplied"])
@pytest.mark.parametrize("group", [U1, Z5], ids=lambda g: g.tag)
def test_global_ii_tie_goes_to_first_triangle(group, supplied):
    # only h_23 is off the identity: triangles (0,2,3) and (1,2,3) tie
    K = full_simplex(3)
    h = 0.5 if group is U1 else 2
    F = EdgeField(group, {e: h if e == (2, 3) else group.identity for e in K.edges})
    ind = scaled_distance(group) if supplied else None
    value, tri = global_ii(K, F, ind)
    assert tri == (0, 2, 3)
    assert value == float((ind or default_indicator(group))(plaquette(K, F, (1, 2, 3)))) > 0


@pytest.mark.parametrize("group", [U1, SU2, Z5], ids=lambda g: g.tag)
def test_global_ii_without_triangles_still_checks_the_indicator(group):
    K = full_simplex(1)
    F = identity_field(K, group)
    assert global_ii(K, F) == (0.0, None)
    assert global_ii(K, F, scaled_distance(group)) == (0.0, None)
    with pytest.raises(ValueError, match="not an indicator map"):
        global_ii(K, F, lambda g: 1.0)
