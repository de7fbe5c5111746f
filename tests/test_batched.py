"""Group kernels against representation oracles, and array triad sweeps
against their scalar forms.

Each group law is written once, as batched kernels, and the element
methods are those kernels on one element, so both are checked against an
independent model of the group: float arithmetic for rplus, unit complex
numbers exp(i theta) for u1 (with the bit-exact ``wrap_angle`` rule),
2 x 2 complex SU(2) matrices under ``np.matmul`` and ``expm`` for su2, and
Python-int arithmetic mod m for zmod.  The scalar triad loops that the
sweeps replaced live on here as the oracle for ``is_consistent``,
``ii_indicator``, ``ii3_matrix`` and ``validate``, the identity-filled dense
grid as the reference for ``validate`` on gapped matrices, and the scalar
``plaquette`` as the oracle for ``global_ii``.  Every constructor and
reader is held to the one matrix layout (sorted flat positions beside the
carriers).  The loop scorer, which reads the default indicator of a
holonomy as the triad defect d(xz, y) or d(zx, y), is checked against the
holonomy form d(1, h^-1), and the indicators against gauge
transformations.
"""

import cmath
import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from holopc import pcmatrix
from holopc.consistencize import consistencize_abelian, consistencize_riemannian, lsq_gradient, lsq_objective
from holopc.errors import LogBranchError
from holopc.groups import (
    RPLUS,
    SU2,
    TAU,
    U1,
    CircleGroup,
    CyclicGroup,
    Group,
    PositiveReals,
    UnitQuaternions,
    wrap_angle,
    wrap_angles,
    zmod,
)
from holopc.integrate import Observable, _estimate, expectation
from holopc.pcmatrix import (
    _TRIAD_BLOCK,
    ALGEBRA_TOL,
    CONTRAVARIANT,
    COVARIANT,
    PCMatrix,
    _batched_indicator,
    _from_pairs,
    _holonomies,
    _loop_scorer,
    _triad_blocks,
    _triangle_edges,
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
    is_consistent,
    normalize_gauge,
    random_pc_matrix,
    triad_holonomy,
    validate,
)
from holopc.serialize import matrix_from_csv, matrix_from_obj, matrix_to_csv, matrix_to_obj
from holopc.simplicial import (
    EdgeField,
    SimplicialComplex2,
    _triangle_scores,
    field_from_gauge,
    full_simplex,
    gauge_transform_field,
    global_ii,
    grid_complex,
    holonomy_pc_matrix,
    identity_field,
    plaquette,
)

Z5, Z7 = zmod(5), zmod(7)
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


def elements_of(group, count):
    return st.lists(ELEMENTS[group.tag], min_size=count, max_size=count)


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


# u1 carriers lie in (-pi, pi]; the one float below pi, its negation (the
# carrier nearest -pi) and pi itself bound every sum, difference and negation
# the kernels fold; -pi is not a carrier
NEAR_PI = math.nextafter(math.pi, 0.0)
u1_carriers = st.one_of(
    st.sampled_from([math.pi, NEAR_PI, -NEAR_PI, 0.0, -0.0, math.pi / 2, -math.pi / 2]),
    angles.map(U1.check),
)
u1_pairs = st.one_of(
    st.tuples(u1_carriers, u1_carriers),
    st.just((math.pi, math.pi)),  # the sum is exactly TAU
    u1_carriers.map(lambda x: (x, U1.check(math.pi - x))),  # sums at pi, either side of it
    u1_carriers.map(lambda x: (x, U1.check(-math.pi - x))),  # sums at -pi, either side of it
    u1_carriers.map(lambda x: (x, -x if x != math.pi else x)),  # sums at 0
)


def wrapped(theta):
    """wrap_angle elementwise: the reduction by ``math.remainder`` that
    ``wrap_angles`` matches bit for bit, with no numpy in it."""
    theta = np.asarray(theta)
    return np.array([wrap_angle(t) for t in theta.ravel().tolist()]).reshape(theta.shape)


@PROPERTY
@given(st.lists(u1_pairs, min_size=1, max_size=24), st.integers(0, 2**32 - 1))
def test_u1_kernels_are_the_wrapped_formulas(pairs, seed):
    # each kernel folds a sum, difference or negation of carriers once, where
    # it used to call wrap_angles; on carrier input both are the exact reduction
    a, b = np.array(pairs).T
    c = np.random.default_rng(seed).permutation(np.concatenate((a, b)))[: len(a)]
    assert bits(U1.batch_multiply(a, b)) == bits(wrapped(a + b))
    assert bits(U1.batch_inverse(a)) == bits(wrapped(-a))
    assert bits(U1.batch_distance(a, b)) == bits(np.abs(wrapped(a - b)))
    assert bits(U1.batch_defect(a, b, c)) == bits(np.abs(wrapped(wrapped(a + b) + wrapped(-c))))
    grid = np.stack((a, b), axis=1)  # (m, 2) arrays, as the Monte Carlo blocks pass them
    assert bits(U1.batch_multiply(grid, grid[::-1])) == bits(wrapped(grid + grid[::-1]))
    draws = U1.batch_haar_sample(np.random.default_rng(seed), (len(a), 3))
    assert bits(draws) == bits(wrapped(np.random.default_rng(seed).uniform(-math.pi, math.pi, (len(a), 3))))


@PROPERTY
@given(
    st.one_of(  # magnitudes whose squared deviations stay finite, as np.std needs
        st.lists(st.floats(-1e100, 1e100), min_size=2, max_size=40).map(np.array),
        st.tuples(st.integers(2, 3000), st.floats(1e-100, 1e100), st.integers(0, 2**32 - 1)).map(
            lambda t: t[1] * np.random.default_rng(t[2]).normal(size=t[0])
        ),
    )
)
def test_estimate_is_numpy_mean_and_std(vals):
    # one pass over the sample values, with the sums and divisions that
    # np.mean and np.std make
    est = _estimate(vals, 0, "mean_curvature_In")
    assert bits(est.mean) == bits(np.mean(vals))
    assert bits(est.std_error) == bits(np.std(vals, ddof=1) / np.sqrt(len(vals)))


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


decades = st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8)


@PROPERTY
@given(decades, decades)
def test_rplus_distance_is_the_log_ratio_inside_and_beyond_the_float_range(xs, ys):
    # every pair of a = 10**x and b = 10**y, by broadcasting: where a / b is
    # inside the carrier range (2**-1024, 1.7976931348623153e308) the kernel
    # is |log(a / b)| bit for bit; where the ratio leaves it, subnormal,
    # overflowing or underflowing, it is |log a - log b|, and it never raises
    # (a numpy warning would be an error here)
    a, b = 10.0 ** np.array(xs)[:, None], 10.0 ** np.array(ys)[None, :]
    d = RPLUS.batch_distance(a, b)
    with np.errstate(over="ignore", under="ignore"):
        ratio = a / b
    inside = (ratio > 2.0**-1024) & (ratio < 1.7976931348623153e308)
    assert d.shape == ratio.shape
    assert bits(d[inside]) == bits(np.abs(np.log(ratio[inside])))
    for i, j in zip(*np.nonzero(~inside)):
        logs = abs(math.log(a[i, 0]) - math.log(b[0, j]))
        assert d[i, j] == pytest.approx(logs, rel=1e-12)


@PROPERTY
@given(decades, decades)
def test_rplus_residual_log_is_the_composition_log_inside_and_the_log_difference_beyond(xs, ys):
    # log(e^-1 a) for every pair of e = 10**x and a = 10**y: where the
    # product (1 / e) a is inside the carrier range it is the log of the group
    # law's product bit for bit; beyond, where that kernel refuses it, log a - log e
    e, a = 10.0 ** np.array(xs)[:, None], 10.0 ** np.array(ys)[None, :]
    r = RPLUS.batch_log_ratio(e, a)
    with np.errstate(over="ignore"):
        p = 1.0 / e * a
    inside = (p > 2.0**-1024) & (p < 1.7976931348623153e308)
    assert r.shape == p.shape + (1,)
    e_in, a_in = (np.broadcast_to(x, p.shape)[inside] for x in (e, a))
    assert bits(r[inside, 0]) == bits(np.log(RPLUS.batch_multiply(RPLUS.batch_inverse(e_in), a_in)))
    for i, j in zip(*np.nonzero(~inside)):
        assert r[i, j, 0] == pytest.approx(math.log(a[0, j]) - math.log(e[i, 0]), rel=1e-12)


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


def dense_validate(A):
    """The reference for ``validate``: the axioms read off an identity-filled
    n x n carrier grid and an n^2 gap mask by flat position, with the same
    kernels on the same carriers."""
    G, n = A.group, A.n
    P = A._positions
    M = np.repeat(G.to_array([G.identity]), n * n, axis=0)
    M[P] = A._carriers
    gap = np.ones(n * n, dtype=bool)
    gap[P] = False
    d = np.arange(n) * (n + 1)
    bad_diag = gap[d] | (G.batch_distance(M[d], G.to_array([G.identity])) > ALGEBRA_TOL)
    out = [(i, i, "diagonal") for i in np.flatnonzero(bad_diag).tolist()]
    I, J = np.triu_indices(n, 1)
    up, low = I * n + J, J * n + I
    asymmetric = gap[up] != gap[low]
    unreciprocal = ~(gap[up] | gap[low]) & (G.batch_distance(M[low], G.batch_inverse(M[up])) > ALGEBRA_TOL)
    for p in np.flatnonzero(asymmetric | unreciprocal).tolist():
        i, j = int(I[p]), int(J[p])
        out.append((i, j, "gap symmetry") if asymmetric[p] else (j, i, "reciprocity"))
    return out


VALIDATE_VALUES = {**ELEMENTS, "zmod:5": st.integers(-50, 50).map(Z5.check)}
CELLS = st.sampled_from(["keep", "keep", "keep", "gap", "redraw", "nudge"])


def nudged(group, x, eps):
    """x times exp(eps) in every coordinate: about the tolerance away."""
    if group.dim == 0:
        return x
    step = group.batch_exp(np.full((1, group.dim), eps))
    return group.from_array(group.batch_multiply(group.to_array([x]), step))[0]


@pytest.mark.parametrize("group", [RPLUS, U1, SU2, Z5], ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_validate_matches_the_dense_reference(group, data):
    # a valid matrix broken cell by cell: gaps in a symmetric or an
    # asymmetric pattern, or every off-diagonal entry gone; the diagonal
    # gapped; carriers redrawn, or moved by about the tolerance
    n = data.draw(st.integers(2, 9))
    values = VALIDATE_VALUES[group.tag]
    grid = [[group.identity] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):  # the inverse kernel: inverse() would check x again
        x = data.draw(values)
        grid[i][j], grid[j][i] = x, group.from_array(group.batch_inverse(group.to_array([x])))[0]
    pattern = data.draw(st.sampled_from(["symmetric", "asymmetric", "no off-diagonal entry"]))
    for i, j in itertools.product(range(n), repeat=2):
        cell = data.draw(CELLS)
        if pattern == "no off-diagonal entry" and i != j:
            grid[i][j] = None
        elif cell == "gap":
            grid[i][j] = None
            if pattern == "symmetric":
                grid[j][i] = None
        elif cell == "redraw" and grid[i][j] is not None:
            grid[i][j] = data.draw(values)
        elif cell == "nudge" and grid[i][j] is not None:
            grid[i][j] = nudged(group, grid[i][j], data.draw(st.sampled_from([-2e-12, -5e-13, 5e-13, 2e-12])))
    A = PCMatrix(group, grid)
    assert validate(A) == dense_validate(A)


@pytest.mark.parametrize("group", [RPLUS, U1, SU2, Z5], ids=lambda g: g.tag)
@pytest.mark.parametrize("n", [2, 3])
def test_validate_without_off_diagonal_entries(group, n):
    diagonal_only = PCMatrix(group, [[group.identity if i == j else None for j in range(n)] for i in range(n)])
    assert validate(diagonal_only) == dense_validate(diagonal_only) == []
    empty = PCMatrix(group, [[None] * n for _ in range(n)])
    assert validate(empty) == dense_validate(empty) == [(i, i, "diagonal") for i in range(n)]


@pytest.mark.parametrize("group", [RPLUS, U1, SU2, Z5], ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_gap_free_validate_reads_its_cached_layout_as_the_general_path(group, data):
    # a valid gap-free matrix with diagonal and reciprocity violations
    # injected: the per-n layout gives the list the searchsorted pairing of
    # the stored positions gives, in the same order, and the dense reference's
    n = data.draw(st.integers(2, 9))
    values = VALIDATE_VALUES[group.tag]
    A = from_upper_triangle(group, data.draw(st.lists(values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    grid = [list(row) for row in A.entries]
    for i, j in itertools.product(range(n), repeat=2):
        cell = data.draw(st.sampled_from(["keep", "keep", "keep", "redraw", "nudge"]))
        if cell == "redraw":
            grid[i][j] = data.draw(values)
        elif cell == "nudge":
            grid[i][j] = nudged(group, grid[i][j], data.draw(st.sampled_from([-2e-12, -5e-13, 5e-13, 2e-12])))
    B = PCMatrix(group, grid)
    assert B.gap_free
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcmatrix, "_gap_free_pairing", lambda m: pytest.fail("the general path read the cached layout"))
        mp.setattr(PCMatrix, "gap_free", property(lambda self: False))
        general = validate(B)
    assert validate(B) == general == dense_validate(B)
    assert not any(a.flags.writeable for a in pcmatrix._gap_free_pairing(n))


def gapped_matrix(group, data):
    """A random valid matrix of either variance with any gap pattern, built
    by ``_from_pairs`` from its kept upper pairs; with its variance and the
    grid it stands for: the carriers at (i, j), their inverses at (j, i),
    the identity on the diagonal and gaps elsewhere."""
    n = data.draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    kept = [p for p, keep in zip(pairs, present) if keep]
    values = data.draw(st.lists(ELEMENTS[group.tag], min_size=len(kept), max_size=len(kept)))
    variance = data.draw(st.sampled_from([COVARIANT, CONTRAVARIANT]))
    grid = [[group.identity if i == j else None for j in range(n)] for i in range(n)]
    for (i, j), x in zip(kept, values):  # the inverse kernel on one carrier: inverse() would check x again
        grid[i][j], grid[j][i] = x, group.from_array(group.batch_inverse(group.to_array([x])))[0]
    I, J = (np.array([p[c] for p in kept], dtype=np.intp) for c in (0, 1))
    upper = group.to_array(values).reshape((len(kept),) + group.to_array([group.identity]).shape[1:])
    return _from_pairs(group, n, I, J, upper, variance), variance, grid


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_from_pairs_matches_a_dense_reference(group, data):
    # any gap pattern, against a grid built here
    A, variance, grid = gapped_matrix(group, data)
    flat = [x for row in grid for x in row]
    positions = [p for p, x in enumerate(flat) if x is not None]
    assert (A.n, A.variance) == (len(grid), variance)
    assert A._carriers.tobytes() == group.to_array([flat[p] for p in positions]).tobytes()
    assert A._positions.tolist() == positions
    assert A.gap_free == (None not in flat)
    assert validate(A) == []


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_dualize_is_an_involution(group, data):
    # dualize transposes and flips the variance; twice gives back the
    # positions, the carriers bit for bit, and the variance
    A, _, grid = gapped_matrix(group, data)
    D = dualize(A)
    assert D.variance != A.variance and D.entries == tuple(zip(*grid))
    B = dualize(D)
    assert (B.group, B.n, B.variance) == (A.group, A.n, A.variance)
    assert B._positions.tolist() == A._positions.tolist()
    assert D._positions.tolist() == sorted((p % A.n) * A.n + p // A.n for p in A._positions.tolist())
    assert B._carriers.shape == A._carriers.shape and B._carriers.tobytes() == A._carriers.tobytes()


# --- one layout -----------------------------------------------------------------------


def assert_one_layout(A, positions):
    """Every matrix stores its flat positions: strictly increasing in
    [0, n^2), one per stored carrier, exactly the expected ones, each read
    back by ``entry``; and it is gap-free exactly when there are n^2."""
    n, P = A.n, A._positions
    assert P.ndim == 1 and P.dtype.kind == "i" and len(P) == len(A._carriers)
    assert (np.diff(P) > 0).all() and all(0 <= p < n * n for p in P.tolist())
    assert P.tolist() == list(positions)
    assert A.gap_free == (len(P) == n * n)
    stored = set(P.tolist())
    assert all((A.entry(i, j) is not None) == (i * n + j in stored) for i in range(n) for j in range(n))
    assert not (P.flags.writeable or A._carriers.flags.writeable)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_every_constructor_stores_one_layout(group, data):
    A, variance, grid = gapped_matrix(group, data)
    n = A.n
    present = [p for p, x in enumerate(itertools.chain(*grid)) if x is not None]
    dense = list(range(n * n))
    holes = data.draw(st.sets(st.integers(0, n * n - 1), max_size=3))  # any cells, the diagonal too
    holed = [[None if i * n + j in holes else x for j, x in enumerate(row)] for i, row in enumerate(grid)]
    values = data.draw(elements_of(group, n * (n - 1) // 2))
    lam = data.draw(elements_of(group, n))
    # a connected complex: the kept pairs of A and a path through every vertex
    edges = sorted({divmod(p, n) for p in present if p // n < p % n} | {(i, i + 1) for i in range(n - 1)})
    K, swapped = SimplicialComplex2(n, edges), [(j, i) for i, j in edges]
    F = EdgeField(group, dict(zip(edges, data.draw(elements_of(group, len(edges))))))
    built = [
        (PCMatrix(group, grid), present),
        (PCMatrix(group, holed), [p for p in present if p not in holes]),
        (A, present),
        (from_upper_triangle(group, values, variance), dense),
        (from_gauge_vector(group, lam), dense),
        (identity_matrix(group, n, variance), dense),
        (dualize(A), sorted(p % n * n + p // n for p in present)),
        (gauge_transform(A, lam), present),
        (holonomy_pc_matrix(K, F), sorted([i * (n + 1) for i in range(n)] + [i * n + j for i, j in edges + swapped])),
        (matrix_from_obj(matrix_to_obj(A)), present),
    ]
    if group.compact:
        built.append((random_pc_matrix(group, n, data.draw(st.integers(0, 2**32 - 1)), variance), dense))
    else:
        built.append((matrix_from_csv(matrix_to_csv(from_upper_triangle(group, values))), dense))
    for B, positions in built:
        assert_one_layout(B, positions)


# --- ii3 = 1 - exp(-ii_In), triad by triad ------------------------------------------


@PROPERTY
@given(data=st.data())
def test_ii3_is_one_minus_exp_of_the_triad_indicator(data):
    # ii3's own formula 1 - min(r, 1/r), r = y / (xz), against the default
    # indicator of each triad's holonomy; each errs by a few rounding steps
    # of 1 at most, whatever the magnitudes, since neither sums the logs of
    # the entries
    n = data.draw(st.integers(3, 8))
    values = data.draw(elements_of(RPLUS, n * (n - 1) // 2))
    A = from_upper_triangle(RPLUS, values)
    In = default_indicator(RPLUS)
    for i, j, k in itertools.combinations(range(n), 3):
        expected = -math.expm1(-In(triad_holonomy(A, i, j, k)))
        assert abs(ii3(A.entry(i, j), A.entry(i, k), A.entry(j, k)) - expected) <= 8 * math.ulp(1.0)


# --- flatness and consistency share their witness -----------------------------------------


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_one_edge_perturbation_has_the_same_witness(group, data):
    # a flat field on full_simplex(n) with one edge moved by g: global_ii
    # and the sweep of the field's matrix score the same triads, so they
    # name the same worst triangle; once g is clearly off the identity that
    # triangle holds the moved edge
    n = data.draw(st.integers(2, 7))
    K = full_simplex(n)
    lam = data.draw(elements_of(group, n + 1))
    F = field_from_gauge(K, group, lam)
    c = data.draw(st.integers(0, len(K.edges) - 1))
    g = data.draw(ELEMENTS[group.tag])
    X = F._carriers.copy()
    X[c] = group.batch_multiply(group.to_array([g]), X[c : c + 1])[0]
    moved = EdgeField._of_checked(group, F._edges, X)
    _, worst = global_ii(K, moved)
    chk = is_consistent(holonomy_pc_matrix(K, moved))
    assert worst == chk.worst_triad
    if group.distance(group.identity, g) > 1e-6:
        assert set(K.edges[c]) <= set(worst)


GRIDS = [grid_complex(m) for m in (1, 2, 3, 4)]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_gauge_round_trip(group, data):
    # gauge_extract of from_gauge_vector(lam) is lam left-translated to
    # lam_0 = 1, and that gauge builds the same matrix
    lam = data.draw(elements(group, min_size=2))
    A = from_gauge_vector(group, lam)
    mu = gauge_extract(A)
    assert mu[0] == group.identity
    assert max(group.distance(g, h) for g, h in zip(mu, normalize_gauge(group, lam), strict=True)) <= 1e-12
    assert np.max(group.batch_distance(A._carriers, from_gauge_vector(group, mu)._carriers)) <= 1e-12


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_gauge_fields_on_grids_are_flat_and_one_moved_edge_shows(group, data):
    # on grid_complex(1..4) a gauge field is flat; moving one edge by g puts
    # d(1, g) on every triangle that holds it, by bi-invariance, and leaves
    # the others flat
    K = data.draw(st.sampled_from(GRIDS))
    F = field_from_gauge(K, group, data.draw(elements_of(group, K.vertices)))
    assert global_ii(K, F)[0] <= 1e-12
    c = data.draw(st.integers(0, len(K.edges) - 1))
    g = data.draw(ELEMENTS[group.tag])
    X = F._carriers.copy()
    X[c] = group.batch_multiply(group.to_array([g]), X[c : c + 1])[0]
    moved = EdgeField._of_checked(group, F._edges, X)
    curvature, value, worst = _triangle_scores(K, moved, None)
    d = group.distance(group.identity, g)
    holds = np.array([set(K.edges[c]) <= set(t) for t in K.triangles])
    assert holds.any()  # every grid edge lies on a triangle
    assert np.all(np.abs(curvature[holds] - d) <= 1e-12)
    assert np.all(curvature[~holds] <= 1e-12)
    assert value == pytest.approx(d, abs=1e-12)
    if d > 1e-6:
        assert set(K.edges[c]) <= set(worst)


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


def test_triad_blocks_are_the_complete_graph_triangles():
    # pair ranks (ij, ik, jk) are the edge columns of full_simplex(n - 1)'s
    # triangles; at n = 26 the triads exceed one sweep block and are listed
    # block by block rather than sliced from the cached list
    assert math.comb(26, 3) > _TRIAD_BLOCK
    for n in [*range(3, 14), 26]:
        blocks = list(_triad_blocks(n, 7))
        assert [len(b) for b in blocks[:-1]] == [7] * (len(blocks) - 1)
        assert np.concatenate(blocks).tolist() == full_simplex(n - 1)._tri_cols.tolist()


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
def test_identity_matrix_reports_first_triad(group):
    A = identity_matrix(group, 30)
    assert math.comb(30, 3) > _TRIAD_BLOCK
    assert ii_indicator(A) == (0.0, (0, 1, 2))
    chk = is_consistent(A, tol=0.0)
    assert (chk.consistent, chk.worst_triad, chk.worst_defect) == (True, (0, 1, 2), 0.0)


# --- the ranked su2 sweep against the exhaustive sweep ---------------------------------

RANKED_SIZES = (3, 24, 25, 26, 48, 60)  # one block, the last n of one block, several key blocks
RANKED_PROPERTY = settings(max_examples=3, deadline=None, derandomize=True, database=None)


def exhaustive_scores(A):
    """Every triad's defect, in rank order, by one ``SU2.batch_defect`` call."""
    U = pcmatrix._upper(A)
    x, y, z = (U.take(c, axis=0) for c in pcmatrix._triad_columns(A.n, 0, math.comb(A.n, 3)).T)
    return SU2.batch_defect(z, x, y) if A.variance == CONTRAVARIANT else SU2.batch_defect(x, z, y)


def exhaustive_sweep(A):
    """The first maximum of :func:`exhaustive_scores`: the su2 sweep with no ranking."""
    (value,), (t,) = pcmatrix._first_max([exhaustive_scores(A)[None]], 1)
    return float(value), list(itertools.combinations(range(A.n), 3))[t]


def gauge_su2_matrix(n, variance, rng, scale=0.0, flip=False, same=None, twist=0.0):
    """An su2 matrix of Haar gauge lam whose pair (i, j), i < j, is
    lam_i^-1 g_ij lam_j (covariant) or lam_j g_ij lam_i^-1 (contravariant),
    times exp of normal Lie-algebra noise of sd ``scale``, and -1 on a
    random half of the pairs with ``flip``, so that a loop through an odd
    number of them has a defect near pi.  The g_ij = exp(s_ij twist X) turn about one axis, with
    s = 0 on row 0, -1 on the pair (n - 3, n - 1) and 1 elsewhere: the triad
    (n - 3, n - 2, n - 1) has defect 3 twist and every other triad twist.
    With ``same = (v, w)``, v < w, lam_w = lam_v, only the pairs (v, j),
    j > w, are noisy, and row w is row v past column w: loops through v and
    through w tie bit for bit, as (v, j, k) and (w, j, k) do for w < j."""
    I, J = np.triu_indices(n, 1)
    lam, noisy = SU2.batch_haar_sample(rng, (n,)), np.ones(len(I), dtype=bool)
    if same is not None:
        v, w = same
        lam[w], noisy = lam[v], (I == v) & (J > w)
    inv = SU2.batch_inverse(lam)
    s = np.where((I == n - 3) & (J == n - 1), -1.0, 1.0) * (I > 0) * twist
    g = SU2.batch_exp(np.stack((s, 0 * s, 0 * s), axis=-1))
    if variance == COVARIANT:
        upper = SU2.batch_multiply(SU2.batch_multiply(inv[I], g), lam[J])
    else:
        upper = SU2.batch_multiply(SU2.batch_multiply(lam[J], g), inv[I])
    noise = SU2.batch_exp(scale * rng.normal(size=(len(I), 3)))
    upper = np.where(noisy[:, None], SU2.batch_multiply(upper, noise), upper)
    if flip:
        upper = np.where(rng.integers(0, 2, len(I), dtype=bool)[:, None], -upper, upper)
    if same is not None:
        upper[(I == w) & (J > w)] = upper[noisy]
    return _from_pairs(SU2, n, I, J, upper, variance)


def ranked_inputs(kind, n, variance, rng):
    if kind == "from_gauge_vector":
        A = from_gauge_vector(SU2, SU2.batch_haar_sample(rng, (n,)).tolist())
        return A if variance == COVARIANT else dualize(A)
    if kind == "identity":
        return identity_matrix(SU2, n, variance)
    if kind.startswith("noise"):
        return gauge_su2_matrix(n, variance, rng, scale=float(kind.split(":")[1]))
    if kind.startswith("near-pi"):
        return gauge_su2_matrix(n, variance, rng, scale=float(kind.split(":")[1]), flip=True)
    if kind == "ties":
        return gauge_su2_matrix(n, variance, rng, scale=0.5, same=(n // 4, n // 2))
    if kind.startswith("twist"):  # the first key block at one defect, and the worst triad the last
        return gauge_su2_matrix(n, variance, rng, twist=float(kind.split(":")[1]))
    raise AssertionError(kind)


RANKED_KINDS = [
    "from_gauge_vector",
    "identity",
    *(f"noise:{scale}" for scale in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0)),
    "near-pi:1e-8",
    "near-pi:1e-3",
    "ties",
    "twist:1e-9",
    "twist:0.1",
]


@pytest.mark.parametrize("kind", RANKED_KINDS)
@pytest.mark.parametrize("variance", [COVARIANT, CONTRAVARIANT])
@pytest.mark.parametrize("n", RANKED_SIZES)
@RANKED_PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_ranked_sweep_is_the_exhaustive_sweep(n, variance, kind, seed):
    A = ranked_inputs(kind, n, variance, np.random.default_rng(seed))
    expected = exhaustive_sweep(A)
    chk = is_consistent(A)
    assert (chk.worst_defect, chk.worst_triad) == expected
    assert ii_indicator(A) == expected


def test_ranked_inputs_reach_what_they_are_built_for():
    rng = np.random.default_rng(1)
    for variance in (COVARIANT, CONTRAVARIANT):
        value, worst = exhaustive_sweep(ranked_inputs("near-pi:1e-8", 48, variance, rng))
        assert value > math.pi - 1e-6
        value, worst = exhaustive_sweep(ranked_inputs("twist:0.1", 48, variance, rng))
        assert worst == (45, 46, 47) and value == pytest.approx(0.3, abs=1e-12)
        scores = exhaustive_scores(ranked_inputs("ties", 48, variance, rng))
        assert np.count_nonzero(scores == scores.max()) >= 2


def count_key_calls(monkeypatch):
    """The length of each su2 key call from now on."""
    calls = []
    key = UnitQuaternions.batch_defect_key
    monkeypatch.setattr(UnitQuaternions, "batch_defect_key", lambda G, *a: calls.append(len(a[0])) or key(G, *a))
    return calls


def count_products(monkeypatch):
    """The length of each su2 product call from now on."""
    calls = []
    multiply = UnitQuaternions.batch_multiply
    monkeypatch.setattr(UnitQuaternions, "batch_multiply", lambda G, a, b: calls.append(len(a)) or multiply(G, a, b))
    return calls


@pytest.mark.parametrize("kind", ["from_gauge_vector", "identity", "noise:1e-9", "twist:0.1"])
def test_ties_in_the_first_key_block_score_every_triad(kind, monkeypatch):
    # within rounding of consistent, or every triad of the first key block
    # at one defect: one key block, then every triad scored by its defect
    A = ranked_inputs(kind, 60, COVARIANT, np.random.default_rng(2))
    expected = exhaustive_sweep(A)
    calls, multiply = count_key_calls(monkeypatch), count_products(monkeypatch)
    assert ii_indicator(A) == expected
    assert calls == [pcmatrix._KEY_BLOCK]
    assert len(multiply) == math.ceil(math.comb(60, 3) / _TRIAD_BLOCK)


def test_noisy_matrices_key_every_triad_and_score_a_few(monkeypatch):
    A = ranked_inputs("noise:0.1", 60, CONTRAVARIANT, np.random.default_rng(3))
    expected = exhaustive_sweep(A)
    calls, multiply = count_key_calls(monkeypatch), count_products(monkeypatch)
    assert ii_indicator(A) == expected
    assert sum(calls) == math.comb(60, 3) and len(calls) == math.ceil(math.comb(60, 3) / pcmatrix._KEY_BLOCK)
    assert len(multiply) == 1 and multiply[0] < 10


def test_other_sweeps_keep_the_defect_path(monkeypatch):
    # one-block sweeps, a supplied indicator, other groups and Monte Carlo rows are not ranked
    calls = count_key_calls(monkeypatch)
    rng = np.random.default_rng(4)
    is_consistent(random_pc_matrix(SU2, 24, rng))
    consistencize_riemannian(random_pc_matrix(SU2, 15, rng), max_iter=2)
    ii_indicator(random_pc_matrix(SU2, 30, rng), default_indicator(SU2))
    for group in (U1, Z7):
        is_consistent(random_pc_matrix(group, 30, rng))
    is_consistent(from_upper_triangle(RPLUS, np.exp(rng.normal(size=435)).tolist()))
    expectation(None, SU2, Observable("ii3_of_random_matrix", n=30), N=2, seed=1)
    assert calls == []


def test_key_and_defect_keep_their_rounding_bounds():
    # the bound behind _KEY_TIE: |c - cos phi| <= eps_c + eta and |d - phi| <= eps_d,
    # for phi the angle of the exact product xz and y, computed in long double
    if np.finfo(np.longdouble).eps > 2.0**-60:
        pytest.skip("long double is no wider than double here")
    u = 2.0**-53
    eps_d, eps_c, eta = 50 * u, 12 * u, 12 * u
    assert pcmatrix._KEY_TIE >= 100 * 2 * (eps_d + eps_c + eta)
    rng = np.random.default_rng(5)
    x, z = SU2.batch_haar_sample(rng, (2, 20000))
    xz = SU2.batch_multiply(x, z)
    near = SU2.batch_multiply(xz, SU2.batch_exp(10.0 ** rng.uniform(-12, 0, (20000, 1)) * rng.normal(size=(20000, 3))))
    y = np.concatenate((SU2.batch_haar_sample(rng, (20000,)), near, -near))  # any angle, near 0 and near pi
    x, z = np.concatenate((x, x, x)), np.concatenate((z, z, z))
    X, Y, Z = (v.astype(np.longdouble) for v in (x, y, z))
    w1, x1, y1, z1 = X.T
    w2, x2, y2, z2 = Z.T
    p = np.stack((w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2, w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                  w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2, w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2), axis=-1)
    p /= np.sqrt((p * p).sum(-1))[:, None]
    Y /= np.sqrt((Y * Y).sum(-1))[:, None]
    phi = 2 * np.arctan2(np.sqrt(((p - Y) ** 2).sum(-1)), np.sqrt(((p + Y) ** 2).sum(-1)))
    assert np.max(np.abs(SU2.batch_defect_key(x, z, y) - np.cos(phi))) <= eps_c + eta
    assert np.max(np.abs(SU2.batch_defect(x, z, y) - phi)) <= eps_d


# --- each carrier is checked once ------------------------------------------------------


class CountingCircle(CircleGroup):
    """u1 that counts its carrier checks and its batch checks."""

    def __init__(self):
        self.checks = self.batches = 0

    def check(self, a):
        self.checks += 1
        return super().check(a)

    def batch_check(self, values):
        self.batches += 1
        return super().batch_check(values)


def test_constructors_check_each_value_once():
    # one batch_check per call, which checks valid floats in one array pass, with no element check
    G = CountingCircle()
    values = [0.1 * k for k in range(10)]
    from_upper_triangle(G, values)
    assert (G.checks, G.batches) == (0, 1)

    G.checks = G.batches = 0
    lam = [0.3, -1.0, 2.5, 3.0]
    from_gauge_vector(G, lam)
    assert (G.checks, G.batches) == (0, 1)


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


# --- the array pass of batch_check against the loop over check ----------------------

Z_TOP = zmod(2**62)  # the largest order, whose residue sums still fit int64
NUMBERS = st.one_of(  # the Python floats and ints that the array passes take
    st.floats(),  # nan, +-inf, -0.0 and subnormals among them
    st.integers(),
    st.integers(-(2**1100), 2**1100),  # beyond 2**53, 2**63 and 2**1024
    st.integers(-50, 50),  # zmod residues, negative or at least m
    st.sampled_from(
        [
            0, -1, 0.0, -0.0, -2.5, 2**53 + 1, 2**63, -(2**63) - 1, 2**64 + 3, 2**1024, -(2**1024),
            2.0**-1024, math.nextafter(2.0**-1024, 1.0), 5e-324, math.pi, -math.pi, 2 * math.pi,
            -2 * math.pi, 6 * math.pi, -4 * math.pi, math.inf, -math.inf, math.nan,
        ]
    ),
)
RAW_VALUES = st.one_of(
    NUMBERS,
    st.sampled_from([True, False, "1", "1.5", None, 1j]),
    st.floats(-4 * math.pi, 4 * math.pi).map(np.float64),  # numpy scalars
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def check_outcome(f, values):
    """The carriers ``f(values)`` returns, as dtype and bytes, or the type
    and message of what it raises."""
    try:
        C = f(values)
    except ValueError as exc:
        return type(exc), str(exc)
    return C.dtype, C.shape, C.tobytes()


@pytest.mark.parametrize("group", [RPLUS, U1, Z7, Z_TOP], ids=lambda g: g.tag)
@PROPERTY
@given(
    values=st.one_of(st.lists(NUMBERS, max_size=8), st.lists(RAW_VALUES, max_size=8)),
    form=st.sampled_from([list, tuple, np.array]),
)
@example(values=[-math.pi, 0.5], form=list)  # -pi leaves the u1 branch: check gives pi
@example(values=[math.pi, -0.0, 2 * math.pi, -2 * math.pi, 7], form=list)
@example(values=[1.0, math.inf], form=list)
@example(values=[0.5, math.nan], form=np.array)
def test_array_pass_gives_the_loop_carriers_or_its_first_error(group, values, form):
    try:
        values = form(values)
    except (OverflowError, TypeError, ValueError):  # np.array of values it cannot hold
        values = list(values)
    loop = lambda vs: Group.batch_check(group, vs)  # noqa: E731  the loop over check
    assert check_outcome(group.batch_check, values) == check_outcome(loop, values)


NUMERIC_DTYPES = [np.float16, np.float32, np.float64, np.longdouble, np.int8, np.int64, np.uint32, np.uint64, np.bool_]


@pytest.mark.parametrize("group", [RPLUS, U1, Z7, Z_TOP], ids=lambda g: g.tag)
@PROPERTY
@given(
    values=st.sampled_from(NUMERIC_DTYPES).flatmap(
        lambda dtype: hnp.arrays(dtype, st.sampled_from([(0,), (1,), (5,), (3, 2)]))
    )
)
def test_array_pass_on_numeric_arrays_gives_the_loop_carriers(group, values):
    loop = lambda vs: Group.batch_check(group, vs)  # noqa: E731
    assert check_outcome(group.batch_check, values) == check_outcome(loop, values)


def test_array_pass_takes_the_values_check_reads_without_conversion(monkeypatch):
    # floats and ints, or a numeric array, skip the element loop; a bool, a
    # string, a numpy scalar or an int beyond the carrier's range runs it
    calls = []
    for cls in (PositiveReals, CircleGroup, CyclicGroup):
        check = cls.check
        monkeypatch.setattr(cls, "check", lambda self, a, _check=check: calls.append(a) or _check(self, a))
    for group, good, others in [
        (RPLUS, [2.0, 3, 2**1023], [[True, 2.0], ["2"], [np.float64(2.0)], [2**1024]]),
        (U1, [7.0, -3, 2**70], [[False], ["1"], [np.float32(1.0)], [2**1024]]),
        (Z7, [9, -3, 2**63 - 1], [[True], [1.0], [np.int64(9)], [2**63]]),
    ]:
        for values in (good, tuple(good), np.array(good[:2])):
            group.batch_check(values)
        assert calls == []
        for values in others:
            with contextlib.suppress(ValueError):
                group.batch_check(values)
            assert calls, values
            calls.clear()


# --- plaquette sweep against the scalar plaquette ----------------------------------

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


# --- the loop defect is the default indicator of the holonomy -------------------------


def carrier_array(group, data, lead):
    """A carrier array of drawn elements with leading shape ``lead``."""
    size = math.prod(lead)
    X = group.to_array(data.draw(st.lists(ELEMENTS[group.tag], min_size=size, max_size=size)))
    return X.reshape(lead + X.shape[1:])


def assert_same_scores(group, got, want):
    assert got.shape == want.shape
    if isinstance(group, CyclicGroup):
        assert got.tolist() == want.tolist()  # exact
    else:
        assert np.abs(got - want).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("variance", [COVARIANT, CONTRAVARIANT])
@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_loop_defect_is_the_holonomy_indicator(group, variance, data):
    lead = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
    x, y, z = (carrier_array(group, data, lead) for _ in range(3))
    got = _loop_scorer(group, variance, None)(x, y, z)
    want = _batched_indicator(group, None)(_holonomies(group, variance, x, y, z))
    assert_same_scores(group, got, want)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_plaquette_defect_is_the_plaquette_indicator(group, data):
    K = data.draw(st.sampled_from(FIELD_COMPLEXES))
    B = data.draw(st.integers(1, 3))
    X = carrier_array(group, data, (B, len(K.edges)))
    edges = _triangle_edges(K._tri_cols, X)
    got = _loop_scorer(group, CONTRAVARIANT, None)(*edges)
    assert_same_scores(group, got, _batched_indicator(group, None)(_holonomies(group, CONTRAVARIANT, *edges)))
    ind = default_indicator(group)
    for b in range(B):  # against the scalar plaquette h_ki * h_jk * h_ij
        F = EdgeField(group, dict(zip(K.edges, group.from_array(X[b]))))
        want = np.array([ind(plaquette(K, F, t)) for t in K.triangles])
        assert_same_scores(group, got[b], want)


# --- gauge invariance of the indicators --------------------------------------------------


@pytest.mark.parametrize("variance", [COVARIANT, CONTRAVARIANT])
@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_ii_indicator_is_gauge_invariant(group, variance, data):
    n = data.draw(st.integers(3, 7))
    m = n * (n - 1) // 2
    A = from_upper_triangle(group, data.draw(st.lists(ELEMENTS[group.tag], min_size=m, max_size=m)), variance)
    mu = data.draw(st.lists(ELEMENTS[group.tag], min_size=n, max_size=n))
    B = gauge_transform(A, mu)
    value, triad = ii_indicator(A)
    moved, moved_triad = ii_indicator(B)
    ind = default_indicator(group)
    if isinstance(group, CyclicGroup):
        assert (moved, moved_triad) == (value, triad)
    else:  # a near tie may move the argmax by rounding, never the value
        assert moved == pytest.approx(value, abs=1e-12)
        assert ind(triad_holonomy(B, *triad)) == pytest.approx(value, abs=1e-12)
        assert ind(triad_holonomy(A, *moved_triad)) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.tag)
@PROPERTY
@given(data=st.data())
def test_global_ii_is_gauge_invariant(group, data):
    K = data.draw(st.sampled_from(FIELD_COMPLEXES))
    values = data.draw(st.lists(ELEMENTS[group.tag], min_size=len(K.edges), max_size=len(K.edges)))
    F = EdgeField(group, dict(zip(K.edges, values)))
    mu = data.draw(st.lists(ELEMENTS[group.tag], min_size=K.vertices, max_size=K.vertices))
    Fg = gauge_transform_field(K, F, mu)
    value, tri = global_ii(K, F)
    moved, moved_tri = global_ii(K, Fg)
    if isinstance(group, CyclicGroup):
        assert (moved, moved_tri) == (value, tri)
    else:
        ind = default_indicator(group)
        assert moved == pytest.approx(value, abs=1e-12)
        assert ind(plaquette(K, Fg, tri)) == pytest.approx(value, abs=1e-12)
