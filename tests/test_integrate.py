import math
import re

import numpy as np
import pytest
from scipy import stats

from holopc.errors import NonCompactGroupError
from holopc.groups import RPLUS, SU2, U1, zmod
from holopc.integrate import (
    Histogram,
    MCEstimate,
    Observable,
    _sample_values,
    block_rng,
    expectation,
    ii_distribution,
    sample_field,
    sample_rng,
)
from holopc.pcmatrix import default_indicator, from_upper_triangle, ii_indicator
from holopc.simplicial import (
    EdgeField,
    full_simplex,
    gauge_transform_field,
    grid_complex,
    path_holonomy,
    plaquette,
)

TRIANGLE = full_simplex(2)
KS_1PCT = 1.628  # two-sample Kolmogorov-Smirnov coefficient at the 1% level


# --- sampling ------------------------------------------------------------------


def test_sample_field_deterministic():
    a = sample_field(TRIANGLE, SU2, sample_rng(7, 0))
    b = sample_field(TRIANGLE, SU2, sample_rng(7, 0))
    assert a.items() == b.items()
    c = sample_field(TRIANGLE, SU2, sample_rng(7, 1))
    assert a.items() != c.items()


def test_sample_field_trivial_group():
    F = sample_field(TRIANGLE, zmod(1), sample_rng(0, 0))
    assert all(v == 0 for _, v in F.items())


def test_sample_field_needs_compact():
    with pytest.raises(NonCompactGroupError):
        sample_field(TRIANGLE, RPLUS, sample_rng(0, 0))


def test_u1_plaquette_is_uniform():
    # the wrapped sum of independent uniform angles is uniform
    n = 10_000
    angles = np.array(
        [plaquette(TRIANGLE, sample_field(TRIANGLE, U1, sample_rng(11, k)), (0, 1, 2)) for k in range(n)]
    )
    uniform = np.random.default_rng(12).uniform(-math.pi, math.pi, size=n)
    stat = stats.ks_2samp(angles, uniform).statistic
    assert stat < KS_1PCT * math.sqrt(2.0 / n)


@pytest.mark.parametrize("group", [U1, SU2, zmod(5)], ids=lambda g: g.tag)
def test_haar_product_closure(group):
    # the plaquette of a fresh field has the law of a single Haar draw; both
    # are drawn and scored as arrays, and the first 1,000 of each must match
    # the element methods on the same streams (exactly for u1 and zmod,
    # within 1e-14, a few ulps of pi, for su2, whose element path renormalizes)
    n, one = 10_000, group.to_array([group.identity])
    tol = 1e-14 if group is SU2 else 0
    X = np.stack([group.batch_haar_sample(sample_rng(13, k), (3,)) for k in range(n)])  # sample_field's draws
    h01, h02, h12 = X[:, 0], X[:, 1], X[:, 2]  # TRIANGLE.edges order
    plaq = group.batch_distance(one, group.batch_multiply(group.batch_inverse(h02), group.batch_multiply(h12, h01)))
    elements = [
        group.distance(group.identity, plaquette(TRIANGLE, sample_field(TRIANGLE, group, sample_rng(13, k)), (0, 1, 2)))
        for k in range(1000)
    ]
    np.testing.assert_allclose(elements, plaq[:1000], rtol=0, atol=tol)
    single = group.batch_distance(one, group.batch_haar_sample(np.random.default_rng(14), (n,)))
    rng = np.random.default_rng(14)
    elements = [group.distance(group.identity, group.haar_sample(rng)) for _ in range(1000)]
    np.testing.assert_allclose(elements, single[:1000], rtol=0, atol=tol)
    stat = stats.ks_2samp(plaq, single).statistic
    assert stat < KS_1PCT * math.sqrt(2.0 / n)


# --- expectations -----------------------------------------------------------------


def test_mean_curvature_u1():
    est = expectation(TRIANGLE, U1, Observable("mean_curvature_In"), N=20_000, seed=1)
    assert abs(est.mean - math.pi / 2) < 3 * est.std_error
    assert est.std_error < 0.01


def test_mean_curvature_su2():
    est = expectation(TRIANGLE, SU2, Observable("mean_curvature_In"), N=20_000, seed=2)
    assert abs(est.mean - math.pi / 2) < 3 * est.std_error


def test_wilson_character_u1_centered():
    est = expectation(TRIANGLE, U1, Observable("wilson_character"), N=20_000, seed=3)
    assert abs(est.mean) < 3 * est.std_error


def test_sup_equals_mean_on_single_triangle():
    a = expectation(TRIANGLE, U1, Observable("mean_curvature_In"), N=500, seed=4)
    b = expectation(TRIANGLE, U1, Observable("sup_curvature_In"), N=500, seed=4)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)


def test_expectation_validation():
    with pytest.raises(ValueError):
        expectation(TRIANGLE, U1, Observable("mean_curvature_In"), N=1, seed=0)
    with pytest.raises(NonCompactGroupError):
        expectation(TRIANGLE, RPLUS, Observable("mean_curvature_In"), N=10, seed=0)
    with pytest.raises(ValueError, match="unknown observable"):
        Observable("plaquette_trace")
    with pytest.raises(ValueError, match="missing edge"):
        expectation(TRIANGLE, U1, Observable("wilson_character", loop=(0, 1, 3, 0)), N=10, seed=0)
    with pytest.raises(ValueError, match="close up"):
        expectation(TRIANGLE, U1, Observable("wilson_character", loop=(0, 1, 2)), N=10, seed=0)
    triangle_free = full_simplex(1)
    with pytest.raises(ValueError, match="triangle"):
        expectation(triangle_free, U1, Observable("mean_curvature_In"), N=10, seed=0)


def test_vertex_and_size_arguments_are_integers():
    K = full_simplex(3)
    for loop in [(0, 1.7, 2, 0), (0, True, 2, 0)]:
        with pytest.raises(ValueError, match=rf"^wilson loop \(--loop\): vertex must be an integer, got {loop[1]!r}$"):
            expectation(K, U1, Observable("wilson_character", loop=loop), N=10, seed=0)
    exact = expectation(K, U1, Observable("wilson_character", loop=(0, 1, 2, 0)), N=10, seed=0)
    assert expectation(K, U1, Observable("wilson_character", loop=(0.0, 1, np.int64(2), 0)), N=10, seed=0) == exact
    with pytest.raises(ValueError, match=r"sample count N \(-N/--samples\) must be an integer, got 2\.5"):
        expectation(K, U1, Observable("mean_curvature_In"), N=2.5, seed=0)
    assert expectation(K, U1, Observable("mean_curvature_In"), N=4.0, seed=0) == expectation(
        K, U1, Observable("mean_curvature_In"), N=4, seed=0
    )
    with pytest.raises(ValueError, match=r"matrix size n \(--random-pc\) must be an integer, got 4\.5"):
        ii_distribution(U1, 4.5, 10)
    with pytest.raises(ValueError, match=r"sample count N \(-N/--samples\) must be an integer, got 10\.5"):
        ii_distribution(U1, 4, 10.5)
    assert ii_distribution(U1, 4.0, 10.0) == ii_distribution(U1, 4, 10)


@pytest.mark.parametrize("seed", [True, False, 1.5, -1, -1.0, "1", None, math.inf])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(seed):
    obs = Observable("mean_curvature_In")
    message = rf"^seed \(--seed\) must be a nonnegative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        expectation(TRIANGLE, U1, obs, N=4, seed=seed)
    with pytest.raises(ValueError, match=message):
        ii_distribution(U1, 3, 4, seed=seed)


def test_an_integral_seed_runs_and_is_reported_as_an_int():
    obs = Observable("mean_curvature_In")
    exact = expectation(TRIANGLE, U1, obs, N=4, seed=1)
    for seed in (1.0, np.int64(1), np.uint8(1)):
        est = expectation(TRIANGLE, U1, obs, N=4, seed=seed)
        assert est == exact and type(est.seed) is int and est.to_obj()["seed"] == 1
        hist, est = ii_distribution(U1, 3, 4, seed=seed)
        assert (hist, est) == ii_distribution(U1, 3, 4, seed=1) and type(est.seed) is int


def test_expectation_follows_sample_streams():
    # samples come in blocks of 1024, block b drawn as one (B, E) carrier
    # array from block_rng(seed, b); the element methods, applied sample by
    # sample to those draws, reproduce every sample value
    K = full_simplex(3)
    N = 2100
    obs = Observable("mean_curvature_In")
    for group in (U1, SU2):
        vals = _sample_values(K, group, obs, N, 5, None)
        assert expectation(K, group, obs, N=N, seed=5).mean == np.mean(vals)
        ind = default_indicator(group)
        hand = []
        for b, lo in enumerate(range(0, N, 1024)):
            draws = group.batch_haar_sample(block_rng(5, b), (min(1024, N - lo), len(K.edges)))
            for row in draws:
                F = EdgeField(group, dict(zip(K.edges, group.from_array(row))))
                hand.append(np.mean([ind(plaquette(K, F, t)) for t in K.triangles]))
        np.testing.assert_allclose(vals, hand, rtol=0, atol=1e-12)


@pytest.mark.parametrize("group", [U1, SU2, zmod(5)], ids=lambda g: g.tag)
def test_block_scores_match_element_methods(group):
    # every observable, scored on a block's carrier array, against the
    # element methods on the same draws
    K = full_simplex(3)
    loop = (0, 2, 1, 3, 0)  # steps against and along the edge orientation
    N = 300
    ind = default_indicator(group)
    chi = {"u1": math.cos, "su2": lambda g: 2.0 * g[0]}.get(group.tag, lambda g: math.cos(2 * math.pi * g / 5))
    draws = group.batch_haar_sample(block_rng(26, 0), (N, len(K.edges)))
    fields = [EdgeField(group, dict(zip(K.edges, group.from_array(row)))) for row in draws]
    expected = {
        Observable("sup_curvature_In"): [max(ind(plaquette(K, F, t)) for t in K.triangles) for F in fields],
        Observable("wilson_character", loop=loop): [chi(path_holonomy(K, F, loop)) for F in fields],
    }
    for n in (13, 30):  # 286 triads, two steps of 256; 4060 triads, 16 steps
        upper = group.batch_haar_sample(block_rng(26, 0), (N, n * (n - 1) // 2))
        expected[Observable("ii3_of_random_matrix", n=n)] = [
            ii_indicator(from_upper_triangle(group, group.from_array(row)))[0] for row in upper
        ]
    for obs, hand in expected.items():
        np.testing.assert_allclose(_sample_values(K, group, obs, N, 26, None), hand, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "group, K, obs",
    [
        (SU2, TRIANGLE, Observable("mean_curvature_In")),
        (U1, full_simplex(3), Observable("wilson_character", loop=(0, 1, 2, 3, 0))),
        (zmod(5), None, Observable("ii3_of_random_matrix", n=4)),
    ],
    ids=["su2-curvature", "u1-wilson", "zmod5-matrix"],
)
def test_sample_values_are_prefixes(group, K, obs):
    longest = _sample_values(K, group, obs, 2100, 31, None)
    for N in (1023, 1024, 1025, 2049):
        assert np.array_equal(_sample_values(K, group, obs, N, 31, None), longest[:N])


@pytest.mark.parametrize("group", [U1, SU2], ids=lambda g: g.tag)
def test_wilson_loop_around_grid_boundary_is_centered(group):
    # under product Haar the holonomy of a simple closed loop is Haar, and
    # the character of the defining representation averages to 0
    K = grid_complex(4)
    boundary = (0, 1, 2, 3, 4, 9, 14, 19, 24, 23, 22, 21, 20, 15, 10, 5, 0)
    est = expectation(K, group, Observable("wilson_character", loop=boundary), N=20_000, seed=21)
    assert abs(est.mean) < 3 * est.std_error


@pytest.mark.parametrize("group", [U1, SU2, zmod(5)], ids=lambda g: g.tag)
def test_batch_haar_sample_matches_haar_sample(group):
    n = 10_000
    batch = group.from_array(group.batch_haar_sample(np.random.default_rng(22), (n,)))
    rng = np.random.default_rng(23)
    single = [group.haar_sample(rng) for _ in range(n)]
    d = lambda gs: np.array([group.distance(group.identity, g) for g in gs])
    stat = stats.ks_2samp(d(batch), d(single)).statistic
    assert stat < KS_1PCT * math.sqrt(2.0 / n)


@pytest.mark.parametrize("group", [U1, SU2], ids=lambda g: g.tag)
def test_explicit_default_indicator_matches_none(group):
    ind = default_indicator(group)
    for obs in (Observable("mean_curvature_In"), Observable("sup_curvature_In")):
        a = expectation(full_simplex(3), group, obs, N=1500, seed=24)
        b = expectation(full_simplex(3), group, obs, N=1500, seed=24, indicator=ind)
        assert b.mean == pytest.approx(a.mean, abs=1e-12)
    _, a = ii_distribution(group, n=4, N=1500, seed=25)
    _, b = ii_distribution(group, n=4, N=1500, seed=25, indicator=ind)
    assert b.mean == pytest.approx(a.mean, abs=1e-12)


def test_clt_scaling():
    # quadrupling N should halve the standard error, within 25%
    obs = Observable("mean_curvature_In")
    for seed in range(20):
        small = expectation(TRIANGLE, U1, obs, N=400, seed=seed)
        big = expectation(TRIANGLE, U1, obs, N=1600, seed=seed + 1000)
        assert abs(big.std_error - small.std_error / 2) < 0.25 * (small.std_error / 2)


def test_gauge_invariance_in_distribution():
    # post-composing every sample with one fixed vertex gauge leaves the
    # expectation unchanged up to Monte Carlo noise
    K = TRIANGLE
    mu = [SU2.haar_sample(np.random.default_rng(77)) for _ in range(K.vertices)]
    N = 4000
    plain = expectation(K, SU2, Observable("mean_curvature_In"), N=N, seed=6)
    ind = default_indicator(SU2)
    vals = []
    for k in range(N):
        F = gauge_transform_field(K, sample_field(K, SU2, sample_rng(6, k)), mu)
        vals.append(np.mean([ind(plaquette(K, F, t)) for t in K.triangles]))
    gauged_mean = float(np.mean(vals))
    pooled = math.hypot(plain.std_error, float(np.std(vals, ddof=1) / math.sqrt(N)))
    assert abs(gauged_mean - plain.mean) < 3 * pooled


# --- random-matrix distribution ------------------------------------------------------


def test_ii_distribution_u1_triad_mean():
    hist, est = ii_distribution(U1, n=3, N=20_000, seed=8)
    assert isinstance(hist, Histogram)
    assert sum(hist.counts) == est.samples == 20_000
    assert abs(est.mean - math.pi / 2) < 3 * est.std_error


def test_ii_distribution_degenerate_cases():
    _, est = ii_distribution(U1, n=2, N=100, seed=9)
    assert est.mean == 0.0 and est.std_error == 0.0
    _, est = ii_distribution(zmod(1), n=4, N=100, seed=10)
    assert est.mean == 0.0


def test_ii_distribution_zmod2_support():
    # a z2 triad holonomy is 0 or 1, so the indicator takes values 0 or pi
    hist, est = ii_distribution(zmod(2), n=3, N=2000, seed=11)
    centers = 0.5 * (np.array(hist.edges[:-1]) + np.array(hist.edges[1:]))
    support = {round(float(c), 6) for c, n in zip(centers, hist.counts) if n > 0}
    for v in support:
        assert min(abs(v - 0.0), abs(v - math.pi)) < 0.1


def test_ii_distribution_deterministic():
    a = ii_distribution(SU2, n=3, N=300, seed=12)
    b = ii_distribution(SU2, n=3, N=300, seed=12)
    assert a == b


def test_estimate_fields():
    est = expectation(TRIANGLE, U1, Observable("mean_curvature_In"), N=100, seed=13)
    assert isinstance(est, MCEstimate)
    assert est.samples == 100
    assert est.seed == 13
    assert est.observable == "mean_curvature_In"
    obj = est.to_obj()
    assert set(obj) == {"mean", "std_error", "samples", "seed", "observable"}


# --- continuous laws ------------------------------------------------------------

# Thresholds fixed before the first run: a KS p-value above 1e-6, and a mean
# within 5 standard errors of its law.
KS_P_MIN = 1e-6
SE_MAX = 5.0
D_LAW = {  # CDF on [0, pi] of d(1, g) for Haar g: uniform for u1, density (2/pi) sin^2 for su2
    "u1": lambda x: x / math.pi,
    "su2": lambda x: (x - np.sin(x) * np.cos(x)) / math.pi,
}


@pytest.mark.parametrize("group", [U1, SU2], ids=lambda g: g.tag)
def test_one_triad_defect_has_the_law_of_d_1_g(group):
    # for n = 3 the one triad's loop product a01 a12 a02^-1 of independent
    # Haar entries is Haar, so ii_In has the law of d(1, g)
    vals = _sample_values(None, group, Observable("ii3_of_random_matrix", n=3), 20_000, 21, None)
    assert stats.kstest(vals, D_LAW[group.tag]).pvalue > KS_P_MIN


@pytest.mark.parametrize("group, second_moment", [(U1, 0.5), (SU2, 1.0)], ids=["u1", "su2"])
def test_wilson_character_moments(group, second_moment):
    # the holonomy of a loop is Haar, so its character has E chi = 0 and
    # E chi^2 = 1 (su2, the defining representation is irreducible) or
    # E cos^2 = 1/2 (u1)
    obs = Observable("wilson_character", loop=(0, 1, 2, 3, 0))
    chi = _sample_values(full_simplex(3), group, obs, 20_000, 22, None)
    for x, law in ((chi, 0.0), (chi * chi, second_moment)):
        se = np.std(x, ddof=1) / math.sqrt(len(x))
        assert abs(np.mean(x) - law) <= SE_MAX * se
