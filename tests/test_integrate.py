import math

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
    global_ii,
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
    # the plaquette of a fresh field has the law of a single Haar draw
    n = 10_000
    plaq = np.array(
        [
            group.distance(group.identity, plaquette(TRIANGLE, sample_field(TRIANGLE, group, sample_rng(13, k)), (0, 1, 2)))
            for k in range(n)
        ]
    )
    rng = np.random.default_rng(14)
    single = np.array([group.distance(group.identity, group.haar_sample(rng)) for _ in range(n)])
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
        Observable("sup_curvature_In"): [global_ii(K, F, ind)[0] for F in fields],
        Observable("wilson_character", loop=loop): [chi(path_holonomy(K, F, loop)) for F in fields],
    }
    upper = group.batch_haar_sample(block_rng(26, 0), (N, 78))  # n = 13: 286 triads, two steps of 256
    expected[Observable("ii3_of_random_matrix", n=13)] = [
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
