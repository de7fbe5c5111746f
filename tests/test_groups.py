import cmath
import math

import numpy as np
import pytest
from scipy import integrate, stats

from holopc.errors import FloatRangeError, GroupMismatchError, LogBranchError, NonCompactGroupError
from holopc.groups import RPLUS, SU2, U1, group_from_tag, wrap_angle, zmod

ALL_GROUPS = [RPLUS, U1, SU2, zmod(5)]
COMPACT_GROUPS = [U1, SU2, zmod(5)]


def random_element(group, rng):
    """Draw a group element for property tests; rplus has no Haar measure,
    so it gets log-normal draws instead."""
    if group.compact:
        return group.haar_sample(rng)
    return math.exp(rng.normal())


# --- golden examples -------------------------------------------------------


def test_rplus_multiply_and_inverse():
    assert RPLUS.multiply(2.0, 4.0) == 8.0
    assert RPLUS.inverse(4.0) == 0.25


def test_u1_multiply_wraps_against_complex_oracle():
    # Oracle: multiply unit complex numbers and read the principal argument.
    expected = cmath.phase(cmath.exp(3.0j) * cmath.exp(1.0j))
    got = U1.multiply(3.0, 1.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(4.0 - 2.0 * math.pi, abs=1e-12)


def test_zmod_multiply_and_inverse():
    z5 = zmod(5)
    assert z5.multiply(3, 4) == 2
    assert z5.inverse(2) == 3


def test_su2_inverse_is_conjugate():
    rng = np.random.default_rng(7)
    q = SU2.haar_sample(rng)
    prod = SU2.multiply(q, SU2.inverse(q))
    assert SU2.distance(prod, SU2.identity) < 1e-12


def test_rplus_distance_is_log_ratio():
    assert RPLUS.distance(2.0, 8.0) == pytest.approx(math.log(4.0), abs=1e-12)


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(11)
    for group in ALL_GROUPS:
        g = random_element(group, rng)
        assert group.distance(g, g) == 0.0


def test_su2_antipodal_distance_is_pi():
    assert SU2.distance((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)) == pytest.approx(math.pi)


def test_su2_distance_matches_arccos_inner_product():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = SU2.haar_sample(rng)
        b = SU2.haar_sample(rng)
        dot = sum(x * y for x, y in zip(a, b))
        assert SU2.distance(a, b) == pytest.approx(math.acos(max(-1.0, min(1.0, dot))), abs=1e-12)


def test_zmod_distance_scaling():
    z5 = zmod(5)
    assert z5.distance(0, 1) == pytest.approx(2 * math.pi / 5)
    assert z5.distance(0, 3) == pytest.approx(2 * math.pi * 2 / 5)
    assert zmod(2).distance(0, 1) == pytest.approx(math.pi)
    assert zmod(1).distance(0, 0) == 0.0


# --- exp/log ----------------------------------------------------------------


def test_exp_log_golden():
    assert RPLUS.exp_coords([1.5]) == pytest.approx(math.exp(1.5))
    assert RPLUS.log_coords(8.0)[0] == pytest.approx(math.log(8.0))
    assert U1.exp_coords([0.5]) == pytest.approx(0.5)
    v = np.array([0.1, 0.2, 0.3])
    back = SU2.log_coords(SU2.exp_coords(v))
    assert np.allclose(back, v, atol=1e-9)


def test_exp_of_zero_is_identity():
    for group in ALL_GROUPS:
        assert group.distance(group.exp_coords(np.zeros(group.dim)), group.identity) == 0.0


def test_exp_log_round_trip_random():
    rng = np.random.default_rng(5)
    for group in [RPLUS, U1, SU2]:
        for _ in range(300):
            g = random_element(group, rng)
            if group is SU2 and SU2.distance(g, (-1.0, 0.0, 0.0, 0.0)) < 1e-6:
                continue
            h = group.exp_coords(group.log_coords(g))
            assert group.distance(g, h) < 1e-9


def test_su2_log_branch_singularity():
    with pytest.raises(LogBranchError):
        SU2.log_coords((-1.0, 0.0, 0.0, 0.0))
    # just off the antipode but inside the guard band
    w = -math.sqrt(1.0 - 1e-24)
    with pytest.raises(LogBranchError):
        SU2.log_coords((w, 1e-12, 0.0, 0.0))


def test_zmod_log_only_at_identity():
    z5 = zmod(5)
    assert z5.log_coords(0).shape == (0,)
    with pytest.raises(LogBranchError):
        z5.log_coords(2)


# --- group axioms and metric properties (property loops) --------------------


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_group_axioms(group):
    rng = np.random.default_rng(42)
    exact = group.tag.startswith("zmod")
    tol = 0.0 if exact else 1e-12
    for _ in range(1000):
        a = random_element(group, rng)
        b = random_element(group, rng)
        c = random_element(group, rng)
        lhs = group.multiply(group.multiply(a, b), c)
        rhs = group.multiply(a, group.multiply(b, c))
        assert group.distance(lhs, rhs) <= tol
        assert group.distance(group.multiply(a, group.identity), a) <= tol
        assert group.distance(group.multiply(group.identity, a), a) <= tol
        assert group.distance(group.multiply(a, group.inverse(a)), group.identity) <= tol


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.tag)
def test_distance_bi_invariance(group):
    rng = np.random.default_rng(43)
    for _ in range(1000):
        g = random_element(group, rng)
        x = random_element(group, rng)
        y = random_element(group, rng)
        d = group.distance(x, y)
        assert abs(group.distance(group.multiply(g, x), group.multiply(g, y)) - d) <= 1e-10
        assert abs(group.distance(group.multiply(x, g), group.multiply(y, g)) - d) <= 1e-10


# --- Haar sampling ----------------------------------------------------------


def test_haar_requires_compact():
    with pytest.raises(NonCompactGroupError):
        RPLUS.haar_sample(np.random.default_rng(0))


def _haar_distances(group, seed: int, n: int) -> np.ndarray:
    """d(1, g) for n Haar draws from default_rng(seed), drawn and scored as
    arrays.  The first 1,000 must equal the element methods on the same
    stream: exactly for u1, within 1e-14 (a few ulps of pi) for su2, whose
    element path renormalizes each draw in ``check``."""
    draws = group.batch_haar_sample(np.random.default_rng(seed), (n,))
    values = group.batch_distance(group.to_array([group.identity]), draws)
    rng = np.random.default_rng(seed)
    elements = [group.distance(group.identity, group.haar_sample(rng)) for _ in range(1000)]
    np.testing.assert_allclose(elements, values[:1000], rtol=0, atol=0 if group is U1 else 1e-14)
    return values


def test_u1_haar_mean_distance():
    # E|theta| for theta uniform on (-pi, pi] is pi/2.
    vals = _haar_distances(U1, 101, 100_000)
    assert np.mean(vals) == pytest.approx(math.pi / 2, abs=0.02)


def test_su2_haar_mean_distance_matches_quadrature():
    # Angle-to-identity density on [0, pi] is (2/pi) sin^2(phi).
    oracle, err = integrate.quad(lambda p: p * (2 / math.pi) * math.sin(p) ** 2, 0, math.pi)
    assert err < 1e-10
    assert oracle == pytest.approx(math.pi / 2, abs=1e-10)
    vals = _haar_distances(SU2, 102, 100_000)
    assert np.mean(vals) == pytest.approx(oracle, abs=0.02)


def test_zmod2_haar_frequency():
    rng = np.random.default_rng(103)
    z2 = zmod(2)
    vals = [z2.haar_sample(rng) for _ in range(100_000)]
    assert abs(vals.count(0) / len(vals) - 0.5) < 0.01


@pytest.mark.parametrize("group", COMPACT_GROUPS, ids=lambda g: g.tag)
def test_haar_translation_invariance_ks(group):
    # d(1, g*sample) and d(1, sample) should agree in distribution.
    rng = np.random.default_rng(104)
    g = group.haar_sample(rng)
    n = 10_000
    base = np.array([group.distance(group.identity, group.haar_sample(rng)) for _ in range(n)])
    shifted = np.array(
        [group.distance(group.identity, group.multiply(g, group.haar_sample(rng))) for _ in range(n)]
    )
    stat = stats.ks_2samp(base, shifted).statistic
    critical = 1.628 * math.sqrt(2.0 / n)  # two-sample KS at the 1% level
    assert stat < critical


def test_haar_determinism():
    for group in COMPACT_GROUPS:
        a = group.haar_sample(np.random.default_rng(9))
        b = group.haar_sample(np.random.default_rng(9))
        assert a == b


# --- carriers, errors, serialization ----------------------------------------


def test_group_mismatch_errors():
    with pytest.raises(GroupMismatchError):
        RPLUS.multiply(2.0, (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(GroupMismatchError):
        RPLUS.check(-3.0)
    with pytest.raises(GroupMismatchError):
        SU2.multiply((1.0, 0.0, 0.0, 0.0), 0.5)
    with pytest.raises(GroupMismatchError):
        SU2.check((2.0, 0.0, 0.0, 0.0))
    with pytest.raises(GroupMismatchError):
        zmod(5).multiply(1, 0.5)


@pytest.mark.parametrize("x", [1e200, 1e-200, 1e-155])
def test_rplus_product_leaving_the_positive_reals_raises(x):
    # overflow to inf, underflow to 0, and a product of 1e-310, whose
    # inverse overflows, all leave the carrier
    with pytest.raises(ValueError, match=r"left \(2\*\*-1024, 1\.7976931348623153e\+308\)"):
        RPLUS.multiply(x, x)


def test_u1_canonical_branch():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert U1.inverse(math.pi) == math.pi
    assert -math.pi < U1.multiply(2.0, 2.0) <= math.pi


def test_tags_round_trip():
    for group in ALL_GROUPS:
        assert group_from_tag(group.tag) == group
    with pytest.raises(ValueError):
        group_from_tag("so3")
    with pytest.raises(ValueError):
        group_from_tag("zmod:x")


def test_element_serialization_round_trip():
    rng = np.random.default_rng(8)
    for group in ALL_GROUPS:
        g = random_element(group, rng)
        obj = group.element_to_obj(g)
        assert group.distance(group.element_from_obj(obj), g) < 1e-15
    assert U1.element_to_obj(0.5) == {"theta": 0.5}
    assert SU2.element_to_obj(SU2.identity) == {"q": [1.0, 0.0, 0.0, 0.0]}
    assert zmod(5).element_to_obj(7) == 2


def test_cyclic_order_limited_to_int64_carriers():
    assert zmod(2**62).m == 2**62
    with pytest.raises(ValueError, match=r"at most 2\*\*62"):
        zmod(2**62 + 1)
    with pytest.raises(ValueError, match=r"bad cyclic group tag .* at most 2\*\*62"):
        group_from_tag(f"zmod:{2**63}")


def test_cyclic_order_is_an_integer():
    assert zmod(5.0) == zmod(np.int64(5)) == zmod(5)
    for m in (5.7, True, "5"):
        with pytest.raises(ValueError, match=f"cyclic group order m must be an integer, got {m!r}"):
            zmod(m)


@pytest.mark.parametrize("v", [710.0, -710.0, 1e6, -1e6])
def test_rplus_exp_refuses_a_result_outside_the_carrier_range(v):
    # exp(710) overflows and exp(-710) is below 2**-1024, where the inverse overflows
    with pytest.raises(FloatRangeError, match=r"left \(2\*\*-1024, 1\.7976931348623153e\+308\)"):
        RPLUS.batch_exp(np.array([[0.0], [v]]))
    with pytest.raises(FloatRangeError):
        RPLUS.exp_coords([v])
    assert RPLUS.exp_coords([math.copysign(709.0, v)]) == math.exp(math.copysign(709.0, v))
