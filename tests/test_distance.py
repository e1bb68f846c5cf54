"""Distance estimates: exact values, brackets, and metric axioms.

Frozen closed forms for the Heisenberg group in this normalization:
horizontal points are at Euclidean distance, and the purely vertical
point (0, 0, z) is at 2 sqrt(pi |z|) (the isoperimetric circle lifting
area z).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import srlab.distance as dist
from srlab.cli import main as cli_main
from srlab.models import build_su2_pair, get_model
from srlab.suite import DEFAULT_CONFIG, derive_seed


@pytest.fixture(scope="module")
def heis():
    return get_model("heisenberg")


def test_horizontal_point(heis):
    est = dist.cc_distance(heis, np.zeros(3), [1.0, 0.0, 0.0])
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.lower == pytest.approx(1.0, abs=1e-12)
    assert est.method == "geodesic-shooting"


def test_vertical_point(heis):
    for z in (0.25, 1.0, 4.0):
        est = dist.cc_distance(heis, np.zeros(3), [0.0, 0.0, z])
        assert est.value == pytest.approx(2.0 * np.sqrt(np.pi * z), rel=1e-10)


def test_near_vertical_axis_is_bracketed(heis):
    # d(0, p) lies within rho = |(x, y)| of d(0, (0, 0, z)) by the
    # triangle inequality; next to the axis the angle solve cannot
    # resolve it (rho 1e-9 loses digits, rho 1e-10 leaves the root
    # bracket), so the triangle bracket is returned, not called exact
    for rho, z in ((1e-9, 1.0), (1e-10, 1.0), (1e-9, -4.0)):
        est = dist.cc_distance(heis, np.zeros(3), [rho, 0.0, z])
        axis = 2.0 * np.sqrt(np.pi * abs(z))
        assert est.method == "bracket"
        assert (est.lower, est.value, est.upper) == (axis - rho, axis, axis + rho)
    # farther out the solve stays exact and inside the same bracket
    est = dist.cc_distance(heis, np.zeros(3), [1e-7, 0.0, 1.0])
    assert est.method == "geodesic-shooting"
    assert abs(est.value - 2.0 * np.sqrt(np.pi)) <= 1e-7


def test_renamed_heisenberg_takes_closed_form(heis):
    renamed = dataclasses.replace(heis, name="h3")
    x, y = [0.1, -0.2, 0.3], [0.4, 0.2, -0.5]
    est = dist.cc_distance(renamed, x, y)
    assert est.method == "geodesic-shooting"
    assert est.value == dist.cc_distance(heis, x, y).value


def test_coincident_points(heis):
    est = dist.cc_distance(heis, [0.3, 0.2, 0.1], [0.3, 0.2, 0.1])
    assert est.value == 0.0


def reference_estimate(model, x, y):
    """The Heisenberg estimate pair by pair in Python floats: the scalar
    bisection with math.sin, and 1-D norms."""
    rel = model.compose(model.inverse(np.asarray(x, dtype=float)), np.asarray(y, dtype=float))
    rho = float(np.hypot(rel[0], rel[1]))
    az = abs(float(rel[2]))
    axis = 2.0 * np.sqrt(np.pi * az)
    value = rho if az < 1e-14 else axis
    if az >= 1e-14 and rho >= 1e-14:
        target = 4.0 * az / rho**2

        def m(phi):
            s = math.sin(0.5 * phi)
            return (phi - math.sin(phi)) / (2.0 * s * s)

        lo, hi = 1e-9, 2.0 * np.pi - 1e-9
        if m(hi) < target:
            return dist.DistanceEstimate(axis, axis - rho, axis + rho, "bracket")
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if m(mid) < target else (lo, mid)
        value = float(rho * hi / (2.0 * np.sin(0.5 * hi)))
        if abs(value - axis) > rho:
            return dist.DistanceEstimate(axis, axis - rho, axis + rho, "bracket")
    lower = float(np.linalg.norm(rel[:2]))
    rest = model.compose(-np.array([rel[0], rel[1], 0.0]), rel)
    upper = lower
    if abs(rest[2]) >= 1e-15:
        upper += 4.0 * np.sqrt(abs(rest[2]) / np.max(np.abs(model.onframe.c[2, :2, :2])))
    return dist.DistanceEstimate(value, min(lower, value), max(upper, value), "geodesic-shooting")


def _bits(est):
    return tuple(np.float64(v).tobytes() for v in (est.value, est.lower, est.upper)) + (
        est.method,
    )


def test_batched_distances_equal_the_pairwise_ones(heis):
    # distance-triangle's 300 seeded pairs at the default seed, then the
    # edge cases: coincident points, z = 0, the vertical axis, the
    # near-axis bracket, and a radius whose square by C pow (Python's
    # rho**2) is one ulp off rho * rho, which moves the angle's target;
    # the harnack rows read .lower
    rng = np.random.default_rng(derive_seed(DEFAULT_CONFIG["seed"], "dist"))
    a, b, c = rng.uniform(-1.0, 1.0, (100, 3, 3)).transpose(1, 0, 2)
    xs = list(np.concatenate([a, b, a])) + [
        np.array([0.3, 0.2, 0.1]), np.zeros(3), np.zeros(3), np.zeros(3),
        np.zeros(3), np.zeros(3), np.array([0.2, -0.1, 0.4]), np.zeros(3),
    ]
    ys = list(np.concatenate([b, c, c])) + [
        np.array([0.3, 0.2, 0.1]), np.array([0.4, -0.3, 0.0]), np.array([0.0, 0.0, 0.7]),
        np.array([0.0, 0.0, -2.0]), np.array([1e-9, 0.0, 1.0]), np.array([1e-7, 0.0, 1.0]),
        np.array([0.2 + 1e-10, -0.1, 1.4]), np.array([1.1604825636167093, 0.0, 0.5]),
    ]
    renamed = dataclasses.replace(heis, name="h3")
    for model in (heis, renamed):
        batch = dist.cc_distances(model, xs, ys)
        assert [_bits(e) for e in batch] == [
            _bits(dist.cc_distance(model, x, y)) for x, y in zip(xs, ys)
        ]
        assert [_bits(e) for e in batch] == [
            _bits(reference_estimate(model, x, y)) for x, y in zip(xs, ys)
        ]
        assert {e.method for e in batch} == {"geodesic-shooting", "bracket"}
        assert _bits(batch[300]) == _bits(dist.DistanceEstimate(0.0, 0.0, 0.0, "geodesic-shooting"))
        assert all(type(v) is float for e in batch for v in (e.value, e.lower, e.upper))


def test_bracket_ordering(heis):
    rng = np.random.default_rng(1)
    for _ in range(30):
        x, y = rng.uniform(-1.5, 1.5, (2, 3))
        est = dist.cc_distance(heis, x, y)
        assert est.lower <= est.value + 1e-12
        assert est.value <= est.upper + 1e-12


def test_left_invariance(heis):
    rng = np.random.default_rng(2)
    x, y, g = rng.uniform(-1, 1, (3, 3))
    d1 = dist.cc_distance(heis, x, y).value
    d2 = dist.cc_distance(heis, heis.compose(g, x), heis.compose(g, y)).value
    assert d1 == pytest.approx(d2, rel=1e-10)


def test_triangle_inequality_sweep(heis):
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c = rng.uniform(-1, 1, (3, 3))
        dab = dist.cc_distance(heis, a, b).value
        dbc = dist.cc_distance(heis, b, c).value
        dac = dist.cc_distance(heis, a, c).value
        assert dac <= dab + dbc + 1e-9


def test_symmetry(heis):
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, (2, 3))
        assert dist.cc_distance(heis, x, y).value == pytest.approx(
            dist.cc_distance(heis, y, x).value, rel=1e-10
        )


@pytest.mark.parametrize("name", ["heisenberg", "free-nilpotent-3", "engel", "su2-pair"])
def test_shooting_jacobian_matches_central_differences(name):
    m = get_model(name)
    v = 0.3 * np.random.default_rng(1).standard_normal(dist.SHOOT_PIECES * m.dim_h)
    jac = dist._endpoint_jacobian(m, v)[1]
    h = 1e-6
    fd = np.empty_like(jac)
    for j in range(len(v)):
        e = np.zeros_like(v)
        e[j] = h
        plus = dist._suffix_products(m, v + e)[1][0]
        minus = dist._suffix_products(m, v - e)[1][0]
        fd[:, j] = (plus - minus) / (2.0 * h)
    assert np.max(np.abs(jac - fd)) <= 1e-8


def test_shooting_brackets_heisenberg_exact_value(heis):
    # a second, independent route to the exact geodesic lengths: the
    # shooting curve is admissible, so it can only be longer, and with
    # 16 pieces it is longer by well under 2 %
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-1.0, 1.0, (2, 3))
        exact = dist.cc_distance(heis, x, y)
        assert exact.method == "geodesic-shooting"
        shoot = dist._shooting_upper(heis, heis.compose(heis.inverse(x), y))
        assert exact.value <= shoot * (1.0 + 1e-12)
        assert shoot <= 1.02 * exact.value


def test_engel_horizontal_endpoint_is_exact():
    # the straight horizontal segment is a geodesic, so the admissible
    # curve found meets the projection lower bound
    m = get_model("engel")
    est = dist.cc_distance(m, np.zeros(4), [0.4, 0.3, 0.0, 0.0])
    assert est.method == "shooting-upper"
    assert est.lower == pytest.approx(0.5)  # horizontal projection
    assert est.value == est.upper == pytest.approx(0.5, abs=1e-9)
    assert est.lower <= est.value


def test_equal_endpoints_keep_their_route_label():
    # off Heisenberg the zero-length curve is an admissible curve, not
    # the closed form's geodesic
    for name, method in (("heisenberg", "geodesic-shooting"), ("engel", "shooting-upper")):
        m = get_model(name)
        x = np.full(m.dim, 0.2)
        est = dist.cc_distance(m, x, x)
        assert (est.value, est.lower, est.upper, est.method) == (0.0, 0.0, 0.0, method)


def test_step2_shooting_within_loop_bound():
    # the points `srlab distance free-nilpotent-3` draws by default
    m = get_model("free-nilpotent-3")
    x, y = np.random.default_rng(0).uniform(-0.5, 0.5, (2, 6))
    est = dist.cc_distance(m, x, y)
    rel = m.compose(m.inverse(x), y)
    assert est.method == "shooting-upper"
    assert est.value == est.upper <= dist._nilpotent_upper(m, rel)
    assert est.lower == pytest.approx(0.6818440454767043, rel=1e-12)
    assert est.lower <= est.value <= 3.65


def test_shooting_is_deterministic():
    m = get_model("engel")
    x, y = np.random.default_rng(0).uniform(-0.5, 0.5, (2, 4))
    first, second = (json.dumps(dist.cc_distance(m, x, y).to_json()) for _ in range(2))
    assert first == second


def test_unreachable_endpoints_fail_before_shooting(monkeypatch, capsys):
    # abelian is not bracket-generating: a vertical offset is unreachable
    # by any curve, so no shooting runs before saying so
    m = get_model("abelian")
    in_span = dist.cc_distance(m, np.zeros(3), [0.3, 0.4, 0.0])
    assert (in_span.method, in_span.value) == ("shooting-upper", 0.5)

    def no_search(*args):
        raise AssertionError("shooting ran")

    monkeypatch.setattr(dist, "_shooting_upper", no_search)
    assert cli_main(["distance", "abelian"]) == 2
    err = capsys.readouterr().err
    assert "error: abelian-2-1 is not bracket-generating" in err
    assert "no horizontal path joins them" in err


def test_su2_pair_one_parameter_subgroup():
    m = get_model("su2-pair")
    est = dist.cc_distance(m, np.zeros(6), [0.25, 0, 0, 0, 0, 0])
    # straight horizontal flow attains the factor projection bound
    assert est.value == pytest.approx(0.25, abs=1e-9)
    assert est.lower == pytest.approx(0.25, abs=1e-9)


def _heisenberg_by_scipy_root(p):
    """Distance from the identity with the angle solved by scipy's brentq."""
    from scipy.optimize import brentq

    def m(phi):
        s = np.sin(0.5 * phi)
        return (phi - np.sin(phi)) / (2.0 * s * s)

    rho = float(np.hypot(p[0], p[1]))
    target = 4.0 * abs(p[2]) / rho**2
    phi = brentq(lambda q: m(q) - target, 1e-9, 2.0 * np.pi - 1e-9, xtol=1e-14, rtol=1e-15)
    return float(rho * phi / (2.0 * np.sin(0.5 * phi)))


def test_bisected_angle_matches_scipy_root(heis):
    # targets m(phi) = 4 |z| / rho^2 spread uniformly and log-uniformly
    # over [1e-8, 1e3], at random horizontal radii and directions
    rng = np.random.default_rng(23)
    n = 1000
    targets = np.concatenate(
        [rng.uniform(1e-8, 1e3, n), np.exp(rng.uniform(np.log(1e-8), np.log(1e3), n))]
    )
    rho = rng.uniform(0.05, 3.0, 2 * n)
    angle = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
    z = rng.choice([-1.0, 1.0], 2 * n) * targets * rho**2 / 4.0
    for p in np.stack([rho * np.cos(angle), rho * np.sin(angle), z], axis=1):
        est = dist.cc_distance(heis, np.zeros(3), p)
        assert est.method == "geodesic-shooting"
        assert est.value == pytest.approx(_heisenberg_by_scipy_root(p), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("rho", [0.3, 1.0, 2.5])
def test_su2_pair_lower_bound_reads_the_factor_map(rho):
    # H_i = (X_i, 2 X_i) and V_i = (X_i, 0) at <H_i, H_i> = 1 / (2 rho): the
    # factors of exp(sum u_a F_a) are exp(sqrt(2 rho) (h + sqrt(4 rho) v) . X)
    # and exp(2 sqrt(2 rho) h . X), with horizontal gains sqrt(2 rho) and
    # twice that
    m = build_su2_pair(rho)
    rel = np.random.default_rng(5).uniform(-0.5, 0.5, 6)
    scale = np.sqrt(2.0 * rho)
    a = scale * (rel[:3] + np.sqrt(4.0 * rho) * rel[3:])
    b = 2.0 * scale * rel[:3]
    expected = max(np.linalg.norm(a) / scale, np.linalg.norm(b) / (2.0 * scale))
    assert dist._su2_lower(m, rel) == pytest.approx(expected, rel=1e-15, abs=0.0)
