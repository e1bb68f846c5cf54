"""Monte Carlo semigroup estimator against closed-form moments.

Closed forms used as oracles: the first horizontal coordinate of the
walk is a standard Brownian motion, so P_t(x^2)(0) = t exactly at any
step count; the vertical coordinate of the Heisenberg walk has second
moment t^2 (1 - 1/steps) / 4, with the 1/steps deficit coming from the
midpoint-rule area accumulation of the group-exponential stepper.
"""

import numpy as np
import pytest

import srlab.frames as frames
import srlab.heat as heat
import srlab.suite as su
from srlab.jets import GaussianBump, Polynomial, get_space
from srlab.models import get_model


@pytest.fixture(scope="module")
def heis():
    return get_model("heisenberg")


def test_unit_function_is_exact(heis):
    est = heat.mc_semigroup(heis, Polynomial.constant(3, 1.0), np.zeros(3), 1.0, 3000, 30, seed=1)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_time_zero_identity(heis):
    f = Polynomial.monomial(3, (2, 0, 0))
    x = np.array([0.7, 0.1, -0.2])
    est = heat.mc_semigroup(heis, f, x, 0.0, 50, 1, seed=2)
    assert est.value == pytest.approx(float(np.squeeze(f.eval(x))), abs=1e-14)
    # averaging identical values leaves only rounding noise
    assert est.std_error <= 1e-8


def test_x_squared_matches_brownian_variance(heis):
    est = heat.mc_semigroup(
        heis, Polynomial.monomial(3, (2, 0, 0)), np.zeros(3), 1.0, 40000, 50, seed=42
    )
    assert abs(est.value - 1.0) <= 3.0 * est.std_error


def test_z_squared_matches_area_moment(heis):
    t, steps = 1.0, 100
    est = heat.mc_semigroup(
        heis, Polynomial.monomial(3, (0, 0, 2)), np.zeros(3), t, 60000, steps, seed=7
    )
    expected = t**2 * (1.0 - 1.0 / steps) / 4.0
    assert abs(est.value - expected) <= 3.0 * est.std_error


def test_weak_order_step_halving(heis):
    # halving the step changes the biased z^2 estimate by less than
    # three combined standard errors once the step is small
    f = Polynomial.monomial(3, (0, 0, 2))
    e1 = heat.mc_semigroup(heis, f, np.zeros(3), 1.0, 10000, 64, seed=11)
    e2 = heat.mc_semigroup(heis, f, np.zeros(3), 1.0, 10000, 128, seed=12)
    combined = np.hypot(e1.std_error, e2.std_error)
    assert abs(e1.value - e2.value) <= 3.0 * combined
    # and the x^2 estimate is exact in distribution at any step count
    g = Polynomial.monomial(3, (2, 0, 0))
    a1 = heat.mc_semigroup(heis, g, np.zeros(3), 1.0, 10000, 4, seed=13)
    a2 = heat.mc_semigroup(heis, g, np.zeros(3), 1.0, 10000, 64, seed=14)
    assert abs(a1.value - a2.value) <= 3.0 * np.hypot(a1.std_error, a2.std_error)


def test_contractivity_exact(heis):
    f = GaussianBump(np.array([0.5, 0.0, 0.0]), 0.4)  # bounded by 1
    est = heat.mc_semigroup(heis, f, np.zeros(3), 0.5, 5000, 20, seed=3)
    assert est.value <= 1.0


def test_determinism_bit_identical(heis):
    f = Polynomial.monomial(3, (2, 0, 0))
    a = heat.mc_semigroup(heis, f, np.zeros(3), 0.5, 20000, 40, seed=5)
    b = heat.mc_semigroup(heis, f, np.zeros(3), 0.5, 20000, 40, seed=5)
    assert a.value == b.value
    assert a.std_error == b.std_error
    c = heat.mc_gradient(heis, f, np.zeros(3), 0.5, "h", 5000, 20, seed=5)
    d = heat.mc_gradient(heis, f, np.zeros(3), 0.5, "h", 5000, 20, seed=5)
    assert c.value == d.value


def test_gradient_of_linear_function_noiseless(heis):
    x = Polynomial.coordinate(3, 0)
    g = heat.mc_gradient(heis, x, np.zeros(3), 0.7, "h", 2000, 20, seed=3)
    assert g.value == pytest.approx(1.0, abs=1e-9)
    assert g.std_error <= 1e-12
    gv = heat.mc_gradient(heis, x, np.zeros(3), 0.7, "v", 2000, 20, seed=3)
    assert gv.value == pytest.approx(0.0, abs=1e-9)


def test_gradient_of_vertical_coordinate(heis):
    # z is a martingale and central, so the vertical derivative is exact
    z = Polynomial.coordinate(3, 2)
    gv = heat.mc_gradient(heis, z, np.zeros(3), 0.5, "v", 2000, 20, seed=9)
    assert gv.value == pytest.approx(1.0, abs=1e-9)


def test_vertical_gradient_bound_sample(heis):
    rng = np.random.default_rng(15)
    f = Polynomial.random(3, 3, rng)
    x = np.array([0.2, -0.1, 0.3])
    t = 0.5
    gv = heat.mc_gradient(heis, f, x, t, "v", 20000, 50, seed=16)
    lhs = np.sqrt(max(gv.value, 0.0))
    rhs = heat.mc_semigroup(heis, heat.FrameGamma(f, "v", 0.5), x, t, 20000, 50, seed=16)
    err = np.hypot(gv.std_error / max(2 * lhs, 1e-6), rhs.std_error)
    assert rhs.value - lhs >= -3.0 * err


@pytest.mark.parametrize("name", ["heisenberg", "free-nilpotent-3", "engel", "su2-pair"])
def test_one_pass_equals_separate_passes(name, monkeypatch):
    # the entries of one pass share its paths; each estimate keeps the
    # numbers it has when estimated alone
    m = get_model(name)
    rng = np.random.default_rng(21)
    f = Polynomial.random(m.dim, 3, rng)
    g = Polynomial.random(m.dim, 2, rng)
    x = rng.uniform(-0.3, 0.3, m.dim)
    gh, gv, eg = heat.mc_semigroup_many(
        m, [heat.Gradient(f, "h"), heat.Gradient(f, "v"), g], x, 0.4, 600, 6, 23
    )
    assert gh == heat.mc_gradient(m, f, x, 0.4, "h", 600, 6, 23)
    assert gv == heat.mc_gradient(m, f, x, 0.4, "v", 600, 6, 23)
    assert eg == heat.mc_semigroup(m, g, x, 0.4, 600, 6, 23)
    # one pass over the union of the three gradient checks' integrands,
    # on three chunks: each entry sums its own rows of the table, so it
    # keeps the bits of its own pass and of its check's pass
    union = [heat.Gradient(f, "h"), heat.Gradient(f, "v"), heat.FrameGamma(f, "hv"),
             heat.FrameGamma(f, "v", 0.5), f, heat.Variance(f)]
    monkeypatch.setattr(heat, "CHUNK", 256)
    shared = dict(zip(union, heat.mc_semigroup_many(m, union, x, 0.4, 600, 6, 23)))
    passes = [[e] for e in union]
    passes += [integrands(f) for integrands in (su._bound_a_integrands, su._bound_b_integrands,
                                                su._vertical_integrands)]
    for entries in passes:
        for e, est in zip(entries, heat.mc_semigroup_many(m, entries, x, 0.4, 600, 6, 23)):
            for key in ("value", "std_error", "directional"):
                assert getattr(shared[e], key, None) == getattr(est, key, None), (e, key)


def _stencil_means(m, f, x, which, t, steps, size, rng, delta=1e-3):
    """Directional derivatives of P_t f at x by central differences of
    group-translated starts x exp(+-delta E_i), on the paths of the start x."""
    dirs = range(m.dim_h) if which == "h" else range(m.dim_h, m.dim)
    starts = [x]
    for i in dirs:
        e = np.zeros(m.dim)
        e[i] = delta
        starts += [m.compose(x, e), m.compose(x, -e)]
    ends = heat._evolve(m, np.array(starts), t, steps, size, rng)
    vals = np.array([f.eval(s) for s in ends[1:]])
    return (vals[0::2] - vals[1::2]).mean(axis=1) / (2.0 * delta)


@pytest.mark.parametrize("name", ["heisenberg", "free-nilpotent-3", "engel"])
def test_pathwise_gradient_equals_the_stencil_on_shared_paths(name):
    # a start's paths do not depend on the other starts of the batch, so
    # the stencil sees the paths the pathwise pass sees; they differ by
    # the stencil's O(delta^2)
    m = get_model(name)
    rng = np.random.default_rng(41)
    f = Polynomial(m.dim, 3, rng.uniform(-0.5, 0.5, get_space(m.dim, 3).terms(3)))
    x = rng.uniform(-0.5, 0.5, m.dim)
    for which in ("h", "v"):
        est = heat.mc_gradient(m, f, x, 0.5, which, 2000, 20, seed=42)
        stencil = _stencil_means(m, f, x, which, 0.5, 20, 2000, heat._stream(42, 0))
        assert np.max(np.abs(np.array(est.directional) - stencil)) < 2e-6


def test_mc_variance_is_delta_method_on_one_pass(heis):
    # P_t f^2 - (P_t f)^2 from the means and covariance of the rows f and
    # f^2 of one chunk's paths, linearised about the two means
    f = Polynomial.random(3, 2, np.random.default_rng(17))
    x, t, paths, steps, seed = np.array([0.2, -0.1, 0.3]), 0.5, 3000, 20, 17
    ends = heat._evolve(heis, x[None], t, steps, paths, heat._stream(seed, 0))[0]
    v = np.asarray(f.eval(ends), dtype=float)
    table = np.array([v, v**2])
    means = table.sum(axis=1) / paths
    cross = np.array([(row * table).sum(axis=1) for row in table])
    cov = (cross / paths - np.outer(means, means)) * (paths / (paths - 1)) / paths
    m1, m2 = float(means[0]), float(means[1])
    grad = np.array([-2.0 * m1, 1.0])
    expected = (m2 - m1**2, float(np.sqrt(max(float(grad @ cov @ grad), 0.0))))
    est = heat.mc_semigroup_many(heis, [heat.Variance(f)], x, t, paths, steps, seed)[0]
    assert (est.value, est.std_error) == expected
    assert heat.mc_variance(heis, f, x, t, paths, steps, seed) == expected


def gamma_numeric(m, f, pts, which):
    """Squared horizontal or vertical frame gradient of f at pts."""
    g = frames.frame_gradients(m, f, pts)
    return np.sum((g[:, : m.dim_h] if which == "h" else g[:, m.dim_h :]) ** 2, axis=-1)


@pytest.mark.parametrize("name", ["heisenberg", "engel", "su2-pair"])
def test_frame_gamma_equals_the_block_sums(name):
    # Gamma^h + Gamma^v sums each block on its own; power 0.5 is np.sqrt
    m = get_model(name)
    rng = np.random.default_rng(33)
    f = Polynomial.random(m.dim, 3, rng)
    pts = rng.uniform(-0.5, 0.5, (400, m.dim))
    grads = frames.frame_gradients(m, f, pts)
    got = heat.FrameGamma(f, "hv").read(m, grads)
    assert np.array_equal(got, gamma_numeric(m, f, pts, "h") + gamma_numeric(m, f, pts, "v"))
    got = heat.FrameGamma(f, "v", 0.5).read(m, grads)
    assert np.array_equal(got, np.sqrt(gamma_numeric(m, f, pts, "v")))


@pytest.mark.parametrize("integrands", [su._bound_a_integrands, su._vertical_integrands])
def test_every_entry_reads_one_frame_gradient_per_chunk(heis, integrands, monkeypatch):
    calls = []
    frame_gradients = frames.frame_gradients

    def counted(model, f, pts):
        calls.append(len(pts))
        return frame_gradients(model, f, pts)

    monkeypatch.setattr(frames, "frame_gradients", counted)
    monkeypatch.setattr(heat, "CHUNK", 100)
    f = Polynomial.random(3, 3, np.random.default_rng(35))
    heat.mc_semigroup_many(heis, integrands(f), np.array([0.1, -0.2, 0.3]), 0.5, 250, 5, 17)
    assert calls == [100, 100, 50]


def test_variance_reuses_the_values_of_its_function(heis, monkeypatch):
    calls = []

    class Counted:
        def __init__(self, f):
            self.f = f

        def eval(self, pts):
            calls.append(len(pts))
            return self.f.eval(pts)

    g = Counted(Polynomial.random(3, 3, np.random.default_rng(34)))
    args = (np.array([0.1, -0.2, 0.3]), 0.5, 2500, 20, 17)
    monkeypatch.setattr(heat, "CHUNK", 1000)
    alone = [heat.mc_semigroup_many(heis, [e], *args)[0] for e in (g, heat.Variance(g))]
    # once per chunk in either order, and each estimate keeps its bits
    for entries in ([g, heat.Variance(g)], [heat.Variance(g), g]):
        calls.clear()
        got = heat.mc_semigroup_many(heis, entries, *args)
        assert calls == [1000, 1000, 500]
        assert got == (alone if entries[0] is g else alone[::-1])


def test_mc_variance_estimator(heis):
    # x-marginal is Brownian: var(x_t^2) = 2 t^2
    v, sv = heat.mc_variance(
        heis, Polynomial.monomial(3, (2, 0, 0)), np.zeros(3), 0.5, 30000, 40, seed=17
    )
    assert abs(v - 2 * 0.25) <= 3.0 * sv


def test_su2_walk_stays_normalized():
    m = get_model("su2-pair")
    est = heat.mc_semigroup(m, Polynomial.constant(6, 1.0), np.zeros(6), 0.3, 2000, 20, seed=19)
    assert est.value == 1.0


def _compose_walk(m, starts, t, steps, size, rng):
    """The walk as one `compose` per step: the second route for `heat._evolve`."""
    states = np.broadcast_to(starts[:, None, :], (len(starts), size, m.dim)).copy()
    w = np.zeros((size, m.dim))
    for _ in range(steps):
        w[:, : m.dim_h] = np.sqrt(t / steps) * rng.standard_normal((size, m.dim_h))
        states = m.compose(states, w[None])
    return states


@pytest.mark.parametrize("name", ["heisenberg", "free-nilpotent-3", "engel", "su2-pair"])
def test_native_walk_matches_compose_loop(name):
    m = get_model(name)
    starts = np.random.default_rng(31).uniform(-0.5, 0.5, (3, m.dim))
    got = heat._evolve(m, starts, 0.8, 60, 300, heat._stream(7, 0))
    ref = _compose_walk(m, starts, 0.8, 60, 300, heat._stream(7, 0))
    if m.su2_factors is None:
        # native form is the coordinates: the same arithmetic
        assert np.array_equal(got, ref)
    else:
        # one log per path instead of one per step
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)


def _allocating_walk(m, starts, t, steps, size, rng):
    """The walk with fresh arrays at every step: `lift_horizontal`, then `mul`."""
    g = m.lift(starts[:, None, :])
    sqh = np.sqrt(t / steps)
    for _ in range(steps):
        xi = rng.standard_normal((size, m.dim_h))
        g = m.mul(g, m.lift_horizontal(sqh * xi.T))
    return m.coords(g)


@pytest.mark.parametrize("n_starts", [1, 3])
@pytest.mark.parametrize("name", ["heisenberg", "free-nilpotent-3", "engel", "su2-pair"])
def test_buffered_walk_equals_the_allocating_walk(name, n_starts):
    # the walk's reused buffers change where each step's numbers are
    # stored, not how they round, nor how many normals a walk draws
    m = get_model(name)
    starts = np.random.default_rng(35).uniform(-0.5, 0.5, (n_starts, m.dim))
    rng, ref_rng = heat._stream(9, 0), heat._stream(9, 0)
    got = heat._evolve(m, starts, 0.7, 25, 500, rng)
    assert np.array_equal(got, _allocating_walk(m, starts, 0.7, 25, 500, ref_rng))
    assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))


@pytest.mark.parametrize("name", ["heisenberg", "engel", "su2-pair"])
def test_walk_without_time_or_steps_keeps_the_starts(name):
    m = get_model(name)
    starts = np.random.default_rng(32).uniform(-0.5, 0.5, (2, m.dim))
    expected = np.broadcast_to(starts[:, None, :], (2, 5, m.dim))
    for t, steps in ((0.0, 4), (0.5, 0)):
        got = heat._evolve(m, starts, t, steps, 5, heat._stream(8, 0))
        assert np.array_equal(got, expected)


def test_invalid_settings(heis, monkeypatch):
    f = Polynomial.constant(3, 1.0)
    with pytest.raises(ValueError):
        heat.mc_semigroup(heis, f, np.zeros(3), 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError, match="paths must be >= 2"):  # one path has no spread
        heat.mc_semigroup(heis, f, np.zeros(3), 1.0, 1, 10, seed=0)
    with pytest.raises(ValueError):
        heat.mc_semigroup(heis, f, np.zeros(3), -1.0, 10, 10, seed=0)
    with pytest.raises(ValueError):
        heat.mc_gradient(heis, f, np.zeros(3), 1.0, "bogus", 10, 10, seed=0)
    with pytest.raises(ValueError):
        heat.mc_gradient(heis, f, np.zeros(3), 1.0, "h", 0, 10, seed=0)
    with pytest.raises(ValueError):
        heat.mc_gradient(heis, f, np.zeros(3), -1.0, "h", 10, 10, seed=0)
    with pytest.raises(ValueError):
        heat.mc_gamma_mixed(heis, f, np.zeros(3), 1.0, 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError):
        heat.mc_gamma_mixed(heis, f, np.zeros(3), -1.0, 1.0, 10, 10, seed=0)
    with pytest.raises(ValueError):
        heat.mc_variance(heis, f, np.zeros(3), 1.0, 10, 0, seed=0)
    with pytest.raises(ValueError):
        heat.mc_semigroup_many(
            heis, [f, heat.Gradient(f, "bogus")], np.zeros(3), 1.0, 10, 10, seed=0
        )
    with pytest.raises(ValueError):  # "hv" is no selector
        heat.mc_semigroup_many(heis, [heat.Gradient(f, "hv")], np.zeros(3), 1.0, 10, 10, seed=0)
    # a bad selector is rejected before any walk
    monkeypatch.setattr(heat, "_evolve", None)
    for which in ("bogus", "hv"):
        with pytest.raises(ValueError, match="unknown gradient selector"):
            heat.mc_semigroup_many(heis, [f, heat.Gradient(f, which)], np.zeros(3), 1.0, 10, 10, 0)
    for which in ("h", "mixed"):
        with pytest.raises(ValueError, match="unknown frame-gamma selector"):
            heat.FrameGamma(f, which)
    with pytest.raises(ValueError, match="integrand list is empty"):
        heat.mc_semigroup_many(heis, [], np.zeros(3), 1.0, 10, 10, seed=0)
