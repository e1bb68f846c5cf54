"""Grid solver checks: structure, conservation, and cross-estimators."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import cg as scipy_cg

import srlab.heat as heat
import srlab.pde as pde
from srlab.jets import GaussianBump
from srlab.models import get_model
from srlab.suite import HARNACK_KERNEL_POINTS

SHAPE = (41, 41, 33)
BOUNDS = (4.0, 4.0, 2.5)


@pytest.fixture(scope="module")
def solver():
    return pde.HeisenbergHeatSolver(get_model("heisenberg"), BOUNDS, SHAPE, dt=0.01)


@pytest.fixture(scope="module")
def bump():
    return GaussianBump(np.zeros(3), 0.5)


def test_operator_is_symmetric(solver):
    lap = solver.lap.tocsr()
    diff = lap - lap.T
    assert abs(diff).max() == 0.0


@pytest.mark.parametrize("shape", [(5, 5, 5), (5, 9, 7), (37, 37, 31), (51, 51, 41)])
def test_diagonal_operators_equal_their_csr_assembly_bitwise(shape):
    s = pde.HeisenbergHeatSolver(get_model("heisenberg"), (5.5, 5.5, 3.3), shape, dt=0.01)
    a1, a2, lap = pde.grid_operators(s.axes)
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        v = rng.standard_normal(s.system.shape[0])
        for diagonal, csr in ((s.a1, a1), (s.a2, a2), (s.lap, lap), (s.step_op, s.system)):
            assert isinstance(diagonal, sp.dia_matrix)
            assert (diagonal @ v).tobytes() == (csr @ v).tobytes()
    u = rng.standard_normal(s.shape)
    assert s.apply_laplacian(u).tobytes() == (lap @ u.ravel()).reshape(shape).tobytes()
    g = (a1 @ u.ravel()) ** 2 + (a2 @ u.ravel()) ** 2
    assert s.gamma_h(u).tobytes() == g.reshape(shape).tobytes()


def reference_operators(bounds, shape, dt):
    """The solver's operators as the one-expression assembly builds them,
    with every intermediate alive until the end: (name, array) pairs."""
    axes = [np.linspace(-b, b, n) for b, n in zip(bounds, shape)]
    nx, ny, nz = shape
    hx, hy, hz = (ax[1] - ax[0] for ax in axes)
    ix, iy, iz = sp.identity(nx), sp.identity(ny), sp.identity(nz)
    dx = sp.kron(sp.kron(pde._centered_diff(nx, hx), iy), iz)
    dy = sp.kron(sp.kron(ix, pde._centered_diff(ny, hy)), iz)
    dz = sp.kron(sp.kron(ix, iy), pde._centered_diff(nz, hz))
    dxx = sp.kron(sp.kron(pde._second_diff(nx, hx), iy), iz)
    dyy = sp.kron(sp.kron(ix, pde._second_diff(ny, hy)), iz)
    dzz = sp.kron(sp.kron(ix, iy), pde._second_diff(nz, hz))
    ymul = sp.kron(sp.kron(ix, sp.diags(axes[1])), iz)
    xmul = sp.kron(sp.kron(sp.diags(axes[0]), iy), iz)
    a1 = (dx - 0.5 * ymul @ dz).tocsr()
    a2 = (dy + 0.5 * xmul @ dz).tocsr()
    lap = (
        dxx
        + dyy
        + 0.25 * (xmul @ xmul + ymul @ ymul) @ dzz
        - ymul @ dx @ dz
        + xmul @ dy @ dz
    ).tocsr()
    system = (sp.identity(lap.shape[0], format="csr") - 0.5 * dt * lap).tocsr()
    out = []
    for name, csr in (("a1", a1), ("a2", a2), ("lap", lap), ("step_op", system)):
        dia = pde.row_ordered_dia(csr)
        out += [(f"{name}.offsets", dia.offsets), (f"{name}.data", dia.data)]
    return out + [(f"system.{k}", getattr(system, k)) for k in ("data", "indices", "indptr")]


@pytest.mark.parametrize("shape", [(5, 5, 5), (5, 9, 7), (37, 37, 31), (51, 51, 41)])
def test_staged_operators_equal_the_one_expression_assembly_bytewise(shape):
    bounds, dt = (5.5, 5.5, 3.3), 0.01
    ref = reference_operators(bounds, shape, dt)
    s = pde.HeisenbergHeatSolver(get_model("heisenberg"), bounds, shape, dt)
    assert len(ref) == 11
    for name, want in ref:
        owner, attr = name.split(".")
        got = getattr(getattr(s, owner), attr)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_operator_build_peak_stays_near_what_it_keeps():
    # every CSR intermediate is dropped after its last reader; with all of
    # them alive to the end of the build the peak read 1.79 times the kept bytes
    model, bounds = get_model("heisenberg"), (5.5, 5.5, 3.3)
    pde.HeisenbergHeatSolver(model, bounds, (5, 5, 5), 0.01)  # warm the imports
    tracemalloc.start()
    try:
        s = pde.HeisenbergHeatSolver(model, bounds, (37, 37, 31), 0.01)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept > s.system.data.nbytes + s.lap.data.nbytes
    assert peak < 1.3 * kept


@pytest.mark.parametrize("bounds", [(0.0, 4.0, 4.0), (4.0, -4.0, 4.0), (4.0, 4.0, math.inf),
                                    (math.nan, 4.0, 4.0)])
def test_non_positive_or_non_finite_bounds_are_rejected(bounds):
    with pytest.raises(ValueError, match="bounds must be positive and finite"):
        pde.HeisenbergHeatSolver(get_model("heisenberg"), bounds, (5, 5, 5), 0.01)


@pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
def test_non_positive_or_non_finite_dt_is_rejected(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        pde.HeisenbergHeatSolver(get_model("heisenberg"), BOUNDS, (5, 5, 5), dt)


def test_evolve_rejects_no_times_and_negative_or_non_finite_times(solver, bump):
    u0 = solver.sample(bump)
    with pytest.raises(ValueError, match="at least one time"):
        solver.evolve(u0, [])
    for times in ([-0.01], [0.1, -0.1], [math.nan, 0.02], [0.02, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="non-negative and finite"):
            solver.evolve(u0, times)


def test_cg_repeats_scipy_bitwise(solver, bump):
    b = solver.sample(bump).ravel()
    n = len(b)
    cases = [(b, b), (b, np.zeros(n)), (np.zeros(n), b)]
    for rhs, x0 in cases:
        for matvec in (solver.system.dot, solver.step_op.dot):
            ours, theirs = [], []
            x, info = pde.cg(solver.system, rhs, x0, rtol=1e-10, matvec=matvec,
                             callback=lambda xk: ours.append(xk.copy()))
            y, yinfo = scipy_cg(solver.system, rhs, x0=x0, rtol=1e-10, atol=0.0,
                                callback=lambda xk: theirs.append(xk.copy()))
            assert x.tobytes() == y.tobytes()
            assert info == yinfo == 0
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]
    assert len(theirs) == 0  # b = 0 returns at once
    # x0 is read, never written
    x0 = b.copy()
    pde.cg(solver.system, b, x0, rtol=1e-10, matvec=solver.step_op.dot)
    assert x0.tobytes() == b.tobytes()


def test_row_order_guard_rejects_rows_in_opposite_orders():
    # row 1 stores the offsets (-1, 0, 1); row 0 stores (0, 1) as (1, 0)
    data = np.array([2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    indptr = np.array([0, 2, 5, 7])
    good = sp.csr_matrix((data, np.array([0, 1, 0, 1, 2, 1, 2]), indptr), shape=(3, 3))
    v = np.array([0.3, -1.7, 2.9])
    assert (pde.row_ordered_dia(good) @ v).tobytes() == (good @ v).tobytes()
    bad = sp.csr_matrix((data, np.array([1, 0, 0, 1, 2, 1, 2]), indptr), shape=(3, 3))
    with pytest.raises(ValueError, match="diagonal order"):
        pde.row_ordered_dia(bad)
    # an offset that the fullest row does not hold breaks the order too
    wide = sp.csr_matrix((data, np.array([0, 2, 0, 1, 2, 1, 2]), indptr), shape=(3, 3))
    with pytest.raises(ValueError, match="diagonal order"):
        pde.row_ordered_dia(wide)


@pytest.mark.parametrize("shape, axis", [((3, 3, 3), "x"), ((2, 2, 2), "x"), ((9, 4, 9), "y"),
                                         ((9, 9, 1), "z")])
def test_grids_below_five_points_an_axis_are_rejected(shape, axis):
    with pytest.raises(ValueError, match=f"axis {axis} has {min(shape)} grid points"):
        pde.HeisenbergHeatSolver(get_model("heisenberg"), (4.0, 4.0, 4.0), shape, 0.01)


def test_only_heisenberg_supported():
    with pytest.raises(ValueError):
        pde.HeisenbergHeatSolver(get_model("engel"), BOUNDS, (5, 5, 5), 0.01)
    heis = get_model("heisenberg")
    with pytest.raises(ValueError):
        pde.HeisenbergHeatSolver(
            heis.with_frame_metric(np.diag([1.0, 1.0, 4.0])), BOUNDS, (5, 5, 5), 0.01
        )
    # eligibility is structural: a renamed Heisenberg model is accepted
    renamed = dataclasses.replace(heis, name="h3")
    pde.HeisenbergHeatSolver(renamed, BOUNDS, (5, 5, 5), 0.01)


def test_time_zero_field_is_sample(solver, bump):
    u0 = solver.sample(bump)
    fields = solver.evolve(u0, [0.0])
    assert np.array_equal(fields[0].values, u0)


def test_mass_non_increasing(solver, bump):
    u0 = solver.sample(bump)
    fields = solver.evolve(u0, [0.1, 0.3, 0.6])
    ratios = [f.mass_ratio for f in fields]
    assert ratios[0] <= 1.0 + 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_pde_matches_monte_carlo(solver, bump, monkeypatch):
    t = 0.5
    fields = solver.evolve(solver.sample(bump), [t])
    v_pde = float(solver.interpolate(fields[0].values, np.zeros(3)))
    # coarse rerun gives the discretization error scale; its boundary
    # fraction peaks at 1.2e-3, above the default limit
    coarse = pde.HeisenbergHeatSolver(
        get_model("heisenberg"), BOUNDS, (27, 27, 23), dt=0.02
    )
    monkeypatch.setattr(pde, "FLUX_LIMIT", 1e-2)
    coarse_fields = coarse.evolve(coarse.sample(bump), [t])
    v_coarse = float(coarse.interpolate(coarse_fields[0].values, np.zeros(3)))
    err_pde = abs(v_pde - v_coarse)
    est = heat.mc_semigroup(get_model("heisenberg"), bump, np.zeros(3), t, 40000, 100, seed=3)
    assert abs(v_pde - est.value) <= 3.0 * est.std_error + 1.5 * err_pde


def test_kernel_symmetry(solver):
    x = np.array([0.5, 0.0, 0.0])
    y = np.zeros(3)
    k1 = pde.heat_kernel(solver, x, y, 0.4)[0]
    k2 = pde.heat_kernel(solver, y, x, 0.4)[0]
    assert k1.value == pytest.approx(k2.value, rel=0.05)


def test_kernel_mass_sub_markov():
    m = get_model("heisenberg")
    solver = pde.HeisenbergHeatSolver(m, BOUNDS, SHAPE, dt=0.01)
    u0 = pde.kernel_source(solver, np.zeros(3))
    assert solver.mass(u0) == pytest.approx(1.0, rel=1e-12)
    fields = solver.evolve(u0, [0.5])
    assert solver.mass(fields[0].values) <= 1.0 + 1e-9


def test_truncation_escalates():
    m = get_model("heisenberg")
    tight = pde.HeisenbergHeatSolver(m, (1.5, 1.5, 1.5), (21, 21, 21), dt=0.01)
    u0 = tight.sample(GaussianBump(np.zeros(3), 0.5))
    with pytest.raises(pde.TruncationError):
        tight.evolve(u0, [1.0])


def test_truncation_does_not_depend_on_requested_times():
    m = get_model("heisenberg")
    tight = pde.HeisenbergHeatSolver(m, (1.5, 1.5, 1.5), (21, 21, 21), dt=0.01)
    u0 = tight.sample(GaussianBump(np.zeros(3), 0.5))
    messages = []
    for times in ([1.0], [0.01 * k for k in range(1, 101)]):
        with pytest.raises(pde.TruncationError) as err:
            tight.evolve(u0, times)
        messages.append(str(err.value))
    assert messages[0] == messages[1]  # the same first offending step
    assert "t=1;" not in messages[0]


def test_snapshots_are_read_only(solver, bump):
    field = solver.evolve(solver.sample(bump), [0.0, 0.01])[1]
    with pytest.raises(ValueError):
        field.values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        field.values += 1.0


def test_times_must_align_with_dt(solver, bump):
    with pytest.raises(ValueError):
        solver.evolve(solver.sample(bump), [0.005])


def test_interpolation_matches_grid_nodes(solver, bump):
    u0 = solver.sample(bump)
    pt = np.array([solver.axes[0][12], solver.axes[1][20], solver.axes[2][5]])
    assert solver.interpolate(u0, pt) == pytest.approx(u0[12, 20, 5], rel=1e-12)


def test_interpolation_accepts_faces_and_rejects_points_outside(solver, bump):
    u0 = solver.sample(bump)
    lower = np.array([ax[0] for ax in solver.axes])
    upper = np.array([ax[-1] for ax in solver.axes])
    assert solver.interpolate(u0, lower) == u0[0, 0, 0]
    assert solver.interpolate(u0, upper) == u0[-1, -1, -1]
    face = np.array([upper[0], 0.3, -0.2])
    assert np.isfinite(solver.interpolate(u0, face))
    outside = upper.copy()
    outside[2] = np.nextafter(upper[2], np.inf)
    for bad in (outside, -outside, np.array([0.0, np.nan, 0.0])):
        with pytest.raises(ValueError):
            solver.interpolate(u0, np.vstack([np.zeros(3), bad]))


def test_reading_route_equals_forward_kernel_sources():
    # the step matrix is symmetric, so one evolution of the origin reading
    # reads P_t phi(0) for every source phi: the harnack-kernel route
    # against one forward evolution per source
    s = pde.HeisenbergHeatSolver(get_model("heisenberg"), (6.0, 6.0, 4.0), (29, 29, 25), dt=0.04)
    assert (s.system != s.system.T).nnz == 0
    u = s.sample(GaussianBump(np.zeros(3), 0.5))
    for x in np.random.default_rng(7).uniform(-1.0, 1.0, (5, 3)):  # off the grid nodes
        w, value = s.reading(x), s.interpolate(u, x)
        assert w.shape == s.shape and np.count_nonzero(w) == 8
        assert abs((w * u).sum() - value) <= 1e-15 * value
    with pytest.raises(ValueError):
        s.reading(np.array([0.0, 0.0, np.nextafter(4.0, np.inf)]))
    times = [0.4, 0.8]
    reading = s.evolve(s.reading(np.zeros(3)), times)
    for y in HARNACK_KERNEL_POINTS:
        phi = pde.kernel_source(s, np.array(y))
        for fwd, rd in zip(s.evolve(phi, times), reading):
            forward = s.interpolate(fwd.values, np.zeros(3))
            assert abs((phi * rd.values).sum() - forward) <= 1e-8 * forward


def test_kernel_at_two_times_equals_separate_evolutions(solver):
    x, y = np.zeros(3), np.array([0.5, 0.2, 0.0])
    both = pde.heat_kernel(solver, x, y, [0.2, 0.4])
    apart = [pde.heat_kernel(solver, x, y, [t])[0] for t in (0.2, 0.4)]
    assert [(k.t, k.value, k.mass_ratio) for k in both] == [
        (k.t, k.value, k.mass_ratio) for k in apart
    ]


def test_gamma_h_of_field_matches_analytic(solver):
    # for f = x the frame gradient has Gamma^h = 1 identically
    class _X:
        def eval(self, pts):
            return np.asarray(pts)[..., 0]

    u = solver.sample(_X())
    g = solver.gamma_h(u)
    inner = g[2:-2, 2:-2, 2:-2]
    assert np.allclose(inner, 1.0, atol=1e-10)


def _levy_integrand(s: float, r2t: float) -> float:
    """(s / sinh s) exp(-r2t s coth s), through exp(-2s) so large s cannot overflow."""
    if s < 1e-8:
        return math.exp(-r2t)
    q = -math.expm1(-2.0 * s)  # 1 - exp(-2s)
    return 2.0 * s * math.exp(-s) / q * math.exp(-r2t * s * (2.0 - q) / q)


def heisenberg_kernel(points, t: float) -> np.ndarray:
    """Exact heat kernel p_t(0 -> p) of L/2 on the Heisenberg group.

    Levy's area formula (Levy 1951; Gaveau, Acta Math. 139 (1977)) in
    the solver's conventions X = d_x - y/2 d_z, Y = d_y + x/2 d_z:

        p_t(x, y, z) = 1/(2 pi^2 t) int_0^inf cos(lam z) (lam t/2) / sinh(lam t/2)
                       exp(-(x^2 + y^2)/(2t) (lam t/2) coth(lam t/2)) d lam,

    integrated by `scipy.integrate.quad` in s = lam t/2.  The kernel
    depends on x^2 + y^2 and |z| only, so each distinct pair is
    integrated once.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    keys, inverse = np.unique(
        np.stack([r2, np.abs(pts[:, 2])], axis=1), axis=0, return_inverse=True
    )
    vals = np.array(
        [
            quad(_levy_integrand, 0.0, np.inf, args=(a / (2.0 * t),), weight="cos",
                 wvar=2.0 * z / t)[0]
            for a, z in keys
        ]
    )
    return vals[inverse.ravel()] / (math.pi**2 * t**2)


def test_heisenberg_kernel_on_diagonal():
    for t in (0.3, 1.0):
        assert heisenberg_kernel(np.zeros(3), t)[0] == pytest.approx(
            1.0 / (4.0 * t * t), rel=1e-10
        )


def test_heisenberg_kernel_mass_and_vertical_variance():
    # the Levy area z has variance t^2/4; a coarse 25^3 grid holds the mass
    t = 1.0
    axes = [np.linspace(-b, b, 25) for b in (5.0, 5.0, 4.0)]
    cell = np.prod([ax[1] - ax[0] for ax in axes])
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    p = heisenberg_kernel(pts, t)
    assert p.min() >= 0.0
    assert p.sum() * cell == pytest.approx(1.0, abs=2e-3)
    assert (p * pts[:, 2] ** 2).sum() * cell == pytest.approx(t * t / 4.0, rel=2e-3)
