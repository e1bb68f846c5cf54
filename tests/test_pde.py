"""Grid solver checks: structure, conservation, and cross-estimators."""

import dataclasses

import numpy as np
import pytest

import srlab.heat as heat
import srlab.pde as pde
from srlab.jets import GaussianBump
from srlab.models import get_model

SHAPE = (41, 41, 33)
BOUNDS = (4.0, 4.0, 2.5)


@pytest.fixture(scope="module")
def solver():
    return pde.HeisenbergHeatSolver(get_model("heisenberg"), BOUNDS, SHAPE, dt=0.01)


@pytest.fixture(scope="module")
def bump():
    return GaussianBump(np.zeros(3), 0.5)


def test_operator_is_symmetric(solver):
    diff = solver.lap - solver.lap.T
    assert abs(diff).max() == 0.0


def test_only_heisenberg_supported():
    with pytest.raises(ValueError):
        pde.HeisenbergHeatSolver(get_model("engel"))
    heis = get_model("heisenberg")
    with pytest.raises(ValueError):
        pde.HeisenbergHeatSolver(heis.with_frame_metric(np.diag([1.0, 1.0, 4.0])))
    # eligibility is structural: a renamed Heisenberg model is accepted
    renamed = dataclasses.replace(heis, name="h3")
    pde.HeisenbergHeatSolver(renamed, shape=(5, 5, 5))


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


def test_pde_matches_monte_carlo(solver, bump):
    t = 0.5
    fields = solver.evolve(solver.sample(bump), [t])
    v_pde = float(solver.interpolate(fields[0].values, np.zeros(3)))
    # coarse rerun gives the discretization error scale
    coarse = pde.HeisenbergHeatSolver(
        get_model("heisenberg"), BOUNDS, (27, 27, 23), dt=0.02
    )
    coarse_fields = coarse.evolve(coarse.sample(bump), [t], flux_limit=1e-2)
    v_coarse = float(coarse.interpolate(coarse_fields[0].values, np.zeros(3)))
    err_pde = abs(v_pde - v_coarse)
    est = heat.mc_semigroup(get_model("heisenberg"), bump, np.zeros(3), t, 40000, 100, seed=3)
    assert abs(v_pde - est.value) <= 3.0 * est.std_error + 1.5 * err_pde


def test_kernel_symmetry():
    m = get_model("heisenberg")
    x = np.array([0.5, 0.0, 0.0])
    y = np.zeros(3)
    k1 = pde.heat_kernel(m, x, y, 0.4, bounds=BOUNDS, shape=SHAPE, dt=0.01)[0]
    k2 = pde.heat_kernel(m, y, x, 0.4, bounds=BOUNDS, shape=SHAPE, dt=0.01)[0]
    assert k1.value == pytest.approx(k2.value, rel=0.05)


def test_kernel_mass_sub_markov():
    m = get_model("heisenberg")
    solver = pde.HeisenbergHeatSolver(m, BOUNDS, SHAPE, dt=0.01)
    width = 1.5 * max(solver.spacing)
    u0 = solver.sample(GaussianBump(np.zeros(3), width))
    u0 /= solver.mass(u0)
    fields = solver.evolve(u0, [0.5])
    assert solver.mass(fields[0].values) <= 1.0 + 1e-9


def test_truncation_escalates():
    m = get_model("heisenberg")
    tight = pde.HeisenbergHeatSolver(m, (1.5, 1.5, 1.5), (21, 21, 21), dt=0.01)
    u0 = tight.sample(GaussianBump(np.zeros(3), 0.5))
    with pytest.raises(pde.TruncationError):
        tight.evolve(u0, [1.0])


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


def test_kernel_at_two_times_equals_separate_evolutions(solver):
    m = get_model("heisenberg")
    x, y = np.zeros(3), np.array([0.5, 0.2, 0.0])
    both = pde.heat_kernel(m, x, y, [0.2, 0.4], solver=solver)
    apart = [pde.heat_kernel(m, x, y, [t], solver=solver)[0] for t in (0.2, 0.4)]
    assert [(k.t, k.value, k.mass_ratio) for k in both] == [
        (k.t, k.value, k.mass_ratio) for k in apart
    ]


def test_field_csv_dump(tmp_path, solver, bump):
    field = solver.evolve(solver.sample(bump), [0.1])[0]
    out = tmp_path / "field.csv"
    pde.dump_field_csv(solver, field, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,u"
    assert len(lines) == 1 + np.prod(SHAPE)


def test_gamma_h_of_field_matches_analytic(solver):
    # for f = x the frame gradient has Gamma^h = 1 identically
    class _X:
        def eval(self, pts):
            return np.asarray(pts)[..., 0]

    u = solver.sample(_X())
    g = solver.gamma_h(u)
    inner = g[2:-2, 2:-2, 2:-2]
    assert np.allclose(inner, 1.0, atol=1e-10)
