"""Pointwise form calculus: hand-derived values and identity sweeps.

Frozen expected values come from direct differentiation in the
Heisenberg chart: A1 = dx - y/2 dz and A2 = dy + x/2 dz give
A1 z = -y/2, A2 z = x/2, hence Gamma^h(z) = (x^2 + y^2)/4,
Gamma^v(z) = 1, L z = 0 and Gamma2^h(z) = L((x^2+y^2)/4)/2 = 1/2.
"""

import numpy as np
import pytest

import srlab.calculus as calc
from srlab import geometry
from srlab.frames import get_calc
from srlab.jets import Constant, Coordinate, Polynomial, ShiftedSquare, get_space, lift_polynomials
from srlab.models import build_abelian, get_model, validate

HEIS_CONSTANTS = (2, 0.0, 0.5, 0.0)


@pytest.fixture(scope="module")
def heis():
    return get_model("heisenberg")


def test_sublaplacian_hand_values(heis):
    x2 = Polynomial.monomial(3, (2, 0, 0))
    z = Coordinate(3, 2)
    pt = np.array([0.4, 0.7, -0.3])
    assert calc.sublaplacian(heis, x2, pt) == pytest.approx(2.0)
    assert calc.sublaplacian(heis, z, pt) == pytest.approx(0.0, abs=1e-14)
    assert calc.sublaplacian(heis, Constant(3, 9.0), pt) == 0.0


def test_gamma_hand_values(heis):
    z = Coordinate(3, 2)
    x = Coordinate(3, 0)
    pt = np.array([0.8, -0.6, 0.1])
    assert calc.gamma(heis, z, None, pt, "h") == pytest.approx((0.8**2 + 0.6**2) / 4)
    assert calc.gamma(heis, z, None, pt, "v") == pytest.approx(1.0)
    assert calc.gamma(heis, x, None, pt, "h") == pytest.approx(1.0)
    assert calc.gamma(heis, x, None, pt, "v") == 0.0
    # bilinearity against a constant
    assert calc.gamma(heis, z, Constant(3, 5.0), pt, "h") == 0.0


def test_gamma2_hand_values(heis):
    z = Coordinate(3, 2)
    x = Coordinate(3, 0)
    origin = np.zeros(3)
    assert calc.gamma2(heis, z, origin, "h") == pytest.approx(0.5)
    assert calc.gamma2(heis, z, origin, "v") == pytest.approx(0.0, abs=1e-14)
    assert calc.gamma2(heis, x, origin, "h") == pytest.approx(0.0, abs=1e-14)
    mixed = calc.gamma2(heis, z, origin, "mixed", l=2.5)
    assert mixed == pytest.approx(0.5)


def test_gamma2_abelian_linear_vanishes():
    m = build_abelian(2, 1)
    f = Coordinate(3, 0)
    assert calc.gamma2(m, f, np.array([0.3, 0.1, 0.9]), "h") == 0.0


def test_gamma2_requires_order(heis):
    j = Coordinate(3, 2).lift(np.zeros(3), 2)
    with pytest.raises(ValueError):
        calc.gamma2(heis, j, np.zeros(3), "h")
    with pytest.raises(ValueError):
        calc.gamma2(heis, Coordinate(3, 2), np.zeros(3), "mixed")  # missing l


def test_cd_residual_sharpness_witness(heis):
    z = Coordinate(3, 2)
    for l in np.logspace(-1, 1, 9):
        res = calc.cd_residual(heis, z, np.zeros(3), l, HEIS_CONSTANTS)
        assert abs(res) <= 1e-12


def test_cd_residual_hand_case(heis):
    x = Coordinate(3, 0)
    res = calc.cd_residual(heis, x, np.zeros(3), 1.0, HEIS_CONSTANTS)
    assert res == pytest.approx(1.0)
    assert calc.cd_residual(heis, Constant(3, 3.0), np.zeros(3), 1.0, HEIS_CONSTANTS) == 0.0
    with pytest.raises(ValueError):
        calc.cd_residual(heis, x, np.zeros(3), 0.0, HEIS_CONSTANTS)


def test_cd_residual_scaling_covariance(heis):
    rng = np.random.default_rng(23)
    f = Polynomial.random(3, 4, rng)
    lam = 3.7
    scaled = Polynomial(3, 4, lam * f.coefficients)
    x = rng.uniform(-1, 1, 3)
    r1 = calc.cd_residual(heis, f, x, 0.7, HEIS_CONSTANTS)
    r2 = calc.cd_residual(heis, scaled, x, 0.7, HEIS_CONSTANTS)
    assert r2 == pytest.approx(lam**2 * r1, rel=1e-10)


def test_cd_sweep_nonnegative_small(heis):
    res, scale = calc.cd_residual_sweep(
        heis, HEIS_CONSTANTS, 200, 10, np.logspace(-1, 1, 9), seed=5
    )
    assert (res / scale).min() >= -1e-9


def test_qform_oracle_equivalence():
    rng = np.random.default_rng(31)
    for name in ("heisenberg", "su2-pair", "engel"):
        m = get_model(name)
        for _ in range(5):
            f = Polynomial.random(m.dim, 4, rng)
            x = rng.uniform(-0.3, 0.3, m.dim)
            r, scale = calc.qform_oracle_residual(m, f, x)
            assert r <= 1e-10 * scale


def test_double_gamma_hand_cases(heis):
    res = calc.double_gamma_residuals(heis, Constant(3, 2.0), np.zeros(3), 1.0, 1.0)
    assert res == (0.0, 0.0)
    z = Coordinate(3, 2)
    _, second = calc.double_gamma_residuals(heis, z, np.zeros(3), 1.0, 1.0)
    assert second == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        calc.double_gamma_residuals(heis, z, np.zeros(3), -1.0, 1.0)


def test_double_gamma_sweep_nonnegative(heis):
    first, second, scale = calc.double_gamma_sweep(heis, 100, 20, l=1.0, c=1.0, seed=9)
    assert (first / scale).min() >= -1e-9
    assert (second / scale).min() >= -1e-9


def test_condb_zero_on_parallel_models():
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        m = get_model(name)
        res, scale = calc.condb_sweep(m, 60, seed=13)
        assert (res / scale).max() <= 1e-12, name
    # constants commute with everything
    m = get_model("heisenberg")
    assert calc.condb_residual(m, Constant(3, 1.0), np.zeros(3)) == 0.0


def test_condb_violated_on_engel():
    m = get_model("engel")
    res, _ = calc.condb_sweep(m, 200, seed=13)
    assert (res > 1e-6).mean() >= 0.1
    # the monomial x3 x4 is a concrete witness in this chart
    f = Polynomial.monomial(4, (0, 0, 1, 1))
    vals = [
        calc.condb_residual(m, f, x)
        for x in np.random.default_rng(2).uniform(-1, 1, (20, 4))
    ]
    assert max(vals) > 1e-6


def test_commutation_residuals():
    rng = np.random.default_rng(8)
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        m = get_model(name)
        res, scale = calc.commutation_sweep(m, 20, 5, seed=21)
        assert (res / scale).max() <= 1e-9, name
    flat = build_abelian(2, 1)
    f = Polynomial.random(3, 4, rng)
    assert calc.commutation_residual(flat, f, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    assert calc.commutation_residual(get_model("heisenberg"), Constant(3, 1.0), np.zeros(3)) == 0.0


def test_commutation_requires_order4(heis):
    j = Coordinate(3, 0).lift(np.zeros(3), 3)
    with pytest.raises(ValueError):
        calc.commutation_residual(heis, j, np.zeros(3))


def test_log_identities_exact(heis):
    rng = np.random.default_rng(4)
    f = ShiftedSquare(Polynomial.random(3, 3, rng), 0.7)
    r1, r2 = calc.log_identity_residuals(heis, f, np.array([0.2, 0.1, -0.3]))
    assert r1 <= 1e-11
    assert r2 <= 1e-11


def _shared_draws(m, n_functions, n_points, degree, seed):
    """The draws of the cd, double-gamma and commutation sweeps, from their seed."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (n_functions, get_space(m.dim, degree).terms(degree)))
    return calc.random_points(m, n_points, rng), coeffs


@pytest.mark.parametrize("name", ["heisenberg", "free-nilpotent-3", "engel", "su2-pair"])
def test_sweeps_match_scalar_api(name):
    """Every sweep entry equals the scalar function on its (function, point)."""
    m = get_model(name)
    tol = 1e-13

    def close(a, b, scale):
        assert np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol * scale), name

    if validate(m).step == 2:
        work, consts = geometry.normalize_vertical(m), geometry.assemble_constants(m)
        grid = np.logspace(-1.0, 1.0, 3)
        res, scale = calc.cd_residual_sweep(work, consts, 4, 2, grid, seed=1)
        points, coeffs = _shared_draws(work, 4, 2, 4, seed=1)
        for p, x in enumerate(points):
            for i, cf in enumerate(coeffs):
                for k, l in enumerate(grid):
                    one = calc.cd_residual(work, Polynomial(m.dim, 4, cf), x, l, consts)
                    close(res[p, i, k], one, scale[p, i, k])

    # both routes derive (rho_H, M_HV) from the model; engel and su2-pair
    # keep a nonzero one in the first bound
    rho_h, m_hv = calc._double_gamma_inputs(m)
    assert (rho_h, m_hv) == pytest.approx(
        {"engel": (0.0, 0.5), "su2-pair": (4.0, 0.0)}.get(name, (0.0, 0.0)), abs=1e-12
    )
    first, second, scale = calc.double_gamma_sweep(m, 4, 2, 1.0, 2.0, seed=2)
    points, coeffs = _shared_draws(m, 4, 2, 3, seed=2)
    for p, x in enumerate(points):
        for i, cf in enumerate(coeffs):
            one = calc.double_gamma_residuals(m, Polynomial(m.dim, 3, cf), x, 1.0, 2.0)
            close(first[p, i], one[0], scale[p, i])
            close(second[p, i], one[1], scale[p, i])

    res, scale = calc.commutation_sweep(m, 4, 2, seed=3)
    points, coeffs = _shared_draws(m, 4, 2, 4, seed=3)
    for p, x in enumerate(points):
        for i, cf in enumerate(coeffs):
            one = calc.commutation_residual(m, Polynomial(m.dim, 4, cf), x)
            close(res[p, i], one, scale[p, i])

    # condition B draws 50 functions per point, after all the points;
    # 60 samples take two points and the first 10 functions of the second
    res, scale = calc.condb_sweep(m, 60, seed=4)
    assert res.shape == scale.shape == (60,)
    rng = np.random.default_rng(4)
    points = calc.random_points(m, 2, rng)
    n_terms = get_space(m.dim, 4).terms(4)
    for p, x in enumerate(points):
        for i, cf in enumerate(rng.uniform(-1.0, 1.0, (50, n_terms))[: 60 - 50 * p]):
            one = calc.condb_residual(m, Polynomial(m.dim, 4, cf), x)
            close(res[50 * p + i], one, scale[50 * p + i])


STEP2 = ["heisenberg", "free-nilpotent-3", "su2-pair"]


@pytest.mark.parametrize("name", STEP2)
def test_cd_forms_match_jet_values(name):
    """c^T Q c on the 2-jet of a quartic equals the jet pipeline's value."""
    m = get_model(name)
    rng = np.random.default_rng(41)
    coeffs = rng.uniform(-1.0, 1.0, (200, get_space(m.dim, 4).terms(4)))
    for x in calc.random_points(m, 3, rng):
        forms = calc.cd_forms(m, x)
        j = lift_polynomials(coeffs, 4, x, calc.DEFAULT_ORDER)
        want = calc._core_values(get_calc(m, x, calc.DEFAULT_ORDER), j)
        c = j.coeffs[:, 1 : len(forms["L"]) + 1]  # degrees 1 and 2
        got = {"L": c @ forms["L"]}
        for key in ("Gh", "Gv", "G2h", "G2v"):
            assert np.array_equal(forms[key], forms[key].T), (name, key)
            got[key] = np.einsum("fa,ab,fb->f", c, forms[key], c)
        assert set(got) == set(want)
        for key, value in want.items():
            assert np.all(np.abs(got[key] - value) <= 1e-13 * (1.0 + np.abs(value))), (name, key)


@pytest.mark.parametrize(
    "name, inertia", [("heisenberg", (4, 5)), ("free-nilpotent-3", (14, 13)), ("su2-pair", (14, 13))]
)
def test_cd_form_inertia_is_left_invariant(name, inertia):
    """Q(x, l=1) has the same inertia at every point as at the identity.

    Left translation carries the forms at the identity to those at x,
    so (positive, zero) eigenvalue counts may not depend on x.  Measured
    gap at these points: the zero eigenvalues stay below 4.1e-14 of the
    largest one in size, the positive ones above 0.15 of it.
    """
    m = get_model(name)
    work, consts = geometry.normalize_vertical(m), geometry.assemble_constants(m)
    n, rho1, rho20, rho21 = geometry.constants_tuple(consts)
    rng = np.random.default_rng(43)
    for x in np.vstack([np.zeros(m.dim), calc.random_points(work, 7, rng)]):
        f = calc.cd_forms(work, x)
        q = (f["G2h"] + f["G2v"] - np.outer(f["L"], f["L"]) / n
             - (rho1 - 1.0) * f["Gh"] - (rho20 + rho21) * f["Gv"])
        ev = np.linalg.eigvalsh(q)
        zero = 1e-9 * np.abs(ev).max()
        assert ((ev > zero).sum(), (np.abs(ev) <= zero).sum()) == inertia, (name, x)
