"""Curvature bound pipeline against hand-computed and declared values.

Frozen oracle values: the Heisenberg bracket [A1, A2] = V gives
M_R = m_R = 1 directly from the definition; the free step-2 algebra on
n generators has |R(v, .)|^2 = (n-1)|v|^2 and unit curvature Gram
matrix, so after normalization m_R^2 = 1/(n-1).
"""

import numpy as np
import pytest

import srlab.geometry as geo
from srlab.models import build_abelian, build_free_nilpotent, get_model


def test_curvature_bounds_heisenberg():
    assert geo.curvature_bounds(get_model("heisenberg")) == (1.0, 1.0)


def test_curvature_bounds_abelian():
    m = build_abelian(2, 1)
    assert geo.curvature_bounds(m) == (0.0, 0.0)
    with pytest.raises(ValueError):
        geo.normalize_vertical(m)


def test_curvature_bounds_free_nilpotent_raw():
    m = build_free_nilpotent(3)
    M_R, m_R = geo.curvature_bounds(m)
    assert M_R == pytest.approx(np.sqrt(2.0))
    assert m_R == pytest.approx(1.0)


def test_sphere_search_cross_checks_eigenvalue_route():
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair", "engel"):
        m = get_model(name)
        M_R, _ = geo.curvature_bounds(m)
        assert geo.sphere_max_curvature(m, n_starts=100, iters=300) == pytest.approx(
            M_R, abs=1e-9
        )


def test_normalize_vertical():
    m = build_free_nilpotent(3)
    normed = geo.normalize_vertical(m)
    M_R, m_R = geo.curvature_bounds(normed)
    assert abs(M_R - 1.0) <= 1e-12
    assert m_R == pytest.approx(1.0 / np.sqrt(2.0))
    # idempotent
    again = geo.normalize_vertical(normed)
    assert again == normed
    # doubling the vertical metric first lands on the same model (up to
    # the roundoff of the two eigenvalue routes)
    doubled = m.with_frame_metric(
        np.block(
            [
                [m.frame_metric[:3, :3], np.zeros((3, 3))],
                [np.zeros((3, 3)), 2.0 * m.frame_metric[3:, 3:]],
            ]
        )
    )
    renormed = geo.normalize_vertical(doubled)
    assert renormed.name == normed.name
    assert np.allclose(renormed.frame_metric, normed.frame_metric, atol=1e-14)
    assert np.array_equal(renormed.structure_constants, normed.structure_constants)
    # heisenberg is already normalized
    h = get_model("heisenberg")
    assert np.allclose(geo.normalize_vertical(h).frame_metric, h.frame_metric)


def test_ricci_h_values():
    rho, _ = geo.ricci_h(get_model("heisenberg"))
    assert rho == pytest.approx(0.0, abs=1e-14)
    for rho_param in (0.5, 1.0, 2.0):
        m = get_model("su2-pair") if rho_param == 1.0 else None
        from srlab.models import build_su2_pair

        m = build_su2_pair(rho_param)
        r, full = geo.ricci_h(m)
        assert r == pytest.approx(4.0 * rho_param, rel=1e-12)
        # vanishes on the vertical block
        assert np.max(np.abs(full[3:, :])) <= 1e-12
    assert geo.ricci_h(build_abelian(2, 1))[0] == 0.0


def test_mixed_bounds_vanish_on_parallel_models():
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        m = get_model(name)
        M_HV, M_grad_v, rho_Lv = geo.mixed_bounds(m)
        assert M_HV <= 1e-12
        assert M_grad_v <= 1e-12
        assert abs(rho_Lv) <= 1e-12
    assert geo.mixed_bounds(build_abelian(2, 1)) == (0.0, 0.0, 0.0)


def test_engel_has_nonparallel_vertical_cometric():
    m = get_model("engel")
    _, M_grad_v, _ = geo.mixed_bounds(m)
    assert M_grad_v > 0.1
    _, m_R = geo.curvature_bounds(m)
    assert m_R == 0.0  # step 3


def test_geometry_report_su2_normalization_holds_verbatim():
    # the declared vertical scaling already achieves the normalization
    rep = geo.geometry_report(get_model("su2-pair"))
    assert rep.M_R == pytest.approx(1.0, abs=1e-12)
    assert rep.normalized
    raw = geo.geometry_report(get_model("su2-pair"), normalize=False)
    assert raw.M_R == pytest.approx(1.0, abs=1e-12)


def test_declared_constants_reproduced():
    for name in ("heisenberg", "free-nilpotent-2", "free-nilpotent-3",
                 "free-nilpotent-4", "su2-pair"):
        m = get_model(name)
        c = geo.assemble_constants(m)
        d = m.declared_constants
        assert c.n == d.n
        assert c.rho1 == pytest.approx(d.rho1, abs=1e-9)
        assert c.rho20 == pytest.approx(d.rho20, abs=1e-9)
        assert c.rho21 == pytest.approx(d.rho21, abs=1e-9)


def test_weight_monotonicity():
    rep = geo.GeometryReport("synthetic", 1.0, 0.8, 2.0, 0.3, 0.1, -0.2, True)
    cs = np.logspace(-1, 2, 40)
    rho1 = np.array([geo.rho_constants(rep, c)[0] for c in cs])
    rho20 = np.array([geo.rho_constants(rep, c)[1] for c in cs])
    assert np.all(np.diff(rho1) >= 0)
    assert np.all(np.diff(rho20) <= 0)


def test_alpha_closed_form_matches_search():
    # synthetic geometry with a genuinely interior optimum
    rep = geo.GeometryReport("synthetic", 1.0, 0.9, 3.0, 0.25, 0.0, 0.0, True)
    c_star = geo.resolve_weight(rep, "max_alpha")
    r1, r20, r21 = geo.rho_constants(rep, c_star)
    alpha_search = geo.poincare_alpha(r1, r20, r21)
    alpha_closed = geo.alpha_closed_form(rep)
    assert alpha_search == pytest.approx(alpha_closed, rel=1e-6)


def test_alpha_closed_form_su2():
    for rho in (0.5, 1.0, 3.0):
        from srlab.models import build_su2_pair

        rep = geo.geometry_report(build_su2_pair(rho))
        assert geo.alpha_closed_form(rep) == pytest.approx(0.8 * rho, rel=1e-9)
        c = geo.assemble_constants(build_su2_pair(rho))
        assert c.alpha == pytest.approx(0.8 * rho, rel=1e-9)
        assert c.spectral_gap_bound == pytest.approx(6.0 * rho / 7.0, rel=1e-9)


def test_kappa_sign_consistency():
    rep = geo.geometry_report(get_model("su2-pair"))
    assert geo.kappa_of(rep) > 0
    assert geo.alpha_closed_form(rep) > 0
    flat = geo.geometry_report(get_model("heisenberg"))
    assert geo.kappa_of(flat) == pytest.approx(0.0, abs=1e-12)
    assert geo.alpha_closed_form(flat) == 0.0
    bad = geo.GeometryReport("synthetic", 1.0, 0.5, 0.1, 0.9, 0.0, 0.0, True)
    with pytest.raises(ValueError):
        geo.alpha_closed_form(bad)


def test_dimension_constants_heisenberg():
    N, D = geo.dimension_constants(2, 0.5)
    assert N == pytest.approx(0.5 * (np.sqrt(5) + np.sqrt(3)) ** 2)
    assert N == pytest.approx(7.872983346, abs=1e-8)
    assert D == pytest.approx(np.sqrt(15.0))
    # general n: N = (n/4)(sqrt(4n-3) + sqrt(2n-1))^2, D = sqrt((2n-1)(4n-3))
    for n in (2, 3, 4):
        Nn, Dn = geo.dimension_constants(n, 1.0 / (2 * (n - 1)))
        assert Nn == pytest.approx(0.25 * n * (np.sqrt(4 * n - 3) + np.sqrt(2 * n - 1)) ** 2)
        assert Dn == pytest.approx(np.sqrt((2 * n - 1) * (4 * n - 3)))
    with pytest.raises(ValueError):
        geo.dimension_constants(2, 0.0)


def test_spectral_gap_bound_formula():
    assert geo.spectral_gap_bound(3, 4.0, 0.25, 0.0) == pytest.approx(6.0 / 7.0)
    assert geo.spectral_gap_bound(2, 0.0, 0.5, 0.0) == 0.0
    assert geo.spectral_gap_bound(2, 0.0, -0.5, 0.0) is None


def test_riemann_ricci_comparison():
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        worst = geo.riemann_ricci_compare(get_model(name), 50, seed=3)
        assert worst <= 1e-10, name


def test_constants_empirical_admissibility():
    import srlab.calculus as calc

    for name in ("heisenberg", "su2-pair"):
        m = get_model(name)
        work = geo.normalize_vertical(m)
        consts = geo.assemble_constants(m)
        res, scale = calc.cd_residual_sweep(
            work, consts, 300, 10, np.logspace(-1, 1, 9), seed=77
        )
        assert (res / scale).min() >= -1e-9, name


def test_assemble_constants_objectives():
    m = get_model("su2-pair")
    c_inf = geo.assemble_constants(m, objective="max_alpha")
    assert np.isinf(c_inf.c)
    c_rz = geo.assemble_constants(m, objective="rho1_zero")
    assert c_rz.rho1 == pytest.approx(0.0, abs=1e-12)
    assert c_rz.rho20 == pytest.approx(0.25, abs=1e-12)
    rho1, _, _ = geo.rho_constants(geo.geometry_report(m), 2.0)
    assert rho1 == pytest.approx(4.0 - 0.5)
