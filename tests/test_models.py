import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, logm

from srlab import algebra
from srlab.models import (
    DeclaredConstants,
    LieModel,
    build_abelian,
    build_engel,
    build_free_nilpotent,
    build_heisenberg,
    build_su2_pair,
    get_model,
    validate,
)


def test_heisenberg_structure():
    m = build_heisenberg()
    c = m.structure_constants
    # [A1, A2] = V
    assert c[2, 0, 1] == 1.0
    assert c[2, 1, 0] == -1.0
    assert np.count_nonzero(c) == 2
    assert m.declared_constants == DeclaredConstants(2, 0.0, 0.5, 0.0)
    assert algebra.jacobi_residual(c) == 0.0


def test_free_nilpotent_dimensions():
    for n in (2, 3, 4):
        m = build_free_nilpotent(n)
        assert m.dim == n * (n + 1) // 2
        assert m.declared_constants.rho20 == pytest.approx(1.0 / (2 * (n - 1)))
    assert build_free_nilpotent(4).dim_v == 6


def test_free_nilpotent_two_is_heisenberg():
    a = build_free_nilpotent(2)
    h = build_heisenberg()
    assert np.array_equal(a.structure_constants, h.structure_constants)
    assert np.array_equal(a.frame_metric, h.frame_metric)


def test_free_nilpotent_rejects_small_n():
    with pytest.raises(ValueError):
        build_free_nilpotent(1)


def test_engel_posts():
    m = build_engel()
    assert m.dim == 4
    assert m.step == 3
    assert m.bracket_generating
    assert algebra.jacobi_residual(m.structure_constants) == 0.0
    assert m.declared_constants is None


def test_su2_pair_posts():
    m = build_su2_pair(1.0)
    assert (m.dim_h, m.dim_v) == (3, 3)
    # <X_i, X_j> = delta_ij / (2 rho); bi-invariant form is positive definite
    gram = m.frame_metric[:3, :3]
    assert np.allclose(gram, np.eye(3) / 2.0)
    assert np.allclose(m.frame_metric[3:, 3:], np.eye(3) / 8.0)
    assert m.declared_constants == DeclaredConstants(3, 4.0, 0.25, 0.0)
    assert algebra.jacobi_residual(m.structure_constants) < 1e-12
    with pytest.raises(ValueError):
        build_su2_pair(0.0)


def test_validate_all_shipped_models():
    for name in ("heisenberg", "free-nilpotent-3", "free-nilpotent-4", "engel", "su2-pair"):
        rep = validate(get_model(name))
        assert rep.passed, (name, rep.issues)
        assert rep.jacobi_residual <= 1e-12
        assert rep.antisymmetry_residual == 0.0
        assert rep.metric_preserving
        assert rep.bracket_generating


def test_step2_models_have_integrable_complement():
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        rep = validate(get_model(name))
        assert rep.vertical_integrable
        assert rep.cocurvature_norm == 0.0
        assert rep.trace_zero_ok is None  # vacuous
        assert rep.fully_parallel


def test_engel_metric_preserving_but_not_parallel():
    rep = validate(build_engel())
    assert rep.step == 3
    assert rep.metric_preserving
    assert not rep.vertical_parallel
    assert rep.vertical_integrable


def _so4_split_model():
    """su(2)+su(2) with a step-3 horizontal plane and non-integrable complement."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[k, i, j] = 1.0
        eps[k, j, i] = -1.0
    c6 = np.zeros((6, 6, 6))
    c6[:3, :3, :3] = eps
    c6[3:, 3:, 3:] = eps
    # frame: H = (L1, R1, (L2+R2)/sqrt2), V = (L3, R3, (L2-R2)/sqrt2)
    t = np.zeros((6, 6))
    t[0, 0] = 1.0
    t[1, 3] = 1.0
    t[2, 1] = t[2, 4] = 1 / np.sqrt(2)
    t[3, 2] = 1.0
    t[4, 5] = 1.0
    t[5, 1] = 1 / np.sqrt(2)
    t[5, 4] = -1 / np.sqrt(2)
    tinv = np.linalg.inv(t)
    c = np.einsum("pi,qj,kij,ka->apq", t, t, c6, tinv)
    return LieModel(
        name="so4-split",
        dim_h=3,
        dim_v=3,
        structure_constants=c,
        frame_metric=np.eye(6),
        group="generic",
    )


def test_non_integrable_complement_runs_trace_zero_check():
    rep = validate(_so4_split_model())
    assert not rep.vertical_integrable
    assert rep.cocurvature_norm > 1e-6
    assert rep.trace_zero_residual is not None
    assert np.isfinite(rep.trace_zero_residual)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LieModel("bad", 2, 1, np.zeros((2, 2, 2)), np.eye(3))
    with pytest.raises(ValueError):
        LieModel("bad", 2, 1, np.zeros((3, 3, 3)), np.eye(2))


def test_models_are_immutable():
    m = build_heisenberg()
    with pytest.raises(ValueError):
        m.structure_constants[0, 0, 0] = 1.0
    with pytest.raises(Exception):
        m.dim_h = 5


def test_json_roundtrip():
    for name in ("heisenberg", "engel", "su2-pair", "free-nilpotent-3"):
        m = get_model(name)
        back = LieModel.from_json(m.to_json())
        assert back == m
        assert back.group == m.group


def test_abelian_model_flags():
    m = build_abelian(2, 1)
    rep = validate(m)
    assert not rep.bracket_generating
    assert m.onframe.nil_step == 1


# -- composition ----------------------------------------------------------


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(0)
    for name in ("heisenberg", "engel", "su2-pair"):
        m = get_model(name)
        u = rng.uniform(-0.4, 0.4, m.dim)
        assert np.allclose(m.compose(u, np.zeros(m.dim)), u, atol=1e-14)
        assert np.allclose(m.compose(u, m.inverse(u)), 0.0, atol=1e-12)


def test_compose_associativity():
    rng = np.random.default_rng(1)
    for name in ("heisenberg", "engel", "su2-pair", "free-nilpotent-3"):
        m = get_model(name)
        u, v, w = rng.uniform(-0.3, 0.3, (3, m.dim))
        lhs = m.compose(m.compose(u, v), w)
        rhs = m.compose(u, m.compose(v, w))
        assert np.allclose(lhs, rhs, atol=1e-12), name


def test_compose_batched_matches_loop():
    m = get_model("su2-pair")
    rng = np.random.default_rng(2)
    us = rng.uniform(-0.3, 0.3, (8, 6))
    w = rng.uniform(-0.2, 0.2, 6)
    batch = m.compose(us, w)
    for k in range(8):
        assert np.allclose(batch[k], m.compose(us[k], w), atol=1e-14)
    # BCH composition is exact per batch entry
    for name in ("heisenberg", "engel"):
        m = get_model(name)
        us = rng.uniform(-0.3, 0.3, (8, m.dim))
        ws = rng.uniform(-0.2, 0.2, (8, m.dim))
        batch = m.compose(us, ws)
        shared = m.compose(us, ws[0])
        for k in range(8):
            assert np.array_equal(batch[k], m.compose(us[k], ws[k])), name
            assert np.array_equal(shared[k], m.compose(us[k], ws[0])), name


_COMPOSE_MODELS = {name: get_model(name) for name in ("heisenberg", "engel", "su2-pair",
                                                      "free-nilpotent-3")}


def _coords(dim: int, bound: float):
    return st.lists(st.floats(-bound, bound), min_size=dim, max_size=dim).map(np.array)


@st.composite
def _model_and_points(draw, count):
    name = draw(st.sampled_from(sorted(_COMPOSE_MODELS)))
    m = _COMPOSE_MODELS[name]
    return m, [draw(_coords(m.dim, 0.5)) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(_model_and_points(3))
def test_compose_associativity_property(case):
    m, (u, v, w) = case
    lhs = m.compose(m.compose(u, v), w)
    rhs = m.compose(u, m.compose(v, w))
    assert np.allclose(lhs, rhs, atol=1e-12), m.name


@settings(max_examples=60, deadline=None)
@given(_coords(6, 0.3), _coords(6, 0.3))
def test_su2_pair_compose_matches_adjoint_representation(u, w):
    """ad(u * w) = log(exp(ad u) exp(ad w)), since Ad(exp u) = exp(ad u).

    Entries stay within 0.3: at 0.5 the principal logarithm already
    changes branch.  Engel is left out because its degree-3 BCH term
    lies in the center, which ad cannot see; the associativity
    property above covers it.
    """
    m = _COMPOSE_MODELS["su2-pair"]

    def ad(v):
        return algebra.ad_matrix(m.onframe.c, v)

    via_logm = np.real(logm(expm(ad(u)) @ expm(ad(w))))
    assert np.allclose(ad(m.compose(u, w)), via_logm, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(_model_and_points(1))
def test_compose_with_inverse_is_identity_property(case):
    m, (u,) = case
    assert np.allclose(m.compose(u, m.inverse(u)), 0.0, atol=1e-12), m.name
    assert np.allclose(m.compose(m.inverse(u), u), 0.0, atol=1e-12), m.name


def test_heisenberg_compose_closed_form():
    m = build_heisenberg()
    u = np.array([1.0, 2.0, 0.5])
    w = np.array([-0.3, 0.4, 0.1])
    z = m.compose(u, w)
    assert np.allclose(z[:2], u[:2] + w[:2])
    assert z[2] == pytest.approx(0.6 + 0.5 * (u[0] * w[1] - u[1] * w[0]))
