import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from srlab import algebra, frames
from srlab.models import (
    MODEL_BUILDERS,
    CompositionError,
    DeclaredConstants,
    LieModel,
    _quat_exp,
    _quat_log,
    _quat_mul,
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
    assert (a.name, h.name) == ("free-nilpotent-2", "heisenberg")
    assert a.structure_constants.tobytes() == h.structure_constants.tobytes()
    assert a.frame_metric.tobytes() == h.frame_metric.tobytes()
    for field in ("dim_h", "dim_v", "declared_constants", "su2_factors"):
        assert getattr(a, field) == getattr(h, field), field


# Reference builders: the hand-written tensors and metrics that the
# bracket-list builders replaced, kept to pin them bit for bit.


def _ref_heisenberg():
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    return c, np.eye(3)


def _ref_free_nilpotent(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    d = n + len(pairs)
    c = np.zeros((d, d, d))
    for s, (i, j) in enumerate(pairs):
        c[n + s, i, j] = 1.0
        c[n + s, j, i] = -1.0
    return c, np.eye(d)


def _ref_engel():
    c = np.zeros((4, 4, 4))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    c[3, 0, 2] = 1.0
    c[3, 2, 0] = -1.0
    return c, np.eye(4)


def _ref_su2_pair(rho):
    eps = np.zeros((3, 3, 3))
    for i, j, k, s in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)]:
        eps[k, i, j] = s
        eps[k, j, i] = -s
    c = np.zeros((6, 6, 6))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                e = eps[k, i, j]
                if e == 0.0:
                    continue
                c[k, i, j] += 2.0 * e
                c[3 + k, i, j] += -e
                c[3 + k, i, 3 + j] += e
                c[3 + k, 3 + i, j] += e
                c[3 + k, 3 + i, 3 + j] += e
    gram = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            gram[i, j] = -np.einsum("ab,ba->", eps[:, i, :], eps[:, j, :]) / (4.0 * rho)
    metric = np.zeros((6, 6))
    metric[:3, :3] = gram
    metric[3:, 3:] = gram / (4.0 * rho)
    return c, metric


_REF_BUILDERS = {
    "heisenberg": _ref_heisenberg,
    "free-nilpotent-2": lambda: _ref_free_nilpotent(2),
    "free-nilpotent-3": lambda: _ref_free_nilpotent(3),
    "free-nilpotent-4": lambda: _ref_free_nilpotent(4),
    "engel": _ref_engel,
    "su2-pair": lambda: _ref_su2_pair(1.0),
    "abelian": lambda: (np.zeros((3, 3, 3)), np.eye(3)),
}


def _same_bytes(model, ref):
    c, metric = ref
    return (
        model.structure_constants.tobytes() == c.tobytes()
        and model.frame_metric.tobytes() == metric.tobytes()
    )


def test_registry_builders_match_their_reference_tensors():
    assert set(_REF_BUILDERS) == set(MODEL_BUILDERS)
    for name, ref in _REF_BUILDERS.items():
        assert _same_bytes(get_model(name), ref()), name


@pytest.mark.parametrize("rho", [1e-3, 0.3, 1.0, 2.5, 7.0, 123.456])
def test_su2_pair_matches_its_reference_tensors(rho):
    # the off-diagonal metric entries are -0.0, as the Killing form leaves them
    assert _same_bytes(build_su2_pair(rho), _ref_su2_pair(rho))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_free_nilpotent_matches_its_reference_tensors(n):
    assert _same_bytes(build_free_nilpotent(n), _ref_free_nilpotent(n))


def test_free_nilpotent_rejects_small_n():
    with pytest.raises(ValueError):
        build_free_nilpotent(1)


def test_engel_posts():
    m = build_engel()
    assert m.dim == 4
    assert m.step == 3
    assert validate(m).bracket_generating
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


def _so4_split_model(declared=False):
    """su(2)+su(2) with a step-3 horizontal plane and non-integrable complement.

    declared: whether the model declares its two su(2) factors (L and R).
    """
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
        su2_factors=tinv.reshape(2, 3, 6) if declared else None,
    )


def test_undeclared_non_nilpotent_model_has_no_chart_ad_or_group_law():
    m = _so4_split_model()
    assert m.onframe.nil_step is None
    u = np.full(6, 0.1)
    with pytest.raises(ValueError, match="declared su"):
        frames.chart_field_jets(m, u, 2)
    with pytest.raises(ValueError, match="declared su"):
        algebra.adjoint_inverse(m.onframe, u)
    with pytest.raises(CompositionError):
        m.compose(u, u)


def test_step_four_model_has_no_chart_ad_frame_or_group_law():
    # filiform: [X1, X2] = X3, [X1, X3] = X4, [X1, X4] = X5, where ad_u^3 != 0
    # and the quadratic closed forms in ad_u would drop a term
    c = np.zeros((5, 5, 5))
    for j in (1, 2, 3):
        c[j + 1, 0, j], c[j + 1, j, 0] = 1.0, -1.0
    m = LieModel(name="filiform-5", dim_h=2, dim_v=3, structure_constants=c,
                 frame_metric=np.eye(5))
    assert m.onframe.nil_step == 4
    u = np.full(5, 0.1)
    with pytest.raises(ValueError, match="step <= 3"):
        frames.chart_field_jets(m, u, 2)
    with pytest.raises(ValueError, match="step <= 3"):
        algebra.frame_coefficients(m.onframe, u)
    with pytest.raises(ValueError, match="step <= 3"):
        algebra.adjoint_inverse(m.onframe, u)
    with pytest.raises(ValueError, match="step <= 3"):
        m.compose(u, u)


def test_declared_factors_serve_a_frame_that_mixes_them():
    # the same algebra with its factors declared: Ad, the chart and the
    # group law work, and the horizontal lift, which has no (q, q^2) form
    # here, equals the lift of the padded vector
    m = _so4_split_model(declared=True)
    rng = np.random.default_rng(4)
    u, w = rng.uniform(-0.5, 0.5, (2, 6))
    ad = algebra.ad_matrix(m.onframe.c, u)
    assert np.allclose(algebra.adjoint_inverse(m.onframe, u), expm(-ad), rtol=0.0, atol=1e-14)
    chart = frames.chart_field_jets(m, u, 1)
    assert np.allclose(chart.coeffs[..., 0], algebra.frame_coefficients(m.onframe, u), atol=1e-14)
    assert np.allclose(m.compose(m.compose(u, w), -w), u, rtol=0.0, atol=1e-14)
    v = rng.standard_normal((3, 7))
    padded = np.concatenate([v, np.zeros((3, 7))]).T
    assert np.array_equal(m.lift_horizontal(v), m.lift(padded))


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


def _reference_su2_pair_compose(m, u, w):
    """su2-pair composition on quaternions stored along the last axis,
    through `concatenate` and `cross`: the formula the native
    component-first form replaced, kept as its reference."""

    def qmul(p, q):
        w1, v1 = p[..., :1], p[..., 1:]
        w2, v2 = q[..., :1], q[..., 1:]
        w = w1 * w2 - np.sum(v1 * v2, axis=-1, keepdims=True)
        return np.concatenate([w, w1 * v2 + w2 * v1 + np.cross(v1, v2)], axis=-1)

    def qexp(v):
        theta = np.linalg.norm(v, axis=-1, keepdims=True)
        small = theta < 1e-12
        sinc = np.where(small, 0.5, np.sin(0.5 * theta) / np.where(small, 1.0, theta))
        return np.concatenate([np.cos(0.5 * theta), sinc * v], axis=-1)

    def qlog(q):
        vn = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
        theta = 2.0 * np.arctan2(vn, q[..., :1])
        small = vn < 1e-12
        return np.where(small, 2.0, theta / np.where(small, 1.0, vn)) * q[..., 1:]

    def algebra_pair(x):
        raw = np.einsum("ab,...a->...b", m.onframe.T, x)
        return raw[..., :3] + raw[..., 3:], 2.0 * raw[..., :3]

    u, w = np.broadcast_arrays(u, w)
    (au, bu), (aw, bw) = algebra_pair(u), algebra_pair(w)
    a = qlog(qmul(qexp(au), qexp(aw)))
    rh = 0.5 * qlog(qmul(qexp(bu), qexp(bw)))
    raw = np.concatenate([rh, a - rh], axis=-1)
    return np.einsum("ab,...b->...a", m.onframe.Tinv.T, raw)


@pytest.mark.parametrize("scale", [1e-3, 0.3, 2.0, 10.0])
def test_su2_pair_compose_matches_reference(scale):
    m = get_model("su2-pair")
    rng = np.random.default_rng(3)
    u, w = scale * rng.standard_normal((2, 5000, 6))
    assert np.array_equal(m.compose(u, w), _reference_su2_pair_compose(m, u, w))
    us, ws = u[:4, None], w[None, :5]
    assert np.array_equal(m.compose(us, ws), _reference_su2_pair_compose(m, us, ws))
    assert np.array_equal(m.compose(u[0], w[0]), _reference_su2_pair_compose(m, u[0], w[0]))


def test_su2_pair_native_form_round_trip():
    m = get_model("su2-pair")
    u = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 4, 6))
    g = m.lift(u)
    assert g.shape == (8, 3, 4)
    assert np.allclose(np.sum(g.reshape(4, 2, 3, 4) ** 2, axis=0), 1.0, atol=1e-15)
    assert np.allclose(m.coords(g), u, atol=1e-14)
    assert np.array_equal(m.coords(m.mul(g, m.lift(np.zeros(6)))), m.compose(u, np.zeros(6)))


def test_nilpotent_native_form_is_component_first():
    m = get_model("engel")
    u = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 4, 4))
    g = m.lift(u)
    assert g.shape == (4, 3, 4) and g.flags.c_contiguous
    assert np.array_equal(g, np.moveaxis(u, -1, 0))
    back = m.coords(g)
    assert back.flags.c_contiguous and np.array_equal(back, u)
    # batch axes align from the right: one element times a batch
    assert np.array_equal(m.coords(m.mul(m.lift(u[0, 0]), g)), m.compose(u[0, 0], u))


_LIFT_MODELS = [get_model(name) for name in ("heisenberg", "free-nilpotent-3", "engel")] + [
    build_su2_pair(rho) for rho in (0.3, 1.0, 2.5)
]


@pytest.mark.parametrize("m", _LIFT_MODELS, ids=lambda m: m.name)
def test_lift_horizontal_is_lift_of_the_padded_vector(m):
    n = m.dim_h
    v = 0.8 * np.random.default_rng(6).standard_normal((n, 5, 40))
    padded = np.zeros((5, 40, m.dim))
    padded[..., :n] = np.moveaxis(v, 0, -1)
    got, ref = m.lift_horizontal(v), m.lift(padded)
    assert got.shape == ref.shape
    if m.su2_factors is None:
        assert np.array_equal(got, ref)
        return
    # H_i = (X_i, 2 X_i) and the frame change keeps H in H: the pair (q, q^2).
    # The horizontal blocks of onframe.ideals[1] must be exactly (h, 2 h):
    # if rounding broke that, lift_horizontal would fall back to the
    # generic lift, slower but equal to rounding, and only this would fail
    assert m._square_factor is not None
    assert np.all(m.onframe.T[:n, n:] == 0.0)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-15)
    q, q2 = np.moveaxis(got.reshape((4, 2) + v.shape[1:]), 1, 0)
    assert np.allclose(q2, _quat_mul(q, q), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "q",
    [
        [-1.0, 0.0, 0.0, 0.0],
        [-np.sqrt(1.0 - 1e-26), 1e-13, 0.0, 0.0],
        [-np.sqrt(1.0 - 1e-26), 0.0, -6e-14, 8e-14],
        [np.sqrt(1.0 - 1e-26), 0.0, 1e-13, 0.0],
    ],
)
def test_quat_log_inverts_exp_at_the_cut(q):
    q = np.array(q)
    assert np.allclose(_quat_exp(_quat_log(q)), q, rtol=0.0, atol=1e-15)


def test_su2_pair_compose_keeps_a_full_turn():
    # factor a = exp(2 pi X_1) = -1: the principal log is the full turn
    m = get_model("su2-pair")
    u = np.zeros(6)
    u[3] = 2.0 * np.pi / m.onframe.T[3, 3]
    assert np.allclose(m.compose(u, np.zeros(6)), u, rtol=0.0, atol=1e-14)


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
@example(np.array([0.28125, 0, 0, 0.28125, 0.25, 0.25]),
         np.array([0.28125, 0, 0, 0.296875, 0.25, 0.25]))
def test_su2_pair_compose_matches_adjoint_representation(u, w):
    """exp(ad(u * w)) = exp(ad u) exp(ad w), since Ad(exp u) = exp(ad u).

    Compared in the group, not through logm: with entries within 0.3
    ad(u * w) can still have an eigenvalue beyond i pi (3.1477 i at the
    explicit example), where the principal logarithm changes branch.
    Engel is left out because its degree-3 BCH term lies in the center,
    which ad cannot see; a faithful representation covers it below.
    """
    m = _COMPOSE_MODELS["su2-pair"]

    def Ad(v):
        return expm(algebra.ad_matrix(m.onframe.c, v))

    assert np.allclose(Ad(m.compose(u, w)), Ad(u) @ Ad(w), rtol=0.0, atol=1e-12)


def _engel_representation() -> np.ndarray:
    """4x4 matrices of engel's frame: X1 = E12 + E23 + E34, X2 = E34,
    X3 = [X1, X2] and X4 = [X1, X3]."""
    e = np.eye(4)
    x1 = np.outer(e[0], e[1]) + np.outer(e[1], e[2]) + np.outer(e[2], e[3])
    x2 = np.outer(e[2], e[3])
    x3 = x1 @ x2 - x2 @ x1
    x4 = x1 @ x3 - x3 @ x1
    return np.stack([x1, x2, x3, x4])


def test_engel_compose_matches_a_faithful_representation():
    # the degree-3 BCH term lies in the center, which ad cannot see; a
    # faithful representation sees it.  Its matrices are nilpotent, so
    # exp and log are finite series.
    m = get_model("engel")
    rep = _engel_representation()
    c = m.onframe.c
    for i in range(4):
        for j in range(4):
            bracket = rep[i] @ rep[j] - rep[j] @ rep[i]
            assert np.array_equal(bracket, np.einsum("k,kab->ab", c[:, i, j], rep))
    basis = rep.reshape(4, 16).T
    assert np.linalg.matrix_rank(basis) == 4

    def coords(mat):
        n = mat - np.eye(4)
        log = n - n @ n / 2.0 + n @ n @ n / 3.0
        sol, *_ = np.linalg.lstsq(basis, log.ravel(), rcond=None)
        assert np.allclose(basis @ sol, log.ravel(), rtol=0.0, atol=1e-13)
        return sol

    rng = np.random.default_rng(35)
    u, w = rng.uniform(-1.5, 1.5, (2, 40, 4))
    got = m.compose(u, w)
    for k in range(len(u)):
        expected = coords(expm(np.einsum("i,iab->ab", u[k], rep))
                          @ expm(np.einsum("i,iab->ab", w[k], rep)))
        assert np.allclose(got[k], expected, rtol=0.0, atol=1e-13)


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
