"""Frame-field oracles: the chart must reproduce the algebra.

The bracket-consistency sweep is the main oracle validating the chart
coefficients (a quadratic in ad_u on nilpotent models, a closed form
per su(2) ideal on su2-pair) against the structure constants, and the
group-translation finite differences validate both against the
composition law.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from srlab import algebra, calculus, frames, geometry
from srlab.jets import Jet, JetSpace, Polynomial, coordinate_jet, get_space, lift_polynomials
from srlab.models import MODEL_BUILDERS, LieModel, get_model, validate

MODELS = ("heisenberg", "free-nilpotent-3", "engel", "su2-pair")


def test_heisenberg_chart_fields():
    m = get_model("heisenberg")
    x = np.array([0.7, -1.3, 0.4])
    chart = frames.chart_field_jets(m, x, 2)
    # A1 = d/dx - y/2 d/dz
    assert chart.value[0, 0] == 1.0
    assert chart.value[1, 0] == 0.0
    assert chart.value[2, 0] == pytest.approx(-x[1] / 2)
    # A2 = d/dy + x/2 d/dz
    assert chart.value[2, 1] == pytest.approx(x[0] / 2)
    # V = d/dz
    assert chart.value[2, 2] == 1.0
    assert chart.value[0, 2] == 0.0


def test_engel_chart_fields():
    # quadratic chart: E2 = d2 + x1/2 d3 + x1^2/12 d4
    m = get_model("engel")
    x = np.array([0.8, 0.3, -0.2, 0.5])
    chart = frames.chart_field_jets(m, x, 2)
    assert chart.value[1, 1] == 1.0
    assert chart.value[2, 1] == pytest.approx(x[0] / 2)
    assert chart.value[3, 1] == pytest.approx(x[0] ** 2 / 12)
    # E1 = d1 - x2/2 d3 - (x3/2 + x1 x2 / 12) d4
    assert chart.value[2, 0] == pytest.approx(-x[1] / 2)
    assert chart.value[3, 0] == pytest.approx(-x[2] / 2 - x[0] * x[1] / 12)


@pytest.mark.parametrize("name", MODELS)
def test_chart_values_match_numeric_frame(name):
    """The jet chart's values equal the matrices of the numeric route."""
    m = get_model(name)
    rng = np.random.default_rng(23)
    for x in rng.uniform(-0.3, 0.3, (5, m.dim)):
        chart = frames.chart_field_jets(m, x, 3)
        numeric = algebra.frame_coefficients(m.onframe, x)
        np.testing.assert_allclose(chart.value, numeric, rtol=0, atol=1e-14)


def test_apply_field_hand_values():
    m = get_model("heisenberg")
    z = Polynomial.coordinate(3, 2)
    j = z.lift(np.zeros(3), 4)
    calc = frames.get_calc(m, j.base_point, j.order)
    a1z = calc.apply(0, j)
    # A1 z = -y/2
    assert a1z.value == 0.0
    sp = a1z.space
    assert a1z.coeffs[sp.index[(0, 1, 0)]] == pytest.approx(-0.5)
    a2z = calc.apply(1, j)
    assert a2z.coeffs[sp.index[(1, 0, 0)]] == pytest.approx(0.5)
    vz = calc.apply(2, j)
    assert vz.value == 1.0
    assert np.all(vz.coeffs[1:] == 0.0)


@pytest.mark.parametrize("name", MODELS)
def test_bracket_consistency_oracle(name):
    """(E_i E_j - E_j E_i) f = sum_k c^k_ij E_k f at the base point."""
    m = get_model(name)
    rng = np.random.default_rng(42)
    c = m.onframe.c
    for _ in range(4):
        f = Polynomial.random(m.dim, 4, rng)
        x = rng.uniform(-0.3, 0.3, m.dim)
        j = f.lift(x, 4)
        calc = frames.get_calc(m, x, 4)
        fields = [calc.apply(a, j) for a in range(m.dim)]
        for i in range(m.dim):
            for jdx in range(i + 1, m.dim):
                lhs = calc.apply(i, fields[jdx]).value - calc.apply(jdx, fields[i]).value
                rhs = sum(c[k, i, jdx] * fields[k].value for k in range(m.dim))
                scale = 1.0 + abs(lhs) + abs(rhs)
                assert abs(lhs - rhs) <= 1e-10 * scale, (name, i, jdx)


@pytest.mark.parametrize("name", MODELS)
def test_finite_difference_oracle(name):
    """(E_i f)(x) matches central differences of t -> f(x exp(t E_i))."""
    m = get_model(name)
    rng = np.random.default_rng(7)
    f = Polynomial.random(m.dim, 3, rng)
    x = rng.uniform(-0.3, 0.3, m.dim)
    j = f.lift(x, 4)
    calc = frames.get_calc(m, x, 4)
    for i in range(m.dim):
        exact = calc.apply(i, j).value
        fd = frames.fd_frame_derivative(m, f, x, i, h=1e-5)
        assert abs(exact - fd) <= 1e-7, (name, i)


@pytest.mark.parametrize("name", MODELS)
def test_frame_gradients_match_jets(name):
    m = get_model(name)
    rng = np.random.default_rng(11)
    f = Polynomial.random(m.dim, 3, rng)
    pts = rng.uniform(-0.3, 0.3, (6, m.dim))
    grads = frames.frame_gradients(m, f, pts)
    for p, x in enumerate(pts):
        calc = frames.get_calc(m, x, 4)
        j = f.lift(x, 4)
        for a in range(m.dim):
            assert grads[p, a] == pytest.approx(calc.apply(a, j).value, rel=1e-9, abs=1e-11)


def test_leibniz_rule_through_fields():
    m = get_model("su2-pair")
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.3, 0.3, 6)
    f = Polynomial.random(6, 2, rng).lift(x, 4)
    g = Polynomial.random(6, 2, rng).lift(x, 4)
    calc = frames.get_calc(m, x, 4)
    for i in (0, 2, 4):
        lhs = calc.apply(i, f * g)
        rhs = calc.apply(i, f) * g + f * calc.apply(i, g)
        scale = 1.0 + np.max(np.abs(lhs.coeffs)) + np.max(np.abs(rhs.coeffs))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_apply_field_order_exhausted():
    m = get_model("heisenberg")
    j = Polynomial.coordinate(3, 0).lift(np.zeros(3), 0)
    with pytest.raises(ValueError):
        frames.get_calc(m, j.base_point, j.order).apply(0, j)


def test_su2_chart_rejects_far_points():
    m = get_model("su2-pair")
    with pytest.raises(ValueError):
        frames.chart_field_jets(m, np.full(6, 2.0), 3)


def corner_of_expm(ad):
    """G = (1 - e^(-ad)) / ad, the inverse of the frame F, as the corner of expm([[-ad, I], [0, 0]])."""
    d = ad.shape[-1]
    block = np.zeros(ad.shape[:-2] + (2 * d, 2 * d))
    block[..., :d, :d] = -ad
    block[..., :d, d:] = np.eye(d)
    return np.array([expm(b)[:d, d:] for b in block.reshape(-1, 2 * d, 2 * d)])


def su2_point(norm, seed):
    """A seeded su2-pair point whose ad has infinity norm `norm`."""
    m = get_model("su2-pair")
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, 6)
    return norm * v / np.linalg.norm(algebra.ad_matrix(m.onframe.c, v), ord=np.inf)


def block_angles(x):
    m = get_model("su2-pair")
    _, _, s = algebra._ideal_parts(m.onframe, x)
    return np.sqrt(s.ravel())


def test_su2_frame_matches_the_expm_corner():
    # block angles from 0.2 up to 6, near the chart's limit 2 pi, where G
    # is nearly singular
    m = get_model("su2-pair")
    x = np.array([su2_point(norm, seed) for seed in range(8) for norm in (1.0, 4.0, 9.0)])
    x *= 6.0 / np.max(block_angles(x))
    assert np.max(block_angles(x)) == pytest.approx(6.0)
    g = corner_of_expm(algebra.ad_matrix(m.onframe.c, x))
    f = algebra.frame_coefficients(m.onframe, x)
    assert np.max(np.abs(np.linalg.inv(f) - g)) < 1e-13 * np.max(np.abs(g))


def test_su2_chart_is_exact_past_the_old_series_guard():
    # |ad|_inf = 8 (a truncated series guarded |ad|_inf <= 4), every block angle below 2 pi
    m = get_model("su2-pair")
    x = su2_point(8.0, 5)
    assert 4.0 < np.max(block_angles(x)) < 2.0 * np.pi
    chart = frames.chart_field_jets(m, x, 3)
    g = corner_of_expm(algebra.ad_matrix(m.onframe.c, x))[0]
    assert np.max(np.abs(chart.value @ g - np.eye(6))) < 1e-13
    rng = np.random.default_rng(31)
    j = Polynomial.random(6, 4, rng).lift(x, 4)
    calc = frames.FrameCalc(m, x, 4)
    for measure in (calculus._commutation, calculus._condb):
        res, scale = measure(calc, j)
        assert res / scale < 1e-13, measure


def test_su2_jet_identities_hold_to_roundoff_where_the_series_did_not():
    # at |ad|_inf = 3.9, inside the old guard |ad|_inf <= 4, the 30-term
    # chart series left residual/scale 5.4e-12 (commutation) and 2.2e-12
    # (condition-B) on these quartics
    m = get_model("su2-pair")
    x = su2_point(3.9, 3)
    coeffs = np.random.default_rng(33).uniform(-1.0, 1.0, (20, get_space(6, 4).terms(4)))
    calc = frames.FrameCalc(m, x, 4)
    j = lift_polynomials(coeffs, 4, x, 4)
    for measure in (calculus._commutation, calculus._condb):
        res, scale = measure(calc, j)
        assert np.max(res / scale) < 1e-13, measure


# -- the per-point builders against their one-product-at-a-time forms ----


def same_bits(a, b):
    """Equal shapes and bytes, so a -0.0 never stands in for a +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def bernoulli_plus(n):
    """B_0..B_n with B_1 = +1/2, each the rounded exact rational."""
    exact = [Fraction(1)]
    for m in range(1, n + 1):
        exact.append(-sum(math.comb(m + 1, k) * exact[k] for k in range(m)) / (m + 1))
    exact[1] = -exact[1]
    return [float(b) for b in exact]


def reference_series(ad, coeffs):
    """sum_k coeffs[k] ad^k on a (batch of) ad matrices, the powers formed
    by repeated products from the identity: the former numeric series."""
    out = np.zeros_like(ad)
    out[...] = coeffs[0] * np.eye(ad.shape[-1])
    power = np.broadcast_to(np.eye(ad.shape[-1]), ad.shape).copy()
    for a in coeffs[1:]:
        power = power @ ad
        if a != 0.0:
            out = out + a * power
    return out


NILPOTENT = ("heisenberg", "free-nilpotent-2", "free-nilpotent-3", "free-nilpotent-4",
             "engel", "abelian")


def numeric_points(d, rng):
    """2000 points in [-3, 3]^d with zero, -0.0 and purely vertical rows."""
    pts = rng.uniform(-3.0, 3.0, (2000, d))
    pts[0] = 0.0
    pts[1] = -0.0
    pts[2, : d // 2] = 0.0
    pts[3:40, : d // 2] = -0.0
    return pts


@pytest.mark.parametrize(
    "name", NILPOTENT + tuple(f"{n}/normalized" for n in NILPOTENT if n.startswith("free"))
)
def test_numeric_frame_and_ad_equal_the_terminating_series(name):
    # the closed forms I + ad/2 + ad^2/12 and I - ad + ad^2/2 (ad^2 at step 3
    # only) against the Bernoulli and exponential series, term by term to the
    # step; "/normalized" takes the model with its normalized vertical metric
    base, _, normalized = name.partition("/")
    m = get_model(base)
    frame = (geometry.normalize_vertical(m) if normalized else m).onframe
    step = frame.nil_step
    bern = np.array(bernoulli_plus(step))
    fact = np.array([float(math.factorial(k)) for k in range(step + 1)])
    rng = np.random.default_rng(211)
    pts = numeric_points(len(frame.c), rng)
    for batch in (pts, pts[7], pts[:16], pts.reshape(40, 50, -1)):
        ad = algebra.ad_matrix(frame.c, batch)
        assert same_bits(algebra.frame_coefficients(frame, batch), reference_series(ad, bern / fact))
        assert same_bits(algebra.adjoint_inverse(frame, batch), reference_series(-ad, 1.0 / fact))


def reference_chart(m, x, order, terms):
    """The dense chart series to `terms` terms: every product ad[m, l]
    power[l, col] is formed, one jet product call per summand l."""
    c, d = m.onframe.c, m.dim
    sp = get_space(d, order)
    n = sp.terms(order)
    ad = np.zeros((d, d, n))
    for i in range(d):
        ad = ad + c[:, i, :, None] * coordinate_jet(i, x, order).coeffs
    bern = bernoulli_plus(terms)
    out = np.zeros((d, d, n))
    out[np.arange(d), np.arange(d), 0] = 1.0
    power = out
    fact = 1.0
    for k in range(1, terms + 1):
        nxt = np.zeros((d, d, n))
        for l in range(d):
            nxt = nxt + sp.multiply(ad[:, l, None], power[None, l], order)
        power = nxt
        if not power.any():
            break
        fact *= k
        if bern[k] != 0.0:
            out = out + bern[k] / fact * power
    return out


def reference_multiplication_matrix(sp, a, order):
    n = sp.terms(order)
    n_pairs = sp.pairs_at[order + 1]
    m = np.zeros((n, n))
    np.add.at(m, (sp.pair_out[:n_pairs], sp.pair_b[:n_pairs]), a[sp.pair_a[:n_pairs]])
    return m


def reference_sum_op(calc, i, m):
    """E_i as the sum over every j of the scattered (chart_ji *) d/du_j matrices."""
    sp = get_space(calc.model.dim, calc.order)
    n_out, n_in = sp.terms(m - 1), sp.terms(m)
    op = None
    for j in range(calc.model.dim):
        mat = np.zeros((n_out, n_in))
        mat[:, sp.deriv_src[j][:n_out]] = (
            sp.multiplication_matrix(calc._chart.coeffs[j, i, :n_out], m - 1)
            * sp.deriv_coef[j][:n_out]
        )
        op = mat if op is None else op + mat
    return op


def reference_op(calc, i, m):
    """E_i as the sum over j of (chart_ji *) times a dense d/du_j matrix."""
    sp = get_space(calc.model.dim, calc.order)
    n_out, n_in = sp.terms(m - 1), sp.terms(m)
    op = None
    for j in range(calc.model.dim):
        mult = reference_multiplication_matrix(sp, calc._chart.coeffs[j, i, :n_out], m - 1)
        deriv = np.zeros((n_out, n_in))
        deriv[np.arange(n_out), sp.deriv_src[j][:n_out]] = sp.deriv_coef[j][:n_out]
        mat = mult @ deriv
        op = mat if op is None else op + mat
    return op


@pytest.mark.parametrize("name", MODELS + ("free-nilpotent-2",))
def test_chart_jets_equal_the_per_summand_products(name):
    # nilpotent models, equal bytes: the closed form skips only
    # products that are signed zeros, and that must not move a value or
    # the sign of a zero.  su2-pair: the closed form against 40 terms of
    # the series, whose remainder is below 1e-19 at |ad|_inf <= 2
    m = get_model(name)
    rng = np.random.default_rng(101)
    points = np.vstack([np.zeros(m.dim), rng.uniform(-0.4, 0.4, (5, m.dim))])
    nil = m.onframe.nil_step
    if nil is None:
        points = np.vstack([points[:1]] + [su2_point(2.0, seed) for seed in range(5)])
    for x in points:
        for order in (0, 1, 2, 3):
            chart = frames.chart_field_jets(m, x, order)
            if nil is None:
                np.testing.assert_allclose(
                    chart.coeffs, reference_chart(m, x, order, 40), rtol=0, atol=1e-14
                )
            else:
                assert same_bits(chart.coeffs, reference_chart(m, x, order, nil))


@pytest.mark.parametrize(
    "name,batches",
    [
        ("heisenberg", []),
        ("free-nilpotent-3", []),
        ("engel", [2]),
        ("su2-pair", [27, 1, 1, 1, 9] * 2),
    ],
)
def test_chart_series_multiplies_only_the_structural_nonzeros(name, batches, monkeypatch):
    """A FrameCalc(x, 4) build and its chart's jet product calls, each listed
    by the number of jet pairs it multiplies.  Nilpotent models: none below
    step 3, where the chart is I + ad / 2; at step 3 one call for ad^2, over
    the triples (m, l, col) that can be nonzero, where the dense product
    would take d**3.  su2-pair, per su(2) ideal: the square of its 3 x 3
    block, the Horner steps of g(s) and g(s) times the square."""
    seen = []
    multiply = JetSpace.multiply

    def counting(self, a, b, order):
        seen.append(math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])))
        return multiply(self, a, b, order)

    monkeypatch.setattr(JetSpace, "multiply", counting)
    m = get_model(name)
    frames.FrameCalc(m, np.full(m.dim, 0.2), 4)
    assert seen == batches


@pytest.mark.parametrize("name", MODELS)
def test_multiplication_matrix_equals_the_summed_form(name):
    sp = get_space(get_model(name).dim, 4)
    rng = np.random.default_rng(103)
    for order in (0, 1, 2, 3, 4):
        a = rng.uniform(-1.0, 1.0, sp.terms(order))
        a[rng.uniform(size=a.shape) < 0.3] = -0.0
        ref = reference_multiplication_matrix(sp, a, order)
        assert same_bits(sp.multiplication_matrix(a, order), ref)


@pytest.mark.parametrize("name", MODELS)
def test_frame_ops_equal_the_dense_products(name):
    m = get_model(name)
    rng = np.random.default_rng(107)
    for x in rng.uniform(-0.4, 0.4, (2, m.dim)):
        calc = frames.FrameCalc(m, x, 4)
        for i in range(m.dim):
            for order in (1, 2, 3, 4):
                assert same_bits(calc._op(i, order), reference_op(calc, i, order))


@pytest.mark.parametrize("name", MODELS)
def test_frame_ops_equal_the_sum_over_every_component(name):
    # zero chart components are skipped; at the origin most of them are
    m = get_model(name)
    rng = np.random.default_rng(109)
    for x in np.vstack([np.zeros(m.dim), rng.uniform(-0.4, 0.4, (2, m.dim))]):
        calc = frames.FrameCalc(m, x, 4)
        for i in range(m.dim):
            for order in (1, 2, 3, 4):
                assert same_bits(calc._op(i, order), reference_sum_op(calc, i, order))


@pytest.mark.parametrize("name", ["heisenberg", "free-nilpotent-3"])
def test_frame_op_scatter_keeps_signed_zeros_and_exact_cancellations(name):
    """A chart of values in {-1, -1/2, -0, +0, 1/2, 1}, with every entry of
    one field's component along coordinate 0 set to -0.0: the terms are
    exact, so many operator entries sum to an exact zero, and the
    scatter must give the bits of the per-field matrices summed in
    order, +0.0 wherever the terms cancel."""
    m = get_model(name)
    calc = frames.FrameCalc(m, np.full(m.dim, 0.3), 4)
    rng = np.random.default_rng(113)
    coeffs = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], calc._chart.coeffs.shape)
    coeffs[0, 1] = -0.0
    calc._chart = Jet(calc.x, calc._chart.order, coeffs)
    cancelled = 0
    for i in range(m.dim):
        for order in (1, 2, 3, 4):
            op = calc._op(i, order)
            assert same_bits(op, reference_sum_op(calc, i, order))
            assert not np.signbit(op[op == 0.0]).any()
            # entries that some nonzero term reaches but that sum to zero
            keys, j, a, coef = calc._space.frame_keys(order)
            reached = np.bincount(keys, coeffs[j, i, a] != 0.0, minlength=op.size)
            cancelled += np.count_nonzero((reached.reshape(op.shape) > 1) & (op == 0.0))
    assert cancelled > 0


def test_frame_calcs_on_one_space_share_the_scatter_keys():
    m = get_model("free-nilpotent-3")
    sp = get_space(m.dim, 4)
    first = frames.FrameCalc(m, np.full(m.dim, 0.2), 4)
    for i in range(m.dim):
        for order in (1, 2, 3, 4):
            first._op(i, order)
    keys = dict(sp._frame_keys)
    assert sorted(keys) == [1, 2, 3, 4]
    second = frames.FrameCalc(m, np.full(m.dim, -0.3), 4)
    for i in range(m.dim):
        for order in (1, 2, 3, 4):
            second._op(i, order)
    assert second._space is sp
    assert all(sp._frame_keys[order] is keys[order] for order in keys)


@pytest.mark.parametrize("name", MODELS)
def test_laplacians_of_derivative_lists_equal_the_direct_sums(name):
    """L f and the full Laplacian, from the first derivatives their caller
    holds, equal sum_i E_i E_i f formed directly."""
    m = get_model(name)
    h = m.dim_h
    rng = np.random.default_rng(113)
    x = rng.uniform(-0.3, 0.3, m.dim)
    calc = frames.FrameCalc(m, x, 4)
    j = Polynomial.random(m.dim, 4, rng).lift(x, 4)
    grads = calc.horizontal(j) + calc.vertical(j)
    lf = calc.sublaplacian(grads[:h])
    for got, fields in ((lf, range(h)), (calc.full_laplacian(lf, grads), range(m.dim))):
        want = sum(calc.apply(i, calc.apply(i, j)) for i in fields)
        assert np.array_equal(got.coeffs, want.coeffs)


def test_chart_rejects_a_horizontal_frame_with_divergence():
    # the Heisenberg algebra in the frame (X, Y | Z + X): [E1, E2] = E3 - E1
    # and [E2, E3] = E1 - E3, so sum_i c[i, 1, i] = 1 over horizontal i and
    # L = E1^2 + E2^2 - E2, which the MC walk does not simulate; the
    # algebra is unimodular and the model validates
    c = np.zeros((3, 3, 3))
    for k, i, j, v in ((2, 0, 1, 1.0), (0, 0, 1, -1.0), (0, 1, 2, 1.0), (2, 1, 2, -1.0)):
        c[k, i, j], c[k, j, i] = v, -v
    tilted = LieModel("tilted", 2, 1, c, np.eye(3))
    assert validate(tilted).passed
    with pytest.raises(ValueError, match="not divergence-free"):
        frames.FrameCalc(tilted, np.zeros(3), 2)
    for name in MODEL_BUILDERS:
        m = get_model(name)
        # abelian has no curvature for normalize_vertical to scale
        for model in (m,) if name == "abelian" else (m, geometry.normalize_vertical(m)):
            frames.FrameCalc(model, np.full(model.dim, 0.1), 2)
