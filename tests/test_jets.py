import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srlab import jets
from srlab.frames import FrameCalc
from srlab.jets import (
    Jet,
    Polynomial,
    constant_jet,
    coordinate_jet,
    get_space,
    lift_polynomials,
    polynomial_shift_matrix,
)
from srlab.models import get_model


def eval_jet(jet, delta):
    """Evaluate the truncated Taylor polynomial at base_point + delta."""
    sp = jet.space
    exps = sp.exponents[: sp.terms(jet.order)]
    mono = np.prod(np.asarray(delta)[None, :] ** exps, axis=1)
    return float(jet.coeffs @ mono)


def test_monomial_lift_at_origin():
    f = Polynomial.monomial(3, (2, 0, 0))
    j = f.lift(np.zeros(3), 3)
    sp = j.space
    expected = np.zeros(sp.terms(3))
    expected[sp.index[(2, 0, 0)]] = 1.0
    assert np.array_equal(j.coeffs, expected)


def test_constant_lift():
    j = Polynomial.constant(3, 2.5).lift(np.array([1.0, -2.0, 0.5]), 4)
    assert j.coeffs[0] == 2.5
    assert np.all(j.coeffs[1:] == 0.0)


class _Constant:
    """Reference: the dedicated degree-0 class that Polynomial.constant replaced."""

    def __init__(self, dim: int, value: float):
        self.dim = dim
        self.value = float(value)

    def eval(self, points):
        return np.full(np.asarray(points).shape[:-1], self.value)

    def eval_grad(self, points):
        return np.zeros(np.asarray(points).shape)

    def lift(self, x, order):
        return constant_jet(self.value, x, order)


class _Coordinate:
    """Reference: the dedicated degree-1 class that Polynomial.coordinate replaced."""

    def __init__(self, dim: int, axis: int):
        self.dim = dim
        self.axis = axis

    def eval(self, points):
        return np.asarray(points, dtype=float)[..., self.axis]

    def eval_grad(self, points):
        g = np.zeros(np.asarray(points).shape)
        g[..., self.axis] = 1.0
        return g

    def lift(self, x, order):
        return coordinate_jet(self.axis, x, order)


@pytest.mark.parametrize("dim", [3, 6])
def test_constant_and_coordinate_match_their_reference_classes(dim):
    # values, not bytes: a negative constant lifts with -0.0 where
    # constant_jet holds +0.0, and a single point evaluates to shape (1,)
    rng = np.random.default_rng(dim)
    batch = rng.uniform(-2.0, 2.0, (5, 7, dim))
    pairs = [(Polynomial.constant(dim, v), _Constant(dim, v)) for v in (1.0, 2.5, -0.75)]
    pairs += [(Polynomial.coordinate(dim, k), _Coordinate(dim, k)) for k in range(dim)]
    for new, ref in pairs:
        assert np.array_equal(new.eval(batch), ref.eval(batch))
        assert np.array_equal(new.eval_grad(batch), ref.eval_grad(batch))
        for x in batch[0]:
            assert np.array_equal(new.eval(x), np.atleast_1d(ref.eval(x)))
            assert np.array_equal(new.eval_grad(x), ref.eval_grad(x))
            for order in range(5):
                j, r = new.lift(x, order), ref.lift(x, order)
                assert isinstance(j, Jet) and j.order == r.order == order
                assert np.array_equal(j.base_point, r.base_point)
                assert np.array_equal(j.coeffs, r.coeffs)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_polynomial_lift_reproduces_values(dim):
    rng = np.random.default_rng(3)
    f = Polynomial.random(dim, 4, rng)
    x = rng.uniform(-1, 1, dim)
    j = f.lift(x, 4)
    for _ in range(5):
        d = rng.uniform(-0.7, 0.7, dim)
        expected = float(np.squeeze(f.eval(x + d)))
        assert eval_jet(j, d) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def running_power(x, e):
    """x ** e for integer exponents e, as the running product x * x * ... * x."""
    out = np.ones(np.broadcast(x, e).shape)
    for k in range(int(np.max(e, initial=0))):
        out = np.where(e > k, out * x, out)
    return out


def reference_shift_matrices(xs, dim, degree, order):
    """binom(alpha, beta) x^(alpha - beta), one coordinate and entry at a time."""
    sp_in, sp_out = get_space(dim, degree), get_space(dim, order)
    a = sp_in.exponents[: sp_in.terms(degree)]
    b = sp_out.exponents[: sp_out.terms(order)]
    diff = a[None, :, :] - b[:, None, :]
    valid = np.all(diff >= 0, axis=-1)
    diff = np.where(valid[..., None], diff, 0)
    binom = np.ones(valid.shape)
    for k in range(dim):
        for r, s in np.ndindex(valid.shape):
            n, m = int(a[s, k]), int(b[r, k])
            binom[r, s] *= math.comb(n, m) if n >= m else 0.0
    out = []
    for x in xs:
        powers = np.ones(valid.shape)
        for k in range(dim):
            powers *= running_power(x[k], diff[:, :, k])
        out.append(np.where(valid, binom * powers, 0.0))
    return out


@pytest.mark.parametrize(
    "dim,degree,order",
    [
        (2, 4, 4), (3, 0, 4), (3, 4, 4), (6, 4, 4), (6, 4, 2),
        # the keys the suite lifts through
        (3, 3, 4), (6, 3, 4), (4, 4, 4), (4, 3, 4), (3, 4, 2),
    ],
)
def test_shift_matrix_matches_reference(dim, degree, order, monkeypatch):
    rng = np.random.default_rng(29 + dim + degree + order)
    xs = rng.uniform(-1.5, 1.5, (30, dim))
    xs[:, 0] = 0.0
    xs[:, -1] = -np.abs(xs[:, -1])
    refs = reference_shift_matrices(xs, dim, degree, order)

    def check():
        for x, ref in zip(xs, refs):
            assert np.array_equal(polynomial_shift_matrix(x, dim, degree, order), ref)

    # the first call builds the space's tables, the second reads them
    check()
    check()
    # a replaced space builds its own tables
    old = get_space(dim, max(degree, order))
    monkeypatch.delitem(jets._SPACES, dim)
    assert get_space(dim, 6) is not old
    check()


def direct_eval(f, points):
    """prod(points ** exps) @ coefficients, one monomial at a time."""
    sp = get_space(f.dim, f.degree)
    exps = sp.exponents[: sp.terms(f.degree)]
    return np.prod(running_power(points[..., None, :], exps), axis=-1) @ f.coefficients


@pytest.mark.parametrize("dim,degree", [(3, 0), (3, 2), (4, 3), (6, 4), (2, 4)])
def test_polynomial_eval_matches_direct_formula(dim, degree):
    rng = np.random.default_rng(31 + 7 * dim + degree)
    f = Polynomial.random(dim, degree, rng)
    for shape in ((200, dim), (3, 40, dim)):
        pts = rng.uniform(-2.0, 2.0, shape)
        out = f.eval(pts)
        assert out.shape == shape[:-1]
        assert np.array_equal(out, direct_eval(f, pts))


def test_polynomial_eval_memory_stays_near_its_monomial_table():
    # the running product gathers one factor for one block of points at a
    # time, never a (points, terms, dim) array; 16000 points span several
    # blocks, each with the bits of the direct formula
    rng = np.random.default_rng(47)
    f = Polynomial.random(6, 2, rng)
    pts = rng.uniform(-1.0, 1.0, (16000, 6))
    table = pts.shape[0] * get_space(6, 2).terms(2) * 8
    tracemalloc.start()
    try:
        out = f.eval(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table
    assert np.array_equal(out, direct_eval(f, pts))


@pytest.mark.parametrize("dim,degree", [(3, 0), (3, 2), (3, 3), (6, 0), (6, 2), (6, 3)])
def test_eval_grad_columns_equal_partial_evals(dim, degree):
    # one monomial table serves every partial; each column keeps the bits
    # of its own partial's eval and of the direct formula
    rng = np.random.default_rng(43 + 7 * dim + degree)
    f = Polynomial.random(dim, degree, rng)
    for shape in ((dim,), (200, dim), (3, 40, dim)):
        pts = rng.uniform(-2.0, 2.0, shape)
        grad = f.eval_grad(pts)
        assert grad.shape == shape
        for j in range(dim):
            partial = f._partial(j)
            assert np.array_equal(grad[..., j], partial.eval(pts).reshape(shape[:-1]))
            assert np.array_equal(grad[..., j], direct_eval(partial, pts))


def test_polynomial_eval_shapes():
    rng = np.random.default_rng(37)
    for degree in (0, 4):
        f = Polynomial.random(3, degree, rng)
        x = rng.uniform(-1.0, 1.0, 3)
        assert f.eval(x).shape == (1,)
        assert f.eval(x)[0] == pytest.approx(float(direct_eval(f, x[None])[0]), rel=1e-14)
        assert f.eval(np.zeros((0, 3))).shape == (0,)
        assert f.eval(rng.uniform(-1.0, 1.0, (5, 3))).shape == (5,)
        assert f.eval(rng.uniform(-1.0, 1.0, (2, 5, 3))).shape == (2, 5)
    assert Polynomial(3, 0, [2.5]).eval(np.ones((4, 3))).tolist() == [2.5] * 4


def loop_tables(sp):
    """The JetSpace tables, one pair and one derivative entry at a time."""
    pa, pb, pout = [], [], []
    for a in range(sp.size):
        for b in range(sp.size):
            if sp.degrees[a] + sp.degrees[b] <= sp.order:
                pa.append(a)
                pb.append(b)
                pout.append(sp.index[tuple(sp.exponents[a] + sp.exponents[b])])
    pa, pb, pout = (np.array(v, dtype=np.int64) for v in (pa, pb, pout))
    srt = np.argsort(pout, kind="stable")
    src, coef = [], []
    for j in range(sp.dim):
        step = np.eye(sp.dim, dtype=np.int64)[j]
        raised = [sp.exponents[r] + step for r in range(sp.n_at[sp.order])]
        src.append(np.array([sp.index[tuple(e)] for e in raised], dtype=np.int64))
        coef.append(np.array([float(e[j]) for e in raised]))
    return [pa[srt], pb[srt], pout[srt]], src, coef


def same_table(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_jet_space_tables_equal_the_loop_builder(dim):
    for order in range(1, 6):
        sp = jets.JetSpace(dim, order)
        graded = sorted(
            (e for e in itertools.product(range(order + 1), repeat=dim) if sum(e) <= order),
            key=lambda e: (sum(e), e),
        )
        assert same_table(sp.exponents, np.array(graded, dtype=np.int64).reshape(-1, dim))
        pairs, src, coef = loop_tables(sp)
        for table, ref in zip((sp.pair_a, sp.pair_b, sp.pair_out), pairs):
            assert same_table(table, ref)
        for j in range(dim):
            assert same_table(sp.deriv_src[j], src[j])
            assert same_table(sp.deriv_coef[j], coef[j])


def test_truncation_is_prefix():
    rng = np.random.default_rng(5)
    f = Polynomial.random(2, 4, rng)
    j4 = f.lift(np.array([0.2, -0.1]), 4)
    j2 = j4.truncated(2)
    assert np.array_equal(j2.coeffs, j4.coeffs[: j2.space.terms(2)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_distributivity(seedval):
    rng = np.random.default_rng(seedval)
    x = rng.uniform(-1, 1, 3)
    a, b, c = (Polynomial.random(3, 2, rng).lift(x, 4) for _ in range(3))
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


def test_product_truncation_order():
    rng = np.random.default_rng(7)
    x = np.zeros(2)
    a = Polynomial.random(2, 3, rng).lift(x, 3)
    b = Polynomial.random(2, 2, rng).lift(x, 2)
    assert (a * b).order == 2


def test_derivative_drops_order_and_matches():
    f = Polynomial.monomial(2, (2, 1), 3.0)  # 3 x^2 y
    j = f.lift(np.array([0.5, 2.0]), 4)
    sp = j.space
    n = sp.terms(3)
    dx = sp.deriv_coef[0][:n] * j.coeffs[sp.deriv_src[0][:n]]  # 6 x y
    assert dx.shape == (n,)
    assert dx[0] == pytest.approx(6.0 * 0.5 * 2.0)
    assert dx[j.space.index[(0, 1)]] == pytest.approx(6.0 * 0.5)  # d/dy of 6 x y


def test_derivative_of_order_zero_raises():
    # frame fields differentiate through deriv_src and deriv_coef; an
    # order-0 jet has nothing left to differentiate
    heis = get_model("heisenberg")
    j = Polynomial.constant(3, 1.0).lift(np.zeros(3), 0)
    with pytest.raises(ValueError, match="order-0"):
        FrameCalc(heis, np.zeros(3), 0).apply(0, j)


def test_log_matches_the_series_of_log_1_plus_u():
    # for p(u) = 1 + a.u, log p(x + h) = log p(x) + sum_k (-1)^(k+1) s^k / k
    # with s = a.h / p(x), so the coefficient of h^alpha, |alpha| = k >= 1,
    # is (-1)^(k+1) / k * k! / alpha! * a^alpha / p(x)^k
    a = np.array([0.3, -0.5, 0.2])
    x = np.array([0.4, 0.1, -0.3])
    sp = get_space(3, 4)
    cf = np.zeros(sp.terms(1))
    cf[0] = 1.0
    for k in range(3):
        cf[sp.index[tuple(int(i == k) for i in range(3))]] = a[k]
    px = 1.0 + a @ x
    log = Polynomial(3, 1, cf).lift(x, 4).log()
    for alpha, coeff in zip(sp.exponents[: sp.terms(4)], log.coeffs):
        k = int(alpha.sum())
        if k == 0:
            expected = math.log(px)
        else:
            multinomial = math.factorial(k) / math.prod(math.factorial(int(e)) for e in alpha)
            expected = (-1) ** (k + 1) / k * multinomial * np.prod(a**alpha) / px**k
        assert coeff == pytest.approx(expected, rel=1e-12, abs=1e-15), alpha


def test_batched_lift_matches_single():
    rng = np.random.default_rng(13)
    coeffs = rng.uniform(-1, 1, (6, get_space(3, 4).terms(4)))
    x = rng.uniform(-1, 1, 3)
    batch = lift_polynomials(coeffs, 4, x, 4)
    for k in range(6):
        single = Polynomial(3, 4, coeffs[k]).lift(x, 4)
        assert np.allclose(batch.coeffs[k], single.coeffs, rtol=1e-13, atol=1e-14)


def test_eval_grad_matches_finite_differences():
    rng = np.random.default_rng(19)
    f = Polynomial.random(3, 4, rng)
    pts = rng.uniform(-0.8, 0.8, (5, 3))
    h = 1e-6
    g = f.eval_grad(pts)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (f.eval(pts + e) - f.eval(pts - e)) / (2 * h)
        assert np.allclose(g[:, k], fd, atol=1e-6)
