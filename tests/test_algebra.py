from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from srlab import algebra, frames, models
from srlab.jets import Polynomial
from srlab.models import build_su2_pair, get_model

SHIPPED = ("heisenberg", "free-nilpotent-3", "engel", "su2-pair")


def einsum_bracket(c, u, w):
    """The dense formula [u, w]^k = sum_ij c[k, i, j] u_i w_j, component-first."""
    return np.einsum("kij,i...,j...->k...", c, u, w)


def first(x):
    """Component-first copy of a component-last draw."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


@pytest.mark.parametrize("name", SHIPPED)
def test_bracket_equals_einsum_on_shipped_models(name):
    m = get_model(name)
    rng = np.random.default_rng(11)
    for c in (m.structure_constants, m.onframe.c):
        u = first(rng.standard_normal((3, 50, m.dim)))
        w = first(rng.standard_normal((3, 50, m.dim)))
        out = algebra.bracket(c, u, w)
        assert out.shape == (m.dim, 3, 50)
        assert np.array_equal(out, einsum_bracket(c, u, w))


def test_bracket_matches_einsum_on_dense_constants():
    rng = np.random.default_rng(12)
    d = 5
    c = rng.standard_normal((d, d, d))
    c = c - np.swapaxes(c, 1, 2)
    u, w = (first(x) for x in rng.standard_normal((2, 40, d)))
    assert np.count_nonzero(c) == d * d * (d - 1)
    assert np.allclose(algebra.bracket(c, u, w), einsum_bracket(c, u, w), rtol=1e-13, atol=1e-13)


def test_bracket_matches_einsum_on_rescaled_metric():
    m = get_model("engel").with_frame_metric(np.diag([2.0, 0.5, 3.0, 0.7]))
    c = m.onframe.c
    assert not np.all(np.isin(c, (-1.0, 0.0, 1.0)))
    rng = np.random.default_rng(13)
    u, w = (first(x) for x in rng.standard_normal((2, 30, m.dim)))
    assert np.allclose(algebra.bracket(c, u, w), einsum_bracket(c, u, w), rtol=1e-13, atol=1e-13)


def test_bracket_broadcasts_starts_against_shared_noise():
    m = get_model("heisenberg")
    c = m.onframe.c
    rng = np.random.default_rng(14)
    u = first(rng.standard_normal((4, 25, 3)))
    w = first(rng.standard_normal((1, 25, 3)))
    out = algebra.bracket(c, u, w)
    assert out.shape == (3, 4, 25)
    assert np.array_equal(out, einsum_bracket(c, u, w))
    # batch axes broadcast from the right, as `LieModel.mul` aligns them
    assert np.array_equal(algebra.bracket(c, u, w[:, 0]), out)
    one = algebra.bracket(c, u[:, 0, 0], w[:, 0, 0])
    assert one.shape == (3,)
    assert one[2] == u[0, 0, 0] * w[1, 0, 0] - u[1, 0, 0] * w[0, 0, 0]


@pytest.mark.parametrize("name", SHIPPED)
def test_bracket_batch_slices_equal_single_calls(name):
    # _evolve rides every start on the same noise; a start's states
    # must not depend on which other starts share the batch
    m = get_model(name)
    c = m.onframe.c
    rng = np.random.default_rng(15)
    u = first(rng.standard_normal((5, 20, m.dim)))
    w = first(rng.standard_normal((1, 20, m.dim)))
    batch = algebra.bracket(c, u, w)
    for s in range(5):
        assert np.array_equal(batch[:, s], algebra.bracket(c, u[:, s], w[:, 0]))
        for n in (0, 7, 19):
            assert np.array_equal(batch[:, s, n], algebra.bracket(c, u[:, s, n], w[:, 0, n]))


def test_frame_coefficients_match_central_differences_on_su2_pair():
    # most of these points lie beyond |ad|_inf = 4, where a truncated
    # chart series would no longer be exact
    m = get_model("su2-pair")
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (200, 6))
    ad = algebra.ad_matrix(m.onframe.c, pts)
    assert np.sum(np.linalg.norm(ad, ord=np.inf, axis=(-2, -1)) > 4.0) > 150
    f = Polynomial.random(6, 3, np.random.default_rng(2))
    got = frames.frame_gradients(m, f, pts)
    fd = np.array(
        [[frames.fd_frame_derivative(m, f, p, i, h=1e-6) for i in range(6)] for p in pts]
    )
    assert np.max(np.abs(got - fd) / np.maximum(1.0, np.abs(fd))) < 1e-8


@pytest.mark.parametrize("name", SHIPPED)
def test_adjoint_inverse_equals_expm(name):
    m = get_model(name)
    c = m.onframe.c
    rng = np.random.default_rng(16)
    # principal logs on su2-pair (the coordinates compose returns)
    u = m.compose(np.zeros(m.dim), 2.0 * rng.standard_normal((400, m.dim)))
    got = algebra.adjoint_inverse(m.onframe, u)
    expected = expm(-algebra.ad_matrix(c, u))
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))
    # Ad is a group homomorphism: Ad_{exp(-w)} Ad_{exp(-u)} = Ad_{(exp(u) exp(w))^-1}
    w = m.compose(np.zeros(m.dim), 0.5 * rng.standard_normal((400, m.dim)))
    prod = algebra.adjoint_inverse(m.onframe, w) @ got
    both = algebra.adjoint_inverse(m.onframe, m.compose(u, w))
    assert np.allclose(prod, both, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rho", [0.3, 1.0, 2.5])
def test_declared_ideals_split_ad_into_cross_products(rho):
    # P = T^-T B and Q = P^-1 from the declaration: Q ad_u P has the cross
    # product of each ideal's component of u on its diagonal and zeros off it
    m = build_su2_pair(rho)
    p, q = m.onframe.ideals
    assert p.shape == (2, 6, 3) and q.shape == (2, 3, 6)
    assert np.allclose(np.einsum("kai,lib->klab", q, p), np.eye(3) * np.eye(2)[:, :, None, None],
                       rtol=0.0, atol=1e-15)
    for u in np.random.default_rng(21).uniform(-1.0, 1.0, (20, 6)):
        ad = algebra.ad_matrix(m.onframe.c, u)
        scale = np.max(np.abs(ad))
        blk = np.einsum("kai,ij,ljb->klab", q, ad, p)
        assert np.max(np.abs(blk[0, 1])) <= 1e-15 * scale
        assert np.max(np.abs(blk[1, 0])) <= 1e-15 * scale
        for k in range(2):
            x = q[k] @ u
            cross = np.array([[0.0, -x[2], x[1]], [x[2], 0.0, -x[0]], [-x[1], x[0], 0.0]])
            assert np.allclose(blk[k, k], cross, rtol=0.0, atol=1e-15 * scale)


def test_declared_factors_must_meet_the_structure_constants():
    m = build_su2_pair(1.0)
    f = m.su2_factors
    assert np.array_equal(m.structure_constants, models._su2_sum(f))
    for bad in (
        dict(su2_factors=np.stack([f[0], 2.0 * f[1]])),  # [2X_a, 2X_b] = 2 (2 X_c)
        dict(su2_factors=f[:, [1, 0, 2]]),  # a left-handed basis
        dict(su2_factors=np.stack([f[0], f[0]])),  # the factors do not span
        dict(su2_factors=f[:1]),
        dict(su2_factors=np.where(f == 0.5, np.nan, f)),
        dict(structure_constants=-m.structure_constants),
    ):
        with pytest.raises(ValueError):
            replace(m, **bad)


@pytest.mark.parametrize(
    "name, rank, step",
    [("heisenberg", 3, 2), ("engel", 4, 3), ("su2-pair", 6, 2), ("abelian", 2, 1)],
)
def test_bracket_filtration_spans_the_generated_subalgebra(name, rank, step):
    m = get_model(name)
    for c in (m.structure_constants, m.onframe.c):
        span, got = algebra.bracket_filtration(c, m.dim_h)
        assert (span.shape, got) == ((rank, m.dim), step)
        assert np.allclose(span @ span.T, np.eye(rank))
