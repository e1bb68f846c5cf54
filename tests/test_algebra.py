import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import funm

from srlab import algebra
from srlab.models import get_model

SHIPPED = ("heisenberg", "free-nilpotent-3", "engel", "su2-pair")


def einsum_bracket(c, u, w):
    """The dense formula [u, w]^k = sum_ij c[k, i, j] u_i w_j."""
    return np.einsum("kij,...i,...j->...k", c, u, w)


@pytest.mark.parametrize("name", SHIPPED)
def test_bracket_equals_einsum_on_shipped_models(name):
    m = get_model(name)
    rng = np.random.default_rng(11)
    for c in (m.structure_constants, m.onframe.c):
        u = rng.standard_normal((3, 50, m.dim))
        w = rng.standard_normal((3, 50, m.dim))
        out = algebra.bracket(c, u, w)
        assert out.shape == (3, 50, m.dim)
        assert np.array_equal(out, einsum_bracket(c, u, w))


def test_bracket_matches_einsum_on_dense_constants():
    rng = np.random.default_rng(12)
    d = 5
    c = rng.standard_normal((d, d, d))
    c = c - np.swapaxes(c, 1, 2)
    u, w = rng.standard_normal((2, 40, d))
    assert np.count_nonzero(c) == d * d * (d - 1)
    assert np.allclose(algebra.bracket(c, u, w), einsum_bracket(c, u, w), rtol=1e-13, atol=1e-13)


def test_bracket_matches_einsum_on_rescaled_metric():
    m = get_model("engel").with_frame_metric(np.diag([2.0, 0.5, 3.0, 0.7]))
    c = m.onframe.c
    assert not np.all(np.isin(c, (-1.0, 0.0, 1.0)))
    rng = np.random.default_rng(13)
    u, w = rng.standard_normal((2, 30, m.dim))
    assert np.allclose(algebra.bracket(c, u, w), einsum_bracket(c, u, w), rtol=1e-13, atol=1e-13)


def test_bracket_broadcasts_starts_against_shared_noise():
    m = get_model("heisenberg")
    c = m.onframe.c
    rng = np.random.default_rng(14)
    u = rng.standard_normal((4, 25, 3))
    w = rng.standard_normal((1, 25, 3))
    out = algebra.bracket(c, u, w)
    assert out.shape == (4, 25, 3)
    assert np.array_equal(out, einsum_bracket(c, u, w))
    one = algebra.bracket(c, u[0, 0], w[0, 0])
    assert one.shape == (3,)
    assert one[2] == u[0, 0, 0] * w[0, 0, 1] - u[0, 0, 1] * w[0, 0, 0]


@pytest.mark.parametrize("name", SHIPPED)
def test_bracket_batch_slices_equal_single_calls(name):
    # _evolve rides every stencil start on the same noise; a start's
    # states must not depend on which other starts share the batch
    m = get_model(name)
    c = m.onframe.c
    rng = np.random.default_rng(15)
    u = rng.standard_normal((5, 20, m.dim))
    w = rng.standard_normal((1, 20, m.dim))
    batch = algebra.bracket(c, u, w)
    for s in range(5):
        assert np.array_equal(batch[s], algebra.bracket(c, u[s], w[0]))
        for n in (0, 7, 19):
            assert np.array_equal(batch[s, n], algebra.bracket(c, u[s, n], w[0, n]))


def test_frame_coefficients_beyond_the_series_region_are_silent(capsys):
    # su2-pair points whose ad matrix leaves the series region take the
    # dense matrix-function route, whose error estimate is spurious there
    c = get_model("su2-pair").onframe.c
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 6))
    ad = algebra.ad_matrix(c, pts)
    beyond = np.linalg.norm(ad, ord=np.inf, axis=(-2, -1)) > algebra._SERIES_SAFE_NORM
    assert beyond.sum() >= 4
    F = algebra.frame_coefficients(c, pts)
    assert capsys.readouterr().out == ""
    # the values are those of the default (printing) call
    f = np.vectorize(algebra._dexpinv_scalar)
    for m, got, dense in zip(ad, F, beyond):
        if dense:
            assert np.array_equal(got, np.real(funm(m.astype(complex), f)))


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


def test_bernoulli_numbers_are_the_rounded_exact_rationals():
    exact = [Fraction(1)]
    for m in range(1, 31):
        exact.append(-sum(math.comb(m + 1, k) * exact[k] for k in range(m)) / (m + 1))
    exact[1] = -exact[1]  # the B_1 = +1/2 convention
    got = algebra.bernoulli_plus(30)
    assert got.tolist() == [float(b) for b in exact]
    assert algebra.bernoulli_plus(3).tolist() == [1.0, 0.5, 1.0 / 6.0, 0.0]
    with pytest.raises(ValueError):
        algebra.bernoulli_plus(31)
