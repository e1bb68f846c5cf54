"""Structure-constant linear algebra for left-invariant frames.

Everything in this module is plain tensor arithmetic on the structure
constants ``c[k, i, j]`` of a frame ``E_1..E_d``, meaning

    [E_i, E_j] = sum_k c[k, i, j] E_k.

The frame is always split into a horizontal block (first ``dim_h``
indices) and a vertical block (the rest).  Connection coefficients,
curvature tensors and the exponential-chart coefficient series are all
constant in the frame because the frame is left-invariant, so they are
ordinary numpy arrays here.
"""

from __future__ import annotations

import math

import numpy as np


def antisymmetry_residual(c: np.ndarray) -> float:
    """Max absolute violation of c[k,i,j] = -c[k,j,i]."""
    return float(np.max(np.abs(c + np.swapaxes(c, 1, 2))))


def jacobi_residual(c: np.ndarray) -> float:
    """Max absolute violation of the Jacobi identity.

    Checks sum over cyclic permutations of [[E_i, E_j], E_k] = 0,
    expanded through the structure constants.
    """
    # [[E_i,E_j],E_k]^l = c[m,i,j] c[l,m,k]
    t = np.einsum("mij,lmk->lijk", c, c)
    cyc = t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))
    return float(np.max(np.abs(cyc)))


def bracket_filtration(c: np.ndarray, dim_h: int) -> tuple[np.ndarray, int]:
    """Growth of span(H) under iterated brackets with H.

    Returns (basis, step): orthonormal rows spanning the subalgebra H
    generates, and the number of bracket levels that grew it (1 = H
    alone, 2 = first-order brackets suffice, ...).  H is bracket
    generating when the basis spans the full algebra.  Each level is
    compressed to an orthonormal basis, so the scan stays linear in
    the dimension.
    """
    d = c.shape[0]
    span = h = np.eye(d)[:dim_h]
    step = 1
    while True:
        brackets = np.einsum("kij,ai,bj->abk", c, h, span).reshape(-1, d)
        _, sv, vt = np.linalg.svd(np.vstack([span, brackets]), full_matrices=False)
        grown = vt[sv > 1e-10]
        if len(grown) == len(span):
            return grown, step
        span, step = grown, step + 1


def nilpotency_step(c: np.ndarray) -> int | None:
    """Nilpotency degree of the algebra, or None if not nilpotent by step 12.

    Degree s means all (s+1)-fold brackets vanish (Heisenberg: 2).
    Each lower-central term is compressed to an orthonormal basis so
    the scan stays linear in the dimension.
    """
    d = c.shape[0]
    layer = np.eye(d)  # basis of the current lower-central term
    for s in range(1, 13):
        new = np.einsum("kij,ai,bj->abk", c, np.eye(d), layer).reshape(-1, d)
        _, sv, vt = np.linalg.svd(new, full_matrices=False)
        basis = vt[sv > 1e-12 * max(1.0, sv[0] if len(sv) else 1.0)]
        if len(basis) == 0:
            return s
        layer = basis
    return None


def orthonormalize_frame(
    c: np.ndarray, metric: np.ndarray, dim_h: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the frame blockwise through Cholesky factors.

    Returns (c_on, T) where the new frame is F_a = sum_b T[a,b] E_b,
    T is block diagonal (it never mixes horizontal with vertical), and
    c_on holds the structure constants of F.  The frame metric of F is
    the identity.
    """
    d = c.shape[0]
    T = np.zeros((d, d))
    for sl in (slice(0, dim_h), slice(dim_h, d)):
        block = metric[sl, sl]
        if block.size:
            L = np.linalg.cholesky(block)
            T[sl, sl] = np.linalg.inv(L)
    Tinv = np.linalg.inv(T)
    c_on = np.einsum("pi,qj,kij,ka->apq", T, T, c, Tinv)
    return c_on, T


def levi_civita_gamma(c: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients G[k,i,j] of an orthonormal frame.

    nabla_{E_i} E_j = G[k,i,j] E_k with the Koszul formula
    G[k,i,j] = (c[k,i,j] - c[i,j,k] + c[j,k,i]) / 2.
    """
    # transpose(c, (2,0,1))[k,i,j] = c[i,j,k]; transpose(c, (1,2,0))[k,i,j] = c[j,k,i]
    return 0.5 * (
        c - np.transpose(c, (2, 0, 1)) + np.transpose(c, (1, 2, 0))
    )


def adapted_gamma(c: np.ndarray, dim_h: int) -> np.ndarray:
    """Coefficients of the adapted connection of the H/V splitting.

    The connection keeps both subbundles parallel: differentiating in
    horizontal directions it uses the projected Levi-Civita connection
    on H and the bracket on V, and symmetrically for vertical
    directions.
    """
    d = c.shape[0]
    lc = levi_civita_gamma(c)
    g = np.zeros_like(c)
    H = slice(0, dim_h)
    V = slice(dim_h, d)
    g[H, H, H] = lc[H, H, H]
    g[V, V, V] = lc[V, V, V]
    g[V, H, V] = c[V, H, V]
    g[H, V, H] = c[H, V, H]
    return g


def connection_curvature(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Curvature R[l,i,j,k] of a frame-constant connection.

    R(E_i,E_j)E_k = R[l,i,j,k] E_l for gamma[k,i,j] constant in the
    frame, so only the quadratic and bracket terms survive.
    """
    quad = np.einsum("mjk,lim->lijk", gamma, gamma)
    r = quad - np.transpose(quad, (0, 2, 1, 3))
    r -= np.einsum("mij,lmk->lijk", c, gamma)
    return r


def nabla_cometric(gamma: np.ndarray, idx: slice, d: int) -> np.ndarray:
    """Covariant derivative of the co-metric of a frame sub-block.

    For s* = sum_{a in idx} E_a (x) E_a, returns W[m, j, k] with
    (nabla_{E_m} s*)^{jk} = W[m, j, k].
    """
    basis = np.zeros((d, d))
    ids = range(d)[idx]
    for a in ids:
        basis[a, a] = 1.0
    # nabla_m (E_a (x) E_a) = gamma[j,m,a] E_j (x) E_a + E_a (x) gamma[k,m,a] E_k
    w = np.einsum("jma,ka->mjk", gamma, basis)
    return w + np.swapaxes(w, 1, 2)


def ad_matrix(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Adjoint action matrix ad_u[m, j] = sum_i u_i c[m, i, j], batched."""
    return np.einsum("...i,mij->...mj", u, c)


def bracket(c: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[u, w]^k = sum_ij c[k, i, j] u_i w_j on component-first arrays.

    u and w have shape (d, ...): component first, then batch axes,
    which broadcast against each other from the right.  Only the
    nonzero structure constants are visited (two per bracket direction
    on the nilpotent models), each adding c u_i w_j into its output row
    in turn, so every term reads two contiguous rows.  Every batch entry
    is computed alone, so a slice of a batched call equals the
    unbatched call exactly.
    """
    u = np.asarray(u)
    w = np.asarray(w)
    shape = (c.shape[0],) + np.broadcast_shapes(u.shape[1:], w.shape[1:])
    out = np.zeros(shape, dtype=np.result_type(c, u, w))
    for k, i, j in zip(*np.nonzero(c)):
        out[k] += c[k, i, j] * u[i] * w[j]
    return out


def bch_compose(c: np.ndarray, u: np.ndarray, w: np.ndarray, step: int) -> np.ndarray:
    """log(exp(u) exp(w)) for a nilpotent algebra of degree <= 3.

    u and w are component-first, shape (d, ...), with batch axes that
    broadcast as they stand (`LieModel.mul` aligns them from the
    right).  Uses the Baker-Campbell-Hausdorff series, which terminates
    exactly at the nilpotency degree.  Degrees above 3 are rejected
    since the truncation would silently bias group products.
    """
    if step > 3:
        raise ValueError(f"exact BCH composition supports step <= 3, got {step}")
    z = u + w
    if step >= 2:
        uw = bracket(c, u, w)
        z = z + 0.5 * uw
        if step >= 3:
            z = z + (bracket(c, u, uw) - bracket(c, w, uw)) / 12.0
    return z


#: series for z / (1 - e^(-z)); converges for |z| < 2 pi
_SERIES_TERMS = 30
_SERIES_SAFE_NORM = 4.0
#: Taylor terms of the entire series exp(z) and (1 - e^(-z)) / z on
#: non-nilpotent algebras: on su2-pair principal logs ad_u is skew with
#: |ad_u|_2 <= 10.1 (measured on 300 000 elements), so the 80th term is
#: below 1e-38 and exp(-ad_u) meets scipy's expm to 1e-13
_ENTIRE_TERMS = 80


def _bernoulli_plus_table(n: int) -> np.ndarray:
    """B_0..B_n with B_1 = +1/2, each the correctly rounded exact rational.

    The recurrence sum_{k <= m} C(m+1, k) B_k = 0 runs on integer
    (numerator, denominator) pairs in lowest terms, and each number is
    rounded once, by int true division.
    """
    exact = [(1, 1)]
    for m in range(1, n + 1):
        den = math.lcm(*(q for _, q in exact))
        num = -sum(math.comb(m + 1, k) * p * (den // q) for k, (p, q) in enumerate(exact))
        den *= m + 1
        g = math.gcd(num, den)
        exact.append((num // g, den // g))
    table = np.array([p / q for p, q in exact])
    table[1] = -table[1]
    table.flags.writeable = False
    return table


_BERNOULLI_PLUS = _bernoulli_plus_table(_SERIES_TERMS)
#: 0!, 1!, ... as running float products
_FACTORIALS = np.cumprod([1.0] + [float(k) for k in range(1, _ENTIRE_TERMS + 2)])


def bernoulli_plus(n: int) -> np.ndarray:
    """Bernoulli numbers with the B_1 = +1/2 sign convention, orders 0..n <= 30."""
    if n > _SERIES_TERMS:
        raise ValueError(f"Bernoulli numbers are tabulated to order {_SERIES_TERMS}, not {n}")
    return _BERNOULLI_PLUS[: n + 1]


def _ad_series(ad: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] ad^k on a (batch of) ad matrices."""
    out = np.zeros_like(ad)
    out[...] = coeffs[0] * np.eye(ad.shape[-1])
    power = np.broadcast_to(np.eye(ad.shape[-1]), ad.shape).copy()
    for a in coeffs[1:]:
        power = power @ ad
        if a != 0.0:
            out = out + a * power
    return out


def adjoint_inverse(c: np.ndarray, u: np.ndarray, nil_step: int | None = None) -> np.ndarray:
    """Ad of exp(u)^-1, the matrix exp(-ad_u), batched over u.

    Column i holds the frame components of Ad_{exp(-u)} E_i.  The
    series terminates on nilpotent algebras (nil_step given) and runs
    `_ENTIRE_TERMS` terms otherwise.
    """
    terms = _ENTIRE_TERMS if nil_step is None else nil_step
    return _ad_series(-ad_matrix(c, u), 1.0 / _FACTORIALS[: terms + 1])


def frame_coefficients(
    c: np.ndarray, points: np.ndarray, nil_step: int | None = None
) -> np.ndarray:
    """Coefficient matrices of the left-invariant frame in exp coordinates.

    At the exponential-coordinate point u the frame field E_i equals
    sum_j F[j, i] d/du_j with F = f(ad_u) and f(z) = z / (1 - e^(-z)).
    Returns F with shape (..., d, d) for points of shape (..., d).

    For nilpotent algebras (nil_step given) the Bernoulli series of f
    terminates and is exact everywhere.  Otherwise F is the inverse of
    the entire series (1 - e^(-z)) / z = sum_k (-z)^k / (k+1)!, which
    is accurate up to the genuine singularities of the chart.
    """
    ad = ad_matrix(c, np.asarray(points, dtype=float))
    if nil_step is not None:
        return _ad_series(ad, bernoulli_plus(nil_step) / _FACTORIALS[: nil_step + 1])
    return np.linalg.inv(_ad_series(-ad, 1.0 / _FACTORIALS[1 : _ENTIRE_TERMS + 2]))
