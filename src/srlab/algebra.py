"""Structure-constant linear algebra for left-invariant frames.

Everything in this module is plain tensor arithmetic on the structure
constants ``c[k, i, j]`` of a frame ``E_1..E_d``, meaning

    [E_i, E_j] = sum_k c[k, i, j] E_k.

The frame is always split into a horizontal block (first ``dim_h``
indices) and a vertical block (the rest).  Connection coefficients and
curvature tensors are constant in the frame because the frame is
left-invariant, so they are ordinary numpy arrays here.  Functions of
ad_u (the exponential chart's frame, Ad) are closed forms: quadratics in
ad_u on nilpotent algebras of step <= 3, where ad_u^3 = 0, and Stumpff
functions on each su(2) ideal otherwise, exact to rounding in both
cases; the ideals are the ones the model declares
(`models.LieModel.su2_factors`), never searched for.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormalize the frame blockwise through Cholesky factors.

    Returns (c_on, T, T^-1) where the new frame is F_a = sum_b T[a,b] E_b,
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
    return c_on, T, Tinv


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


def bracket(c: np.ndarray, u: np.ndarray, w: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """[u, w]^k = sum_ij c[k, i, j] u_i w_j on component-first arrays.

    u and w have shape (d, ...): component first, then batch axes,
    which broadcast against each other from the right.  Only the
    nonzero structure constants are visited (two per bracket direction
    on the nilpotent models), each adding c u_i w_j into its output row
    in turn, so every term reads two contiguous rows.  Every batch entry
    is computed alone, so a slice of a batched call equals the
    unbatched call exactly.  A walk passes `out`, zeroed first, and
    `tmp`, of one component's shape, for each term.
    """
    u = np.asarray(u)
    w = np.asarray(w)
    if out is None:
        shape = (c.shape[0],) + np.broadcast_shapes(u.shape[1:], w.shape[1:])
        out = np.empty(shape, dtype=np.result_type(c, u, w))
    out[...] = 0.0
    for k, i, j in zip(*np.nonzero(c)):
        out[k] += np.multiply(np.multiply(c[k, i, j], u[i], out=tmp), w[j], out=tmp)
    return out


def check_step(step: int | None) -> None:
    """Reject nilpotency steps above 3.

    Every function of ad_u here (BCH, the chart's f(ad_u), exp(-ad_u)) is
    written for ad_u^3 = 0, which holds up to step 3; beyond it the
    dropped terms would silently bias the result.  None (not nilpotent)
    passes: those models are served by their declared su(2) ideals.
    """
    if step is not None and step > 3:
        raise ValueError(f"functions of ad_u support nilpotency step <= 3, got {step}")


def bch_compose(c: np.ndarray, u: np.ndarray, w: np.ndarray, step: int,
                out=None, scratch=None) -> np.ndarray:
    """log(exp(u) exp(w)) for a nilpotent algebra of degree <= 3.

    u and w are component-first, shape (d, ...), with batch axes that
    broadcast as they stand (`LieModel.mul` aligns them from the
    right).  Uses the Baker-Campbell-Hausdorff series, which terminates
    exactly at the nilpotency degree.  Degrees above 3 are rejected
    since the truncation would silently bias group products.  A walk
    passes `out`, not overlapping u or w, and `scratch`, three arrays
    of out's shape; the rounding is the same without them.
    """
    check_step(step)
    uw, b1, b2 = (None,) * 3 if scratch is None else scratch
    tmp = None if out is None else out[0, ...]  # free until z is written
    if step >= 2:
        uw = bracket(c, u, w, uw, tmp)
        if step >= 3:
            b1 = bracket(c, u, uw, b1, tmp)
            b1 -= bracket(c, w, uw, b2, tmp)
            b1 /= 12.0
        uw *= 0.5
    z = np.add(u, w, out=out)
    if step >= 2:
        z += uw
        if step >= 3:
            z += b1
    return z


def stumpff(s: np.ndarray, top: int) -> np.ndarray:
    """phi_n(s) = sum_m (-s)^m / (2m + n)! for n = 0..top, on a new first axis.

    With a = sqrt(s): phi_0 = cos a, phi_1 = sin a / a and
    phi_{n+2} = (1/n! - phi_n) / s.  Where s < (n+1)(n+2)/2 phi_n is the
    sum of its first 20 terms, which fall by half or more each, so the
    remainder is below 1e-20 of the sum.  Elsewhere it comes from cos
    and sin through the recurrence, which there shrinks the relative
    rounding at each step.
    """
    s = np.asarray(s, dtype=float)
    big = np.maximum(s, 1.0)  # the recurrence serves only s >= 1
    a = np.sqrt(big)
    up = [np.cos(a), np.sin(a) / a]
    for n in range(top - 1):
        up.append((1.0 / math.factorial(n) - up[n]) / big)
    n = np.arange(top + 1).reshape((-1,) + (1,) * s.ndim)
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(top + 40)])
    series = np.zeros(n.shape)
    for m in range(19, -1, -1):
        series = inv_fact[2 * m + n] - s * series
    return np.where(2.0 * s < (n + 1) * (n + 2), series, np.array(up[: top + 1]))


def chart_coefficients(s: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients at s, orders 0..order, of g(s) = (1 - (a/2) cot(a/2)) / s.

    On an su(2) block B of ad, where B^3 = -s B with s = a^2, the chart
    function f(z) = z / (1 - e^(-z)) gives f(B) = I + B / 2 + g(s) B^2, and
    g = (phi_3 - 2 phi_4) / (2 phi_2) in `stumpff` functions, which is
    singular first at a = 2 pi.  Each phi_n is differentiated through
    phi_n' = (n phi_{n+2} - phi_{n+1}) / 2, and the quotient is divided
    as a power series.
    """
    top = 4 + 2 * order
    phi = stumpff(s, top)
    step = np.diag(np.arange(top - 1) / 2.0, -2) - np.diag(np.full(top, 0.5), -1)
    w = np.zeros((top + 1, 2))
    w[2, 0], w[3, 1], w[4, 1] = 2.0, 1.0, -2.0  # 2 phi_2 and phi_3 - 2 phi_4
    den, g = [], []
    for k in range(order + 1):
        den_k, num_k = np.tensordot(w, phi, axes=(0, 0)) / math.factorial(k)
        den.append(den_k)
        g.append((num_k - sum(g[j] * den[k - j] for j in range(k))) / den[0])
        w = step @ w
    return np.array(g)


def _ideal_parts(frame, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per simple ideal k: ad_k, ad of the component of u in ideal k, its
    square and s_k = -tr(ad_k^2) / 2, the squared angle, shaped to scale them."""
    p, q = frame.ideals
    ad = ad_matrix(frame.c, np.einsum("kja,kai,...i->k...j", p, q, u))
    sq = ad @ ad
    return ad, sq, -0.5 * np.trace(sq, axis1=-2, axis2=-1)[..., None, None]


def adjoint_inverse(frame, u: np.ndarray) -> np.ndarray:
    """Ad of exp(u)^-1, the matrix exp(-ad_u), batched over u.

    Column i holds the frame components of Ad_{exp(-u)} E_i.  frame holds
    the structure constants c, nil_step and, off nilpotent algebras, the
    declared su(2) ideals (`models.OrthonormalFrame`).  On nilpotent
    algebras of step <= 3, where ad_u^3 = 0, exp(-ad_u) = I - ad_u + ad_u^2 / 2,
    and ad_u^2 = 0 below step 3; on each su(2) ideal Rodrigues' formula
    exp(-B) = I - phi_1(s) B + phi_2(s) B^2 holds.
    """
    u = np.asarray(u, dtype=float)
    check_step(frame.nil_step)
    if frame.nil_step is not None:
        ad = ad_matrix(frame.c, u)
        out = np.eye(len(frame.c)) - ad
        return out + 0.5 * (ad @ ad) if frame.nil_step == 3 else out
    ad, sq, s = _ideal_parts(frame, u)
    phi = stumpff(s, 2)
    return np.eye(len(frame.c)) + np.sum(phi[2] * sq - phi[1] * ad, axis=0)


def frame_coefficients(frame, points: np.ndarray) -> np.ndarray:
    """Coefficient matrices of the left-invariant frame in exp coordinates.

    At the exponential-coordinate point u the frame field E_i equals
    sum_j F[j, i] d/du_j with F = f(ad_u) and f(z) = z / (1 - e^(-z)).
    Returns F with shape (..., d, d) for points of shape (..., d).

    On nilpotent algebras of step <= 3, where ad_u^3 = 0, f(ad_u) is the
    quadratic I + ad_u / 2 + ad_u^2 / 12, and ad_u^2 = 0 below step 3; on
    each su(2) ideal f(B) = I + B / 2 + g(s) B^2 (`chart_coefficients`).
    Both are exact wherever f is analytic, that is away from block angles
    2 pi k.
    """
    points = np.asarray(points, dtype=float)
    check_step(frame.nil_step)
    if frame.nil_step is not None:
        ad = ad_matrix(frame.c, points)
        out = np.eye(len(frame.c)) + 0.5 * ad
        return out + (1.0 / 12.0) * (ad @ ad) if frame.nil_step == 3 else out
    ad, sq, s = _ideal_parts(frame, points)
    return np.eye(len(frame.c)) + np.sum(0.5 * ad + chart_coefficients(s, 0)[0] * sq, axis=0)
