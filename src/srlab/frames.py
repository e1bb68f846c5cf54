"""Left-invariant frame fields acting on jets.

The coordinate components of the frame in exponential coordinates are
f(ad_u) with f(z) = z / (1 - e^(-z)); evaluating it in jet arithmetic
at a base point yields the component functions to any Taylor order,
held as one jet with batch shape (d, d).  f(ad_u) is a closed form on
every model: a quadratic in ad_u on nilpotent models, whose square is
formed only where the structure constants let it be nonzero and only
at step 3, and I + ad_u / 2 + g(s) B^2 on each su(2) ideal, a few jet
products per ideal (see `chart_field_jets`).  Applying a frame
field to a jet is then a linear map on jet coefficients: per
differentiation order, one dense matrix filled by a single weighted
`np.bincount` of the chart's components, by a `FrameCalc` that is built
per point and not cached.  The point-free index tables it reads
(product pairs, derivative maps and the operators' scatter keys,
`JetSpace.frame_keys`) live on the `JetSpace` of the dimension; per
point it builds only the chart and the operators it is asked for.
The Laplacians are sums of squares, L = sum_i E_i E_i over the
horizontal frame and the full Laplacian over every frame field, as
the MC walk simulates; the chart raises on a horizontal frame with
divergence, where L would have a first-order part.  They take the first
derivatives their caller already holds, so no frame derivative of a jet
is formed twice.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .jets import Jet, coordinate_jet, get_space
from .models import STRUCT_TOL, LieModel


def chart_field_jets(model: LieModel, x: np.ndarray, order: int) -> Jet:
    """Component jets of the frame fields at x, as one jet of batch (d, d).

    ``coeffs[j, i]`` is field i along coordinate j.  Components refer
    to the orthonormalized frame and its exponential chart, where the
    fields are f(ad_u) = I + ad_u / 2 + ..., f(z) = z / (1 - e^(-z)).

    Nilpotent models of step <= 3 have ad_u^3 = 0, so f(ad_u) ends with
    ad_u^2 / 12, which only step 3 does not annihilate.  Its jet forms
    ad[m, l] ad[l, col] only where both factors can be nonzero by the
    pattern of the structure constants, and sums over l in index order
    from +0.0; a skipped product is a signed zero, which changes no bit
    of such a sum.  On a sum of su(2) ideals f(ad_u) adds
    P_k g(s_k) B_k^2 Q_k per ideal k: B_k = Q_k ad P_k is the 3 x 3 block
    of the ideal (`OrthonormalFrame.ideals`) and s_k = -tr(B_k^2) / 2 its
    squared angle, a quadratic polynomial in u.  The jet of g(s_k) is the
    Taylor series of g at s_k(x) (`algebra.chart_coefficients`) in the
    increment s_k - s_k(x), which has no constant term, so the series
    ends at the jet order.
    """
    x = np.asarray(x, dtype=float)
    frame = model.onframe
    algebra.check_step(frame.nil_step)
    c = frame.c
    d, h = model.dim, model.dim_h
    # the sub-Laplacian is sum_i E_i E_i - kappa . E with kappa_k =
    # sum_i c[i, k, i] over horizontal i; the Laplacians here drop kappa
    kappa = np.trace(c[:h, :h, :h], axis1=0, axis2=2)
    if np.max(np.abs(kappa), initial=0.0) > STRUCT_TOL * max(1.0, np.max(np.abs(c))):
        raise ValueError(
            f"the horizontal frame of {model.name!r} is not divergence-free: "
            f"sum_i c[i, k, i] = {kappa.tolist()}, so L is not sum_i E_i^2"
        )
    sp = get_space(d, order)
    n = sp.terms(order)
    # ad[m, l] = sum_i c[m, i, l] u_i.  Every sum here runs as a loop in
    # index order, not through einsum, whose summation order can vary.
    ad = np.zeros((d, d, n))
    for i in range(d):
        ad = ad + c[:, i, :, None] * coordinate_jet(i, x, order).coeffs
    out = 0.5 * ad
    out[np.arange(d), np.arange(d), 0] += 1.0

    if frame.nil_step == 3:
        # one product call, scattered as prods[l, m, col], +0.0 if skipped
        pat = np.any(c != 0, axis=1)
        m, l, col = np.nonzero(pat[:, :, None] & pat[None])
        prods = np.zeros((d, d, d, n))
        prods[l, m, col] = sp.multiply(ad[m, l], ad[l, col], order)
        sq = np.zeros((d, d, n))
        for term in prods:
            sq = sq + term
        out = out + (1.0 / 12.0) * sq
    elif frame.nil_step is None:
        for p, q in zip(*frame.ideals):
            b = np.einsum("ai,ijn,jb->abn", q, ad, p)
            sq = sp.multiply(b[:, :, None], b[None], order).sum(axis=1)
            s = -0.5 * (sq[0, 0] + sq[1, 1] + sq[2, 2])
            if s[0] >= 4.0 * np.pi**2:
                raise ValueError(
                    f"base point outside the chart: an su(2) block turns by "
                    f"{np.sqrt(s[0]):.2f} >= 2 pi"
                )
            g = algebra.chart_coefficients(s[0], order)
            inc = s.copy()
            inc[0] = 0.0
            gs = np.zeros_like(s)
            gs[0] = g[order]
            for k in range(order - 1, -1, -1):
                gs = sp.multiply(inc, gs, order)
                gs[0] += g[k]
            out = out + np.einsum("ja,abn,bi->jin", p, sp.multiply(gs, sq, order), q)
    return Jet(x, order, out)


class FrameCalc:
    """Per-point linear operators of the frame fields on jet coefficients."""

    def __init__(self, model: LieModel, x: np.ndarray, order: int):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.order = order
        d = model.dim
        self._space = get_space(d, order)
        self._chart = chart_field_jets(model, self.x, max(order - 1, 0))
        # ops[i][m]: coefficients of E_i f at order m-1 from f at order m,
        # assembled lazily since most pipelines touch few orders
        self.ops: list[dict[int, np.ndarray]] = [dict() for _ in range(d)]

    def _op(self, i: int, m: int) -> np.ndarray:
        op = self.ops[i].get(m)
        if op is None:
            sp = self._space
            n_out, n_in = sp.terms(m - 1), sp.terms(m)
            keys, j, a, coef = sp.frame_keys(m)
            # bincount sums each entry's terms in input order (j-major)
            # onto +0.0, as adding the per-field matrices in turn did; a
            # -0.0 term (a -0.0 component) leaves a +0.0 entry +0.0
            op = np.bincount(
                keys, self._chart.coeffs[j, i, a] * coef, minlength=n_out * n_in
            ).reshape(n_out, n_in)
            self.ops[i][m] = op
        return op

    def apply(self, i: int, jet: Jet) -> Jet:
        if jet.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        op = self._op(i, jet.order)
        return Jet(self.x, jet.order - 1, jet.coeffs @ op.T)

    def horizontal(self, jet: Jet) -> list[Jet]:
        return [self.apply(i, jet) for i in range(self.model.dim_h)]

    def vertical(self, jet: Jet) -> list[Jet]:
        return [self.apply(s, jet) for s in range(self.model.dim_h, self.model.dim)]

    def _laplacian(self, out: Jet | None, grads: list[Jet], start: int) -> Jet:
        """out plus sum_i E_i (grads[i]) over i >= start."""
        for i in range(start, len(grads)):
            term = self.apply(i, grads[i])
            out = term if out is None else out + term
        return out

    def sublaplacian(self, grads: list[Jet]) -> Jet:
        """L f = sum_i E_i E_i f from grads = `horizontal(f)`."""
        return self._laplacian(None, grads, 0)

    def full_laplacian(self, lf: Jet, grads: list[Jet]) -> Jet:
        """The full Laplacian of f from lf = L f and grads = `horizontal(f) +
        vertical(f)`: L f plus the vertical squares, so that the horizontal
        squares are formed once.  Every algebra the chart accepts is
        unimodular, so the full Laplacian has no first-order part."""
        return self._laplacian(lf, grads, self.model.dim_h)


def get_calc(model: LieModel, x: np.ndarray, order: int) -> FrameCalc:
    return FrameCalc(model, x, order)


# ----------------------------------------------------------------------
# Pointwise numeric evaluation along the frame (no jets)
# ----------------------------------------------------------------------


def frame_gradients(model: LieModel, f, points: np.ndarray) -> np.ndarray:
    """(E_a f)(points) for every frame index a; shape (..., dim)."""
    points = np.asarray(points, dtype=float)
    F = algebra.frame_coefficients(model.onframe, points)
    grads = f.eval_grad(points)
    return np.einsum("...ji,...j->...i", F, grads)


def gamma_numeric(model: LieModel, f, points: np.ndarray, which: str = "h") -> np.ndarray:
    """Squared frame gradient of f at points; which in {h, v}."""
    return gamma_of_gradients(model, frame_gradients(model, f, points), which)


def gamma_of_gradients(model: LieModel, g: np.ndarray, which: str) -> np.ndarray:
    """Squared norm of the `which` part of frame gradients g, as `gamma_numeric`."""
    return np.sum(g[..., frame_slice(model, which)] ** 2, axis=-1)


def frame_slice(model: LieModel, which: str) -> slice:
    """The frame indices of the horizontal ("h") or vertical ("v") block."""
    if which == "h":
        return slice(0, model.dim_h)
    if which == "v":
        return slice(model.dim_h, model.dim)
    raise ValueError(f"unknown gradient selector {which!r}")


def fd_frame_derivative(model: LieModel, f, x: np.ndarray, i: int, h: float = 1e-5) -> float:
    """Central-difference oracle for (E_i f)(x) through group translation."""
    x = np.asarray(x, dtype=float)
    e = np.zeros(model.dim)
    e[i] = h
    plus = np.asarray(f.eval(model.compose(x, e)))
    minus = np.asarray(f.eval(model.compose(x, -e)))
    return float(np.squeeze(plus - minus)) / (2.0 * h)
