"""Curvature invariants and derived constants of a model space.

From the structure constants of the orthonormalized frame this module
computes the bounds entering the generalized curvature-dimension
inequality: the curvature operator bounds (M_R, m_R), the horizontal
Ricci lower bound rho_H, the mixed bound M_HV, the vertical co-metric
derivative bounds, and from them every derived constant: the tuple
(n, rho1, rho20, rho21) for any weight c, the positivity threshold
kappa, the dimensional constants N and D, the gradient decay rate
alpha and the spectral gap bound.

All quantities are exact matrix computations (eigenvalues and singular
values of small structure-constant contractions); no sampling is
involved except for the optional sphere-search cross checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .models import LieModel

_EPS = 1e-12


@dataclass(frozen=True)
class GeometryReport:
    """Geometric bounds of one model (after vertical normalization)."""

    model: str
    M_R: float
    m_R: float
    rho_H: float
    M_HV: float
    M_grad_v: float
    rho_Lv: float
    normalized: bool

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class CDConstants:
    """Constants of the curvature-dimension inequality for one model."""

    n: int
    rho1: float
    rho20: float
    rho21: float
    c: float
    kappa: float
    N: float | None
    D: float | None
    alpha: float | None
    spectral_gap_bound: float | None

    def as_tuple(self) -> tuple[int, float, float, float]:
        return (self.n, self.rho1, self.rho20, self.rho21)

    def to_json(self) -> dict:
        doc = dict(self.__dict__)
        for k, v in doc.items():
            if isinstance(v, float) and not np.isfinite(v):
                doc[k] = str(v)
        return doc


def constants_tuple(constants) -> tuple[int, float, float, float]:
    """(n, rho1, rho20, rho21) of a constants record or a plain 4-tuple."""
    return constants.as_tuple() if hasattr(constants, "as_tuple") else tuple(constants)


# ----------------------------------------------------------------------
# Primitive bounds
# ----------------------------------------------------------------------


def curvature_bounds(model: LieModel) -> tuple[float, float]:
    """(M_R, m_R) of the distribution curvature in the frame metric.

    M_R is the best constant with |R(v, .)| <= M_R |pr_H v| in the
    tensor norm; since |R(v, .)|^2 is the quadratic form v -> v^T Q v
    with Q[i,i'] = sum_{s,j} c[s,i,j] c[s,i',j], it equals the square
    root of the top eigenvalue.  m_R is the square root of the smallest
    eigenvalue of the Gram matrix of the curvature 2-forms; it is
    positive exactly for step-2 models.
    """
    n = model.dim_h
    d = model.dim
    if model.dim_v == 0:
        raise ValueError("model has no vertical frame")
    c = model.onframe.c
    cv = c[n:, :n, :n]  # vertical components of horizontal brackets
    q = np.einsum("sij,stj->it", cv, cv)
    M_R = float(np.sqrt(max(np.linalg.eigvalsh(0.5 * (q + q.T))[-1], 0.0)))
    iu, ju = np.triu_indices(n, k=1)
    gram = np.einsum("sk,tk->st", cv[:, iu, ju], cv[:, iu, ju])
    m_R = float(np.sqrt(max(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0], 0.0)))
    return M_R, m_R


def sphere_max_curvature(
    model: LieModel, n_starts: int = 500, iters: int = 200, seed: int = 0
) -> float:
    """Projected-gradient cross check of M_R over the unit sphere."""
    n = model.dim_h
    c = model.onframe.c
    cv = c[n:, :n, :n]
    q = np.einsum("sij,stj->it", cv, cv)
    q = 0.5 * (q + q.T)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_starts, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    for _ in range(iters):
        v = v @ q + 1e-3 * v
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        v /= norms
    vals = np.einsum("bi,ij,bj->b", v, q, v)
    return float(np.sqrt(max(vals.max(), 0.0)))


def normalize_vertical(model: LieModel) -> LieModel:
    """Rescale the vertical metric so that M_R becomes 1.

    Models already normalized (within roundoff) are returned unchanged,
    which makes the operation idempotent.
    """
    M_R, _ = curvature_bounds(model)
    if M_R <= _EPS:
        raise ValueError(
            f"model {model.name!r} has vanishing curvature; nothing to normalize"
        )
    if abs(M_R - 1.0) <= 1e-12:
        return model
    metric = model.frame_metric.copy()
    n = model.dim_h
    metric[n:, n:] /= M_R**2
    base = model.name.removesuffix("+norm")
    return model.with_frame_metric(metric, name=base + "+norm")


def ricci_h(model: LieModel) -> tuple[float, np.ndarray]:
    """Horizontal Ricci lower bound and the full bilinear form.

    The form traces the adapted-connection curvature over the
    horizontal frame; the bound is its smallest eigenvalue restricted
    to unit horizontal vectors.
    """
    n = model.dim_h
    c = model.onframe.c
    gam = algebra.adapted_gamma(c, n)
    r = algebra.connection_curvature(c, gam)
    ric = np.einsum("iijk->jk", r[:n, :n, :, :])
    hb = 0.5 * (ric[:n, :n] + ric[:n, :n].T)
    rho = float(np.linalg.eigvalsh(hb)[0])
    return rho, ric


def _mixed_ricci_block(c: np.ndarray, gam: np.ndarray, n: int) -> np.ndarray:
    """Vertical-horizontal block b[s, i] of the mixed Ricci form.

    Half the trace of the covariant derivative of the curvature
    R[s, i, j] = c[s, i, j] (vertical s, horizontal i, j).
    """
    d = c.shape[0]
    rr = np.zeros((d, d, d))
    rr[n:, :n, :n] = c[n:, :n, :n]
    # (nabla_a R)[s, i, j]
    nr = (
        np.einsum("sau,uij->asij", gam, rr)
        - np.einsum("mai,smj->asij", gam, rr)
        - np.einsum("maj,sim->asij", gam, rr)
    )
    return 0.5 * np.einsum("asai->si", nr)[n:, :n]


def mixed_bounds(model: LieModel) -> tuple[float, float, float]:
    """(M_HV, M_grad_v, rho_Lv) from derivatives of curvature and v*.

    M_HV is the smallest constant with the mixed Ricci form bounded
    below by -2 M_HV |Z_v| |Z_h|, i.e. the top singular value of its
    mixed block.  M_grad_v is the tensor norm of the covariant
    derivative of the vertical co-metric, and rho_Lv the smallest
    eigenvalue of its horizontal trace Laplacian acting on vertical
    covectors.  All three vanish on fully parallel models.
    """
    n = model.dim_h
    d = model.dim
    c = model.onframe.c
    gam = algebra.adapted_gamma(c, n)

    b = _mixed_ricci_block(c, gam, n)
    M_HV = float(np.linalg.svd(b, compute_uv=False)[0]) if b.size else 0.0

    w = algebra.nabla_cometric(gam, slice(n, d), d)
    M_grad_v = float(np.sqrt(np.sum(w**2)))

    # second covariant derivative, traced over the horizontal frame
    nw = (
        -np.einsum("mca,mjk->cajk", gam, w)
        + np.einsum("jcs,ask->cajk", gam, w)
        + np.einsum("kcs,ajs->cajk", gam, w)
    )
    m2 = np.einsum("iijk->jk", nw[:n, :n, :, :])
    vb = 0.5 * (m2[n:, n:] + m2[n:, n:].T)
    rho_Lv = float(np.linalg.eigvalsh(vb)[0]) if vb.size else 0.0
    return M_HV, M_grad_v, rho_Lv


# ----------------------------------------------------------------------
# Geometry report
# ----------------------------------------------------------------------


def geometry_report(model: LieModel, normalize: bool = True) -> GeometryReport:
    """All curvature bounds, computed on the normalized model by default.

    The derived constants of the theory presume the vertical scaling
    that makes M_R = 1, so normalization is applied first whenever the
    curvature is nondegenerate; pass normalize=False for raw bounds.
    """
    work = model
    normalized = False
    if normalize:
        M_R_raw, _ = curvature_bounds(model)
        if M_R_raw > _EPS:
            work = normalize_vertical(model)
            normalized = True
    M_R, m_R = curvature_bounds(work)
    rho, _ = ricci_h(work)
    M_HV, M_grad_v, rho_Lv = mixed_bounds(work)
    return GeometryReport(
        model=model.name,
        M_R=M_R,
        m_R=m_R,
        rho_H=rho,
        M_HV=M_HV,
        M_grad_v=M_grad_v,
        rho_Lv=rho_Lv,
        normalized=normalized,
    )


# ----------------------------------------------------------------------
# Derived constants
# ----------------------------------------------------------------------


def rho_constants(report: GeometryReport, c: float) -> tuple[float, float, float]:
    """(rho1, rho20, rho21) for a given weight c (c may be inf)."""
    mix = report.M_HV + report.M_grad_v
    if np.isinf(c):
        if mix > 1e-9:
            raise ValueError("c = inf is admissible only when the mixed bounds vanish")
        rho1 = report.rho_H
        rho20 = 0.5 * report.m_R**2
    else:
        rho1 = report.rho_H - 1.0 / c
        rho20 = 0.5 * report.m_R**2 - c * mix**2
    rho21 = 0.5 * report.rho_Lv - report.M_grad_v**2
    return rho1, rho20, rho21


def kappa_of(report: GeometryReport) -> float:
    return 0.5 * report.m_R**2 * report.rho_H - report.M_HV**2


def alpha_closed_form(report: GeometryReport) -> float:
    """Gradient decay rate (2 kappa / (2 M_HV + m_R sqrt(2 rho_H + 2 kappa)))^2.

    Defined for kappa >= 0; kappa = 0 yields rate 0.
    """
    kappa = kappa_of(report)
    if kappa < -_EPS:
        raise ValueError(f"closed-form rate needs kappa >= 0, got {kappa:g}")
    if kappa <= 0:
        return 0.0
    denom = 2.0 * report.M_HV + report.m_R * np.sqrt(2.0 * report.rho_H + 2.0 * kappa)
    return float((2.0 * kappa / denom) ** 2)


def poincare_alpha(rho1: float, rho20: float, rho21: float) -> float | None:
    """(rho20 rho1 + rho21) / (rho20 + 1), under its hypotheses."""
    if rho1 < rho21 or rho20 <= -1.0:
        return None
    return (rho20 * rho1 + rho21) / (rho20 + 1.0)


def dimension_constants(n: int, rho2: float) -> tuple[float, float]:
    """(N, D) of the dimensional Li-Yau form for parameters (n, rho2)."""
    if rho2 <= 0:
        raise ValueError(f"dimensional constants need rho2 > 0, got {rho2:g}")
    N = 0.25 * n * (np.sqrt(2.0 + rho2) + np.sqrt(1.0 + rho2)) ** 2 / rho2
    D = np.sqrt((2.0 + rho2) * (1.0 + rho2)) / rho2
    return float(N), float(D)


def spectral_gap_bound(n: int, rho1: float, rho20: float, rho21: float) -> float | None:
    """Lower bound for -lambda over nonzero eigenvalues of L."""
    if rho20 <= 0:
        return None
    k2 = max(0.0, -rho21)
    return float(n * rho20 / (n + rho20 * (n - 1)) * (rho1 - k2 / rho20))


def _golden_max(fn, lo: float, hi: float) -> float:
    """Maximizer of a unimodal fn on [lo, hi] by 200 golden-section steps."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = fn(c1), fn(c2)
    for _ in range(200):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = fn(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = fn(c1)
    return 0.5 * (a + b)


def resolve_weight(report: GeometryReport, objective: str) -> float:
    """Pick the free weight c per the requested objective.

    "rho1_zero" takes c = 1 / rho_H, which zeroes rho1 while keeping
    rho20 as large as the constraint allows; "max_alpha" maximizes the
    decay rate alpha over c.  Whenever the mixed bounds vanish, c = inf
    dominates every objective with a nonnegative rho_H.
    """
    mix = report.M_HV + report.M_grad_v
    if objective == "rho1_zero":
        if report.rho_H > _EPS:
            return 1.0 / report.rho_H
        if mix > 1e-9:
            raise ValueError(
                "rho1_zero needs rho_H > 0 or vanishing mixed bounds"
            )
        return np.inf
    if objective == "max_alpha":
        if mix <= 1e-9:
            return np.inf

        def alpha_at(c):
            r1, r20, r21 = rho_constants(report, c)
            a = poincare_alpha(r1, r20, r21)
            return -np.inf if a is None else a

        # feasibility: rho1(c) >= rho21 needs c >= 1/(rho_H - rho21),
        # rho20(c) > -1 needs c below the mix threshold
        _, _, rho21 = rho_constants(report, 1.0)
        if report.rho_H <= rho21:
            raise ValueError("decay-rate optimization infeasible: rho_H <= rho21")
        c_lo = (1.0 + 1e-9) / (report.rho_H - rho21)
        c_hi = (1.0 - 1e-9) * (0.5 * report.m_R**2 + 1.0) / mix**2
        if c_hi <= c_lo:
            raise ValueError("decay-rate optimization has an empty feasible window")
        logc = _golden_max(lambda t: alpha_at(np.exp(t)), np.log(c_lo), np.log(c_hi))
        return float(np.exp(logc))
    raise ValueError(f"unknown objective {objective!r}")


def assemble_constants(model: LieModel, objective: str = "max_alpha") -> CDConstants:
    """Full constant record for one model, its weight c resolved via the objective.

    The dimensional constants and the spectral bound are populated when
    their hypotheses (rho20 > 0, and positivity where required) hold,
    otherwise left as None.
    """
    report = geometry_report(model)
    n = model.dim_h
    c_val = resolve_weight(report, objective)
    rho1, rho20, rho21 = rho_constants(report, c_val)
    kappa = kappa_of(report)
    nd = None
    dd = None
    if rho20 > 0:
        nd, dd = dimension_constants(n, rho20)
    return CDConstants(
        n=n,
        rho1=rho1,
        rho20=rho20,
        rho21=rho21,
        c=c_val,
        kappa=kappa,
        N=nd,
        D=dd,
        alpha=poincare_alpha(rho1, rho20, rho21),
        spectral_gap_bound=spectral_gap_bound(n, rho1, rho20, rho21),
    )


# ----------------------------------------------------------------------
# Riemannian Ricci comparison
# ----------------------------------------------------------------------


def riemann_ricci_compare(
    model: LieModel, n_directions: int = 50, seed: int = 0
) -> float:
    """Max deviation between two routes to the Riemannian Ricci form.

    Route one is the Levi-Civita curvature of the full frame metric,
    traced directly.  Route two assembles the same form from the
    adapted-connection data:

        Ric_H + Ric_HV + |g(Y, R(., .))|^2 / 2 + Ric_V - |R(Y, .)|^2 / 2

    where the horizontal trace of the connection difference carries
    -3/4 of the squared curvature norm and the vertical trace +1/4.
    Agreement validates both curvature pipelines.
    """
    n = model.dim_h
    d = model.dim
    c = model.onframe.c

    lc = algebra.levi_civita_gamma(c)
    r_lc = algebra.connection_curvature(c, lc)
    ric_g = np.einsum("aajk->jk", r_lc)

    gam = algebra.adapted_gamma(c, n)
    r_ad = algebra.connection_curvature(c, gam)
    ric_h_full = np.einsum("iijk->jk", r_ad[:n, :n, :, :])
    ric_v_full = np.einsum("ssjk->jk", r_ad[n:, n:, :, :])

    b = _mixed_ricci_block(c, gam, n)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_directions, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    worst = 0.0
    iu, ju = np.triu_indices(n, k=1)
    for y in dirs:
        lhs = y @ ric_g @ y
        yh, yv = y[:n], y[n:]
        ric_hv = 2.0 * yv @ b @ yh
        omega = np.einsum("s,sij->ij", yv, c[n:, :n, :n])
        wedge = 0.5 * np.sum(omega[iu, ju] ** 2)
        frob = np.sum(np.einsum("i,sij->sj", yh, c[n:, :n, :n]) ** 2)
        rhs = (y @ ric_h_full @ y) + ric_hv + wedge + (y @ ric_v_full @ y) - 0.5 * frob
        worst = max(worst, abs(lhs - rhs))
    return float(worst)
