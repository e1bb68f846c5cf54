"""Pointwise carre-du-champ calculus for the sub-Laplacian.

For the operator L = sum_i A_i^2 (plus its frame correction when the
horizontal frame is not divergence-free) the forms evaluated here are

    Gamma^h(f, g)   = sum_i (A_i f)(A_i g)
    Gamma^v(f, g)   = sum_s (V_s f)(V_s g)
    Gamma2^s(f)     = (L Gamma^s(f) - 2 Gamma^s(f, L f)) / 2

with A_i, V_s the orthonormalized horizontal and vertical frames.  All
evaluation goes through exact jet arithmetic, so residuals of the
curvature-dimension inequality and of the pointwise identities are
computed without discretization error; on polynomials the only noise
is floating point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import FrameCalc, get_calc
from .jets import Jet, get_space, lift_polynomials
from .models import LieModel

DEFAULT_ORDER = 4


def _as_jet(model: LieModel, f, x: np.ndarray, order: int) -> Jet:
    if isinstance(f, Jet):
        return f
    return f.lift(np.asarray(x, dtype=float), order)


def _sum_squares(parts: list[Jet]) -> Jet:
    out = None
    for p in parts:
        term = p * p
        out = term if out is None else out + term
    return out


def _pair_value(parts1: list[Jet], parts2: list[Jet]) -> np.ndarray:
    return sum(np.asarray(a.value) * np.asarray(b.value) for a, b in zip(parts1, parts2))


# ----------------------------------------------------------------------
# Scalar API
# ----------------------------------------------------------------------


def sublaplacian(model: LieModel, f, x, order: int = DEFAULT_ORDER):
    """L f at x."""
    j = _as_jet(model, f, x, order)
    calc = get_calc(model, j.base_point, j.order)
    return calc.sublaplacian(j).value


def gamma(model: LieModel, f, g=None, x=None, which: str = "h", order: int = DEFAULT_ORDER):
    """Gamma^which(f, g) at x; g defaults to f."""
    jf = _as_jet(model, f, x, order)
    jg = jf if g is None or g is f else _as_jet(model, g, x, order)
    calc = get_calc(model, jf.base_point, jf.order)
    pf = calc.horizontal(jf) if which == "h" else calc.vertical(jf)
    pg = pf if jg is jf else (calc.horizontal(jg) if which == "h" else calc.vertical(jg))
    return _pair_value(pf, pg)


def gamma2(
    model: LieModel,
    f,
    x,
    which: str = "h",
    l: float | None = None,
    order: int = DEFAULT_ORDER,
):
    """Iterated form Gamma2 at x; which in {h, v, mixed}.

    "mixed" returns Gamma2^h + l Gamma2^v and needs l > 0.
    """
    j = _as_jet(model, f, x, order)
    if j.order < 3:
        raise ValueError(f"Gamma2 needs a jet of order >= 3, got {j.order}")
    calc = get_calc(model, j.base_point, j.order)
    vals = _core_values(calc, j)
    if which == "h":
        return vals["G2h"]
    if which == "v":
        return vals["G2v"]
    if which == "mixed":
        if l is None or l <= 0:
            raise ValueError("mixed Gamma2 requires l > 0")
        return vals["G2h"] + l * vals["G2v"]
    raise ValueError(f"unknown selector {which!r}")


def _core_values(calc: FrameCalc, j: Jet, want: str = "cd") -> dict:
    """Shared evaluation pipeline; j may be a batched jet of order >= 3.

    want: "cd" for L/Gamma/Gamma2, "double" adds Gamma(Gamma) terms,
    "condb" adds the commutation bracket of Gamma^h and Gamma^v.
    """
    Af = calc.horizontal(j)
    Vf = calc.vertical(j)
    Lf = calc.sublaplacian(j)
    Gh = _sum_squares(Af)
    Gv = _sum_squares(Vf) if Vf else None
    out = {
        "L": np.asarray(Lf.value),
        "Gh": np.asarray(Gh.value),
        "Gv": np.asarray(Gv.value) if Gv is not None else 0.0,
    }
    if want in ("cd", "double"):
        LGh = calc.sublaplacian(Gh)
        ALf = calc.horizontal(Lf)
        out["G2h"] = 0.5 * np.asarray(LGh.value) - _pair_value(Af, ALf)
        if Gv is not None:
            LGv = calc.sublaplacian(Gv)
            VLf = calc.vertical(Lf)
            out["G2v"] = 0.5 * np.asarray(LGv.value) - _pair_value(Vf, VLf)
        else:
            out["G2v"] = 0.0
    if want == "double":
        out["GhGh"] = sum(np.asarray(calc.apply(i, Gh).value) ** 2 for i in range(calc.model.dim_h))
        if Gv is not None:
            out["GhGv"] = sum(
                np.asarray(calc.apply(i, Gv).value) ** 2 for i in range(calc.model.dim_h)
            )
        else:
            out["GhGv"] = 0.0
    if want == "condb":
        AGv = [calc.apply(i, Gv) for i in range(calc.model.dim_h)] if Gv is not None else []
        VGh = [calc.apply(s, Gh) for s in range(calc.model.dim_h, calc.model.dim)]
        hv = sum(np.asarray(a.value) * np.asarray(b.value) for a, b in zip(Af, AGv)) if AGv else 0.0
        vh = sum(np.asarray(a.value) * np.asarray(b.value) for a, b in zip(Vf, VGh)) if VGh else 0.0
        out["condb"] = np.abs(hv - vh)
        out["condb_scale"] = 1.0 + np.abs(hv) + np.abs(vh)
    return out


def _constants_tuple(constants) -> tuple[float, float, float, float]:
    if hasattr(constants, "as_tuple"):
        return constants.as_tuple()
    n, r1, r20, r21 = constants
    return (n, r1, r20, r21)


def _cd_sides(v: dict, l, constants) -> tuple:
    """Both sides of the CD inequality (see `cd_residual`); l and v broadcast."""
    n, rho1, rho20, rho21 = _constants_tuple(constants)
    lhs = v["G2h"] + l * v["G2v"]
    rhs = v["L"] ** 2 / n + (rho1 - 1.0 / l) * v["Gh"] + (rho20 + l * rho21) * v["Gv"]
    return lhs, rhs


def cd_residual(model: LieModel, f, x, l: float, constants, order: int = DEFAULT_ORDER):
    """LHS minus RHS of the curvature-dimension inequality at x.

    Gamma2^h + l Gamma2^v - [ (Lf)^2 / n + (rho1 - 1/l) Gamma^h
    + (rho20 + l rho21) Gamma^v ]; nonnegative where the inequality
    holds for this function and weight l.
    """
    if l <= 0:
        raise ValueError(f"weight l must be positive, got {l}")
    j = _as_jet(model, f, x, order)
    calc = get_calc(model, j.base_point, j.order)
    lhs, rhs = _cd_sides(_core_values(calc, j), l, constants)
    return lhs - rhs


def _double_gamma(v: dict, l: float, c: float, rho_h: float, m_hv: float) -> tuple:
    """Slack of both gradient-of-gradient bounds from `_core_values(want="double")`."""
    q1 = rho_h - 1.0 / c
    q2 = -c * m_hv**2
    first = v["Gh"] * (
        v["G2h"] + l * v["G2v"] - (q1 - 1.0 / l) * v["Gh"] - q2 * v["Gv"]
    ) - 0.25 * v["GhGh"]
    second = v["Gv"] * v["G2v"] - 0.25 * v["GhGv"]
    return first, second


def double_gamma_residuals(
    model: LieModel,
    f,
    x,
    l: float,
    c: float,
    rho_h: float | None = None,
    m_hv: float | None = None,
    order: int = DEFAULT_ORDER,
):
    """Slack of the two gradient-of-gradient bounds at x.

    First entry: Gamma^h(f) (Gamma2^{h+lv}(f) - (rho_h - 1/c - 1/l)
    Gamma^h(f) + c m_hv^2 Gamma^v(f)) - Gamma^h(Gamma^h(f))/4.
    Second entry: Gamma^v(f) Gamma2^v(f) - Gamma^h(Gamma^v(f))/4.
    Both are nonnegative wherever the bounds hold.
    """
    if l <= 0 or c <= 0:
        raise ValueError("l and c must be positive")
    if rho_h is None or m_hv is None:
        from . import geometry

        rho_h_, _ = geometry.ricci_h(model)
        m_hv_, _, _ = geometry.mixed_bounds(model)
        rho_h = rho_h if rho_h is not None else rho_h_
        m_hv = m_hv if m_hv is not None else m_hv_
    j = _as_jet(model, f, x, order)
    calc = get_calc(model, j.base_point, j.order)
    return _double_gamma(_core_values(calc, j, want="double"), l, c, rho_h, m_hv)


def condb_residual(model: LieModel, f, x, order: int = DEFAULT_ORDER):
    """|Gamma^h(f, Gamma^v(f)) - Gamma^v(f, Gamma^h(f))| at x.

    Vanishes identically exactly when both co-metrics are parallel for
    the adapted connection, which fails beyond step 2.
    """
    j = _as_jet(model, f, x, order)
    if j.order < 2:
        raise ValueError("condition-B residual needs jet order >= 2")
    calc = get_calc(model, j.base_point, j.order)
    return _core_values(calc, j, want="condb")["condb"]


def _commutation_pair(calc: FrameCalc, j: Jet) -> tuple[np.ndarray, np.ndarray]:
    """L (Delta f) and Delta (L f) for the full Laplacian Delta."""
    a = np.asarray(calc.sublaplacian(calc.full_laplacian(j)).value)
    b = np.asarray(calc.full_laplacian(calc.sublaplacian(j)).value)
    return a, b


def commutation_residual(model: LieModel, f, x, order: int = DEFAULT_ORDER):
    """|L (Delta f) - Delta (L f)| at x for the full Laplacian Delta."""
    j = _as_jet(model, f, x, order)
    if j.order < 4:
        raise ValueError("commutation residual needs jet order >= 4")
    a, b = _commutation_pair(get_calc(model, j.base_point, j.order), j)
    return np.abs(a - b)


def log_identity_residuals(model: LieModel, f, x, order: int = DEFAULT_ORDER):
    """Residuals of the chain-rule identities behind the entropy bounds.

    For positive u: L(u log u) = (log u + 1) L u + Gamma^h(u)/u and
    u Gamma^h(log u) = Gamma^h(u)/u.  Exact on jets; returns the two
    absolute residuals at x.
    """
    j = _as_jet(model, f, x, order)
    calc = get_calc(model, j.base_point, j.order)
    logu = j.log()
    ulogu = j * logu
    lhs1 = calc.sublaplacian(ulogu).value
    Lu = calc.sublaplacian(j).value
    Gh = _sum_squares(calc.horizontal(j)).value
    u0 = j.value
    rhs1 = (np.log(u0) + 1.0) * np.asarray(Lu) + np.asarray(Gh) / np.asarray(u0)
    Ghlog = _sum_squares(calc.horizontal(logu)).value
    r1 = np.abs(np.asarray(lhs1) - rhs1)
    r2 = np.abs(np.asarray(u0) * np.asarray(Ghlog) - np.asarray(Gh) / np.asarray(u0))
    return r1, r2


# ----------------------------------------------------------------------
# Point report
# ----------------------------------------------------------------------


@dataclass
class GammaPointReport:
    """All first- and second-order form values at a single point."""

    model: str
    point: list
    Lf: float
    gamma_h: float
    gamma_v: float
    gamma2_h: float
    gamma2_v: float
    gamma2_mixed: dict = field(default_factory=dict)  # l -> value
    gamma_h_fg: float | None = None
    gamma_v_fg: float | None = None

    def to_json(self) -> dict:
        doc = dict(self.__dict__)
        doc["gamma2_mixed"] = {f"{k:g}": v for k, v in self.gamma2_mixed.items()}
        return doc


def gamma_point_report(
    model: LieModel,
    f,
    x,
    l_grid=(0.1, 1.0, 10.0),
    g=None,
    order: int = DEFAULT_ORDER,
) -> GammaPointReport:
    j = _as_jet(model, f, x, order)
    calc = get_calc(model, j.base_point, j.order)
    v = _core_values(calc, j)
    report = GammaPointReport(
        model=model.name,
        point=list(np.asarray(x, dtype=float)),
        Lf=float(v["L"]),
        gamma_h=float(v["Gh"]),
        gamma_v=float(v["Gv"]),
        gamma2_h=float(v["G2h"]),
        gamma2_v=float(v["G2v"]),
        gamma2_mixed={float(l): float(v["G2h"] + l * v["G2v"]) for l in l_grid},
    )
    if g is not None:
        report.gamma_h_fg = float(gamma(model, f, g, x, "h", order))
        report.gamma_v_fg = float(gamma(model, f, g, x, "v", order))
    return report


# ----------------------------------------------------------------------
# Batched sweeps
# ----------------------------------------------------------------------


def random_points(model: LieModel, n: int, rng: np.random.Generator, radius: float = 1.0) -> np.ndarray:
    """Sample coordinates uniformly in a box inside the chart's safe region."""
    r = radius if model.onframe.nil_step is not None else min(radius, 0.35)
    return rng.uniform(-r, r, (n, model.dim))


def cd_residual_sweep(
    model: LieModel,
    constants,
    n_functions: int,
    n_points: int,
    l_grid,
    degree: int = 4,
    seed: int = 0,
    radius: float = 1.0,
):
    """CD residuals over a seeded function/point/weight grid.

    Returns (residuals, scales) with shape (n_points, n_functions,
    len(l_grid)); scales are 1 + |LHS| + |RHS| for tolerance scaling.
    """
    rng = np.random.default_rng(seed)
    n_terms = get_space(model.dim, degree).terms(degree)
    coeffs = rng.uniform(-1.0, 1.0, (n_functions, n_terms))
    points = random_points(model, n_points, rng, radius)
    l_arr = np.asarray(list(l_grid), dtype=float)
    residuals = np.empty((n_points, n_functions, len(l_arr)))
    scales = np.empty_like(residuals)
    for p, x in enumerate(points):
        calc = get_calc(model, x, DEFAULT_ORDER)
        j = lift_polynomials(coeffs, degree, x, DEFAULT_ORDER)
        v = {k: np.asarray(val)[:, None] for k, val in _core_values(calc, j).items()}
        lhs, rhs = _cd_sides(v, l_arr[None, :], constants)
        residuals[p] = lhs - rhs
        scales[p] = 1.0 + np.abs(lhs) + np.abs(rhs)
    return residuals, scales


def double_gamma_sweep(
    model: LieModel,
    n_functions: int,
    n_points: int,
    l: float,
    c: float,
    rho_h: float,
    m_hv: float,
    degree: int = 3,
    seed: int = 0,
):
    """Residuals of both gradient-of-gradient bounds over a seeded sweep."""
    rng = np.random.default_rng(seed)
    n_terms = get_space(model.dim, degree).terms(degree)
    coeffs = rng.uniform(-1.0, 1.0, (n_functions, n_terms))
    points = random_points(model, n_points, rng)
    first = np.empty((n_points, n_functions))
    second = np.empty_like(first)
    scales = np.empty_like(first)
    for p, x in enumerate(points):
        calc = get_calc(model, x, DEFAULT_ORDER)
        j = lift_polynomials(coeffs, degree, x, DEFAULT_ORDER)
        v = _core_values(calc, j, want="double")
        first[p], second[p] = _double_gamma(v, l, c, rho_h, m_hv)
        scales[p] = 1.0 + np.abs(v["Gh"]) * (1.0 + np.abs(v["G2h"])) + np.abs(v["GhGh"])
    return first, second, scales


def condb_sweep(
    model: LieModel,
    n_samples: int,
    seed: int = 0,
    degree: int = 4,
    radius: float = 1.0,
    funcs_per_point: int = 50,
):
    """Condition-B residuals on random (function, point) pairs.

    Returns (residuals, scales) flattened over the sample grid.
    """
    rng = np.random.default_rng(seed)
    n_points = max(1, n_samples // funcs_per_point)
    n_terms = get_space(model.dim, degree).terms(degree)
    points = random_points(model, n_points, rng, radius)
    res = []
    scl = []
    for x in points:
        coeffs = rng.uniform(-1.0, 1.0, (funcs_per_point, n_terms))
        calc = get_calc(model, x, DEFAULT_ORDER)
        j = lift_polynomials(coeffs, degree, x, DEFAULT_ORDER)
        v = _core_values(calc, j, want="condb")
        res.append(np.atleast_1d(v["condb"]))
        scl.append(np.atleast_1d(v["condb_scale"]))
    return np.concatenate(res)[:n_samples], np.concatenate(scl)[:n_samples]


def commutation_sweep(
    model: LieModel,
    n_functions: int,
    n_points: int,
    degree: int = 4,
    seed: int = 0,
):
    """Commutation residuals |[L, Delta] f| over a seeded sweep."""
    rng = np.random.default_rng(seed)
    n_terms = get_space(model.dim, degree).terms(degree)
    coeffs = rng.uniform(-1.0, 1.0, (n_functions, n_terms))
    points = random_points(model, n_points, rng)
    res = np.empty((n_points, n_functions))
    scales = np.empty_like(res)
    for p, x in enumerate(points):
        calc = get_calc(model, x, DEFAULT_ORDER)
        j = lift_polynomials(coeffs, degree, x, DEFAULT_ORDER)
        a, b = _commutation_pair(calc, j)
        res[p] = np.abs(a - b)
        scales[p] = 1.0 + np.abs(a) + np.abs(b)
    return res, scales


def qform_oracle_residual(model: LieModel, f, x, order: int = DEFAULT_ORDER):
    """Two-route check of Gamma^h: frame sum vs (L(f^2) - 2 f L f)/2."""
    j = _as_jet(model, f, x, order)
    calc = get_calc(model, j.base_point, j.order)
    frame_sum = np.asarray(_sum_squares(calc.horizontal(j)).value)
    via_l = 0.5 * (
        np.asarray(calc.sublaplacian(j * j).value)
        - 2.0 * np.asarray(j.value) * np.asarray(calc.sublaplacian(j).value)
    )
    return np.abs(frame_sum - via_l), 1.0 + np.abs(frame_sum) + np.abs(via_l)
