"""Pointwise carre-du-champ calculus for the sub-Laplacian.

For the operator L = sum_i A_i^2 (the chart rejects a horizontal frame
with divergence, where L would have a first-order part) the forms
evaluated here are

    Gamma^h(f, g)   = sum_i (A_i f)(A_i g)
    Gamma^v(f, g)   = sum_s (V_s f)(V_s g)
    Gamma2^s(f)     = (L Gamma^s(f) - 2 Gamma^s(f, L f)) / 2

with A_i, V_s the orthonormalized horizontal and vertical frames.  All
evaluation goes through exact jet arithmetic, so residuals of the
curvature-dimension inequality and of the pointwise identities are
computed without discretization error; on polynomials the only noise
is floating point roundoff.  Each measure forms a frame derivative of
a jet once and hands it to every value that reads it, the Laplacians
included.

The CD inequality reads only the 2-jet of f at x: the third derivatives
cancel from Gamma2.  `cd_forms` turns L, Gamma and Gamma2 at x into a
vector and symmetric matrices on 2-jets, and `cd_residual_sweep`
evaluates them on each sampled function's 2-jet; the scalar
`cd_residual` keeps the jet route, so the two check each other.
"""

from __future__ import annotations

import numpy as np

from . import geometry, jets
from .frames import FrameCalc, get_calc
from .jets import Jet, get_space, lift_polynomials
from .models import LieModel

DEFAULT_ORDER = 4


def _at(model: LieModel, f, x) -> tuple[FrameCalc, Jet]:
    """Frame operators and jet of f at x; a Jet f brings its own point and order."""
    j = f if isinstance(f, Jet) else f.lift(np.asarray(x, dtype=float), DEFAULT_ORDER)
    return get_calc(model, j.base_point, j.order), j


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


def sublaplacian(model: LieModel, f, x):
    """L f at x."""
    calc, j = _at(model, f, x)
    return calc.sublaplacian(calc.horizontal(j)).value


def gamma(model: LieModel, f, g=None, x=None, which: str = "h"):
    """Gamma^which(f, g) at x; g defaults to f."""
    calc, jf = _at(model, f, x)
    if g is None or g is f:
        jg = jf
    else:
        jg = g if isinstance(g, Jet) else g.lift(np.asarray(x, dtype=float), DEFAULT_ORDER)
    pf = calc.horizontal(jf) if which == "h" else calc.vertical(jf)
    pg = pf if jg is jf else (calc.horizontal(jg) if which == "h" else calc.vertical(jg))
    return _pair_value(pf, pg)


def gamma2(model: LieModel, f, x, which: str = "h", l: float | None = None):
    """Iterated form Gamma2 at x; which in {h, v, mixed}.

    "mixed" returns Gamma2^h + l Gamma2^v and needs l > 0.
    """
    calc, j = _at(model, f, x)
    if j.order < 3:
        raise ValueError(f"Gamma2 needs a jet of order >= 3, got {j.order}")
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


def _core_values(calc: FrameCalc, j: Jet) -> dict:
    """L, Gamma, Gamma2 and Gamma^h of Gamma^h and Gamma^v; j may be a batched
    jet of order >= 3.  Each frame derivative is formed once, and every
    value that needs it reads that one jet."""
    Af = calc.horizontal(j)
    Vf = calc.vertical(j)
    Lf = calc.sublaplacian(Af)
    out = {"L": np.asarray(Lf.value), "Gv": 0.0, "G2v": 0.0, "GhGv": 0.0}
    for s, parts, along in (("h", Af, calc.horizontal), ("v", Vf, calc.vertical)):
        if not parts:
            continue
        G = _sum_squares(parts)
        AG = calc.horizontal(G)
        out[f"G{s}"] = np.asarray(G.value)
        LG = calc.sublaplacian(AG)
        out[f"G2{s}"] = 0.5 * np.asarray(LG.value) - _pair_value(parts, along(Lf))
        out[f"GhG{s}"] = sum(np.asarray(g.value) ** 2 for g in AG)
    return out


# ----------------------------------------------------------------------
# Measures (calc, jet) -> (residual..., scale) for the scalar API and sweeps;
# CD takes the values of L, Gamma and Gamma2 instead, from jets or 2-jet forms
# ----------------------------------------------------------------------


def _cd(values: dict, l, constants) -> tuple:
    """CD residual (see `cd_residual`) and scale; the weights l take the last axes."""
    n, rho1, rho20, rho21 = constants.n, constants.rho1, constants.rho20, constants.rho21
    axes = tuple(range(-np.ndim(l), 0))
    v = {k: np.expand_dims(val, axes) for k, val in values.items()}
    lhs = v["G2h"] + l * v["G2v"]
    rhs = v["L"] ** 2 / n + (rho1 - 1.0 / l) * v["Gh"] + (rho20 + l * rho21) * v["Gv"]
    return lhs - rhs, 1.0 + np.abs(lhs) + np.abs(rhs)


def _double_gamma_inputs(model: LieModel) -> tuple[float, float]:
    """(rho_H, M_HV) of the model as given, unnormalized: the bounds' curvature inputs."""
    return geometry.ricci_h(model)[0], geometry.mixed_bounds(model)[0]


def _double_gamma(calc: FrameCalc, j: Jet, l: float, c: float, rho_h: float, m_hv: float) -> tuple:
    """Slack of both gradient-of-gradient bounds (see `double_gamma_residuals`) and scale."""
    v = _core_values(calc, j)
    q1 = rho_h - 1.0 / c
    q2 = -c * m_hv**2
    first = v["Gh"] * (
        v["G2h"] + l * v["G2v"] - (q1 - 1.0 / l) * v["Gh"] - q2 * v["Gv"]
    ) - 0.25 * v["GhGh"]
    second = v["Gv"] * v["G2v"] - 0.25 * v["GhGv"]
    return first, second, 1.0 + np.abs(v["Gh"]) * (1.0 + np.abs(v["G2h"])) + np.abs(v["GhGh"])


def _condb(calc: FrameCalc, j: Jet) -> tuple:
    """Condition-B residual (see `condb_residual`) and scale."""
    Af = calc.horizontal(j)
    Vf = calc.vertical(j)
    hv = vh = 0.0
    if Vf:
        hv = _pair_value(Af, calc.horizontal(_sum_squares(Vf)))
        vh = _pair_value(Vf, calc.vertical(_sum_squares(Af)))
    return np.abs(hv - vh), 1.0 + np.abs(hv) + np.abs(vh)


def _commutation(calc: FrameCalc, j: Jet) -> tuple:
    """|L (Delta f) - Delta (L f)| for the full Laplacian Delta, and scale."""
    n = calc.model.dim_h
    Ef = calc.horizontal(j) + calc.vertical(j)
    Lf = calc.sublaplacian(Ef[:n])
    ELf = calc.horizontal(Lf) + calc.vertical(Lf)
    a = np.asarray(calc.sublaplacian(calc.horizontal(calc.full_laplacian(Lf, Ef))).value)
    b = np.asarray(calc.full_laplacian(calc.sublaplacian(ELf[:n]), ELf).value)
    return np.abs(a - b), 1.0 + np.abs(a) + np.abs(b)


def cd_residual(model: LieModel, f, x, l, constants):
    """LHS minus RHS of the curvature-dimension inequality at x.

    Gamma2^h + l Gamma2^v - [ (Lf)^2 / n + (rho1 - 1/l) Gamma^h
    + (rho20 + l rho21) Gamma^v ]; nonnegative where the inequality
    holds for this function and weight l.  An array of weights l
    gives one residual per weight, on its last axes.
    """
    if np.any(np.asarray(l) <= 0):
        raise ValueError(f"weight l must be positive, got {l}")
    return _cd(_core_values(*_at(model, f, x)), l, constants)[0]


def double_gamma_residuals(model: LieModel, f, x, l: float, c: float):
    """Slack of the two gradient-of-gradient bounds at x.

    First entry: Gamma^h(f) (Gamma2^{h+lv}(f) - (rho_H - 1/c - 1/l)
    Gamma^h(f) + c M_HV^2 Gamma^v(f)) - Gamma^h(Gamma^h(f))/4, with
    rho_H and M_HV of the model as given (`_double_gamma_inputs`).
    Second entry: Gamma^v(f) Gamma2^v(f) - Gamma^h(Gamma^v(f))/4.
    Both are nonnegative wherever the bounds hold.
    """
    if l <= 0 or c <= 0:
        raise ValueError("l and c must be positive")
    return _double_gamma(*_at(model, f, x), l, c, *_double_gamma_inputs(model))[:2]


def condb_residual(model: LieModel, f, x):
    """|Gamma^h(f, Gamma^v(f)) - Gamma^v(f, Gamma^h(f))| at x.

    Vanishes identically exactly when both co-metrics are parallel for
    the adapted connection, which fails beyond step 2.
    """
    calc, j = _at(model, f, x)
    if j.order < 2:
        raise ValueError("condition-B residual needs jet order >= 2")
    return _condb(calc, j)[0]


def commutation_residual(model: LieModel, f, x):
    """|L (Delta f) - Delta (L f)| at x for the full Laplacian Delta."""
    calc, j = _at(model, f, x)
    if j.order < 4:
        raise ValueError("commutation residual needs jet order >= 4")
    return _commutation(calc, j)[0]


def log_identity_residuals(model: LieModel, f, x):
    """Residuals of the chain-rule identities behind the entropy bounds.

    For positive u: L(u log u) = (log u + 1) L u + Gamma^h(u)/u and
    u Gamma^h(log u) = Gamma^h(u)/u.  Exact on jets; returns the two
    absolute residuals at x.
    """
    calc, j = _at(model, f, x)
    logu = j.log()
    ulogu = j * logu
    Au = calc.horizontal(j)
    lhs1 = calc.sublaplacian(calc.horizontal(ulogu)).value
    Lu = calc.sublaplacian(Au).value
    Gh = _sum_squares(Au).value
    u0 = j.value
    rhs1 = (np.log(u0) + 1.0) * np.asarray(Lu) + np.asarray(Gh) / np.asarray(u0)
    Ghlog = _sum_squares(calc.horizontal(logu)).value
    r1 = np.abs(np.asarray(lhs1) - rhs1)
    r2 = np.abs(np.asarray(u0) * np.asarray(Ghlog) - np.asarray(Gh) / np.asarray(u0))
    return r1, r2


# ----------------------------------------------------------------------
# Forms on 2-jets
# ----------------------------------------------------------------------


def cd_forms(model: LieModel, x) -> dict:
    """L, Gamma^h, Gamma^v, Gamma2^h and Gamma2^v at x as forms on 2-jets.

    A 2-jet c is the Taylor coefficients of degree 1 and 2 of f at x,
    in the graded order of `jets`.  "L" holds the vector with L f(x) =
    "L" . c; the other keys hold symmetric matrices Q with value c^T Q c.
    The third derivatives cancel from Gamma2, so these hold for every f.
    Built by one `_core_values` call on the basis jets e_a and their
    sums e_a + e_b (a < b), then polarized.
    """
    order = 3  # the lowest order at which Gamma2 is exact
    sp = get_space(model.dim, order)
    n = sp.terms(2) - 1
    a, b = np.triu_indices(n, 1)
    basis = np.eye(n)
    coeffs = np.zeros((n + len(a), sp.terms(order)))
    coeffs[:, 1 : n + 1] = np.concatenate([basis, basis[a] + basis[b]])
    values = _core_values(get_calc(model, x, order), Jet(x, order, coeffs))
    forms = {"L": values["L"][:n]}
    for key in ("Gh", "Gv", "G2h", "G2v"):
        q = np.broadcast_to(values[key], len(coeffs))
        form = np.diag(q[:n])
        form[a, b] = form[b, a] = 0.5 * (q[n:] - q[a] - q[b])
        forms[key] = form
    return forms


def _form_values(forms: dict, c: np.ndarray) -> dict:
    """The forms of `cd_forms` evaluated on the 2-jets c, shape (..., n)."""
    out = {"L": c @ forms["L"]}
    for key in ("Gh", "Gv", "G2h", "G2v"):
        out[key] = np.sum((c @ forms[key]) * c, axis=-1)
    return out


# ----------------------------------------------------------------------
# Batched sweeps
# ----------------------------------------------------------------------


def random_points(model: LieModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample coordinates uniformly in a box inside the chart's safe region."""
    r = 1.0 if model.onframe.nil_step is not None else 0.35
    return rng.uniform(-r, r, (n, model.dim))


SWEEP_BLOCK = 2048  # coefficient rows per block of a sweep's shared batch


def _draws(model: LieModel, n_functions: int, n_points: int, degree: int, seed: int) -> tuple:
    """Seeded points and one coefficient batch shared by them, as (points, blocks).

    The seed's stream holds the batch, (n_functions, n_terms) uniforms,
    then the points.  The points are drawn first, from a second generator
    advanced past the batch (PCG64 advances exactly, and each uniform
    double takes one 64-bit output); `blocks` then yields the batch from
    the first generator in blocks of `SWEEP_BLOCK` rows, so every draw
    is the one a single call would give.
    """
    n_terms = get_space(model.dim, degree).terms(degree)
    rng = np.random.default_rng(seed)
    ahead = np.random.default_rng(seed)
    ahead.bit_generator.advance(n_functions * n_terms)
    points = random_points(model, n_points, ahead)

    def blocks():
        for lo in range(0, n_functions, SWEEP_BLOCK):
            yield rng.uniform(-1.0, 1.0, (min(SWEEP_BLOCK, n_functions - lo), n_terms))

    return points, blocks()


def _sweep(points, blocks, n_functions: int, at_point) -> tuple:
    """Every part of at_point(x)(coeffs), shape (n_points, n_functions, ...).

    Blocks are outer and points inner, so each block is drawn once and
    read at every point.  A point's set-up at_point(x) is built at its
    first block and dropped after its last, so a sweep of one block
    holds one point's set-up at a time.
    """
    setups = [None] * len(points)
    out = None
    lo = 0
    for coeffs in blocks:
        hi = lo + len(coeffs)
        for p, x in enumerate(points):
            evaluate = setups[p] or at_point(x)
            setups[p] = evaluate if hi < n_functions else None
            parts = evaluate(coeffs)
            if out is None:
                shape = np.broadcast_shapes(*(np.shape(part) for part in parts))
                out = tuple(np.empty((len(points), n_functions) + shape[1:]) for _ in parts)
            for o, part in zip(out, parts):
                o[p, lo:hi] = part
        lo = hi
    return out


def _on_jets(model: LieModel, degree: int, measure):
    """at_point for `_sweep`: measure(calc, jet) on the polynomials' jets at x,
    with the frame operators and the shift matrix built once per point."""

    def at_point(x):
        calc = get_calc(model, x, DEFAULT_ORDER)
        shift = jets.polynomial_shift_matrix(x, len(x), degree, DEFAULT_ORDER)
        return lambda coeffs: measure(
            calc, lift_polynomials(coeffs, degree, x, DEFAULT_ORDER, shift)
        )

    return at_point


def cd_residual_sweep(
    model: LieModel,
    constants,
    n_functions: int,
    n_points: int,
    l_grid,
    seed: int,
):
    """CD residuals of seeded quartics over a point/weight grid.

    Returns (residuals, scales) with shape (n_points, n_functions,
    len(l_grid)); scales are 1 + |LHS| + |RHS| for tolerance scaling.
    Each function enters through its 2-jet at the point, on the forms
    of `cd_forms`; the scalar `cd_residual` is the jet route.
    """
    l_arr = np.asarray(list(l_grid), dtype=float)

    def at_point(x):
        forms = cd_forms(model, x)
        shift = jets.polynomial_shift_matrix(x, len(x), 4, 2)
        return lambda coeffs: _cd(
            _form_values(forms, lift_polynomials(coeffs, 4, x, 2, shift).coeffs[..., 1:]),
            l_arr,
            constants,
        )

    return _sweep(*_draws(model, n_functions, n_points, 4, seed), n_functions, at_point)


def double_gamma_sweep(
    model: LieModel, n_functions: int, n_points: int, l: float, c: float, seed: int
):
    """Residuals of both gradient-of-gradient bounds over seeded cubics."""
    inputs = _double_gamma_inputs(model)
    draws = _draws(model, n_functions, n_points, 3, seed)
    measure = _on_jets(model, 3, lambda calc, j: _double_gamma(calc, j, l, c, *inputs))
    return _sweep(*draws, n_functions, measure)


def condb_sweep(model: LieModel, n_samples: int, seed: int):
    """Condition-B residuals on n_samples random (quartic, point) pairs.

    Each point gets its own 50 quartics, drawn after all the points;
    returns (residuals, scales) flattened over the sample grid, cut to
    n_samples.
    """
    rng = np.random.default_rng(seed)
    n_points = max(1, -(-n_samples // 50))
    n_terms = get_space(model.dim, 4).terms(4)
    at_point = _on_jets(model, 4, _condb)
    parts = [
        _sweep([x], [rng.uniform(-1.0, 1.0, (50, n_terms))], 50, at_point)
        for x in random_points(model, n_points, rng)
    ]
    return tuple(np.concatenate(p, axis=None)[:n_samples] for p in zip(*parts))


def commutation_sweep(model: LieModel, n_functions: int, n_points: int, seed: int):
    """Commutation residuals |[L, Delta] f| over seeded quartics."""
    draws = _draws(model, n_functions, n_points, 4, seed)
    return _sweep(*draws, n_functions, _on_jets(model, 4, _commutation))


def qform_oracle_residual(model: LieModel, f, x):
    """Two-route check of Gamma^h: frame sum vs (L(f^2) - 2 f L f)/2."""
    calc, j = _at(model, f, x)
    Af = calc.horizontal(j)
    frame_sum = np.asarray(_sum_squares(Af).value)
    via_l = 0.5 * (
        np.asarray(calc.sublaplacian(calc.horizontal(j * j)).value)
        - 2.0 * np.asarray(j.value) * np.asarray(calc.sublaplacian(Af).value)
    )
    return np.abs(frame_sum - via_l), 1.0 + np.abs(frame_sum) + np.abs(via_l)
