"""Carnot-Caratheodory distance estimation.

Two routes:

* Heisenberg: exact geodesics.  The distance from the identity to a
  point solves a scalar equation, increasing in the rotation angle of
  the optimal control; one vectorised bisection solves it for a whole
  batch of points, each down to adjacent floats, and left invariance
  reduces general pairs to this case.  Next to the vertical axis,
  where the angle is unresolved, the triangle inequality through
  (0, 0, z) brackets it.
* Every other model: the length of an admissible curve, a true upper
  bound.  Shooting minimises the energy of piecewise-constant
  horizontal controls whose product of exponentials, taken with the
  model's exact group law, reaches the endpoint.  On models of step
  <= 2 an explicit curve competes (a straight horizontal segment, then
  rectangular commutator loops for the remaining vertical
  displacement) and the shorter one is reported.  Lower bounds come
  from projections: the abelianization on nilpotent models (horizontal
  curves project to Euclidean curves of the same length) and the
  declared su(2) factors on su2-pair, each scaled by its horizontal
  gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .models import LieModel, is_heisenberg

#: piecewise-constant horizontal controls per shooting curve, seeded
#: starts, the seed, and the SLSQP iteration cap of each start
SHOOT_PIECES = 16
SHOOT_STARTS = 4
SHOOT_SEED = 0
SHOOT_MAXITER = 200


@dataclass
class DistanceEstimate:
    """Distance value with the bracket that certifies it."""

    value: float
    lower: float
    upper: float
    method: str

    def to_json(self) -> dict:
        return dict(self.__dict__)


def _angle_m(phi: np.ndarray) -> np.ndarray:
    """m(phi) = (phi - sin phi) / (2 sin^2(phi/2)), increasing on (0, 2 pi)."""
    s = np.sin(0.5 * phi)
    return (phi - np.sin(phi)) / (2.0 * s * s)


def _angle_lengths(rho: np.ndarray, az: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic lengths from the identity to points at horizontal radius rho
    > 0 and height |z| = az > 0, and where they resolve the distance.

    The optimal control rotates at constant rate; the angle phi it sweeps
    solves m(phi) = 4 |z| / rho^2, which one bisection over every point
    solves down to adjacent floats, each point stopping on its own.  The
    length is rho phi / (2 sin(phi / 2)).  It is unresolved where the
    target lies beyond the bracket of phi (the endpoint almost on the
    axis) or where, as phi -> 2 pi, it has lost its digits: d lies within
    rho of 2 sqrt(pi |z|).
    """
    # float_power is C pow, as Python's rho**2 is; np.square rounds
    # differently in the last bit for some rho
    target = 4.0 * az / np.float_power(rho, 2)
    lo = np.full(target.shape, 1e-9)
    hi = np.full(target.shape, 2.0 * np.pi - 1e-9)
    inside = _angle_m(hi) >= target
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        below = _angle_m(mid) < target
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)
    length = rho * hi / (2.0 * np.sin(0.5 * hi))
    return length, inside & (np.abs(length - 2.0 * np.sqrt(np.pi * az)) <= rho)


def _heisenberg_estimates(model: LieModel, rel: np.ndarray) -> list[DistanceEstimate]:
    """Exact distances from the identity to the rows of rel, one batch.

    A row with z = 0 is at its horizontal radius rho (so a zero row at
    +0.0, bounds included); one on the vertical axis at 2 sqrt(pi |z|).
    Next to the axis, where `_angle_lengths` does not resolve the
    angle, the triangle inequality through (0, 0, z) brackets the
    distance within rho of that value (method "bracket").
    """
    rho = np.hypot(rel[:, 0], rel[:, 1])
    az = np.abs(rel[:, 2])
    value = rho.copy()
    vertical = az >= 1e-14
    value[vertical] = 2.0 * np.sqrt(np.pi * az[vertical])
    resolved = np.ones(len(rel), dtype=bool)
    solve = vertical & (rho >= 1e-14)
    length, resolved[solve] = _angle_lengths(rho[solve], az[solve])
    value[solve] = np.where(resolved[solve], length, value[solve])
    lower = np.where(resolved, np.minimum(_nilpotent_lower(model, rel), value), value - rho)
    upper = np.where(resolved, np.maximum(_nilpotent_upper(model, rel), value), value + rho)
    return [
        DistanceEstimate(float(v), float(lo), float(hi), "geodesic-shooting" if ok else "bracket")
        for v, lo, hi, ok in zip(value, lower, upper, resolved)
    ]


def _nilpotent_lower(model: LieModel, rel: np.ndarray) -> np.ndarray:
    """Euclidean length of the horizontal part of the relative positions (rows of rel).

    For nilpotent models the abelianization is a Riemannian submersion
    onto Euclidean space in these coordinates, so this is a true lower
    bound.  np.vecdot takes each row's dot product as np.linalg.norm of
    that row alone does.
    """
    h = rel[..., : model.dim_h]
    return np.sqrt(np.vecdot(h, h))


def _nilpotent_upper(model: LieModel, rel: np.ndarray) -> np.ndarray:
    """Length of an explicit admissible curve for step <= 2 models, per row of rel.

    Straight horizontal segment first, then one rectangular loop per
    remaining vertical coordinate: a loop of side s in the (i, j) plane
    translates by exp(s^2 [A_i, A_j]) at cost 4 s.
    """
    n = model.dim_h
    total = _nilpotent_lower(model, rel)
    seg = np.zeros(rel.shape)
    seg[..., :n] = rel[..., :n]
    rest = model.compose(model.inverse(seg), rel)
    c = model.onframe.c
    for s in range(n, model.dim):
        zs = np.abs(rest[..., s])
        skip = zs < 1e-15
        amp = np.max(np.abs(c[s, :n, :n]))
        if amp <= 1e-14:
            total = np.where(skip, total, np.inf)
        else:
            total = total + np.where(skip, 0.0, 4.0 * np.sqrt(zs / amp))
    return total


def _su2_lower(model: LieModel, rel: np.ndarray) -> float:
    """Projection lower bound onto the declared su(2) factors.

    A unit-speed horizontal curve projects onto factor k with speed at
    most its horizontal gain |Q[k][:, :dim_h]|_2 in the metric |x| of
    X-coefficients, Q = `onframe.ideals[1]`, and the factor distance is
    |x| at the principal logarithm, which rel holds (it comes from
    `compose`).
    """
    m = model.onframe.ideals[1]
    gains = np.linalg.norm(m[..., : model.dim_h], ord=2, axis=(1, 2))
    return float(np.max(np.linalg.norm(m @ rel, axis=1) / gains))


def _suffix_products(model: LieModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The controls in the flat vector v as algebra coordinates, and their suffix products.

    Row k of the second array holds exp(u_k) ... exp(u_K), a last row
    the identity.  A doubling scan: after the round of offset o, row k
    holds the product of pieces k .. k + 2o - 1, so log2 K batched
    products suffice.
    """
    k = SHOOT_PIECES
    pieces = np.zeros((k, model.dim))
    pieces[:, : model.dim_h] = v.reshape(k, model.dim_h)
    s = np.vstack([pieces, np.zeros(model.dim)])
    o = 1
    while o < k:
        s[: k - o] = model.compose(s[: k - o], s[o:k])
        o *= 2
    return pieces, s


def _endpoint_jacobian(model: LieModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint of the controls v and its Jacobian, shape (d, K n).

    With F = frame_coefficients, moving u_k by delta moves exp(u_k) to
    exp(u_k) exp(F(u_k)^-1 delta); carried past the suffix B_k and read
    in coordinates at the endpoint G, that is
    J_k = F(G) exp(-ad B_k) F(u_k)^-1 on the horizontal directions.
    """
    frame = model.onframe
    pieces, s = _suffix_products(model, v)
    f_inv = np.linalg.inv(algebra.frame_coefficients(frame, pieces))
    blocks = (
        algebra.frame_coefficients(frame, s[0])
        @ algebra.adjoint_inverse(frame, s[1:])
        @ f_inv[..., : model.dim_h]
    )
    return s[0], np.concatenate(blocks, axis=1)


def _shooting_upper(model: LieModel, rel: np.ndarray) -> float:
    """Length of the shortest admissible curve found from the identity to rel.

    Each start minimises the energy sum |u_k|^2 of SHOOT_PIECES
    piecewise-constant horizontal controls under the constraint
    coords(exp(u_1) ... exp(u_K)) = rel (SLSQP), then takes least-norm
    Newton steps onto the endpoint.  A curve that meets it to
    1e-12 (1 + |rel|) has length sum |u_k| >= d(0, rel); inf is
    returned if no start does.
    """
    from scipy.optimize import minimize

    n = model.dim_h
    rng = np.random.default_rng(SHOOT_SEED)
    scale = np.sqrt(np.linalg.norm(rel)) / SHOOT_PIECES
    tol = 1e-12 * (1.0 + np.linalg.norm(rel))
    constraint = {
        "type": "eq",
        "fun": lambda v: _suffix_products(model, v)[1][0] - rel,
        "jac": lambda v: _endpoint_jacobian(model, v)[1],
    }
    best = np.inf
    for _ in range(SHOOT_STARTS):
        # the straight segment is a degenerate start, so every start is perturbed
        # on the length scale sqrt|rel| of a loop that reaches a vertical rel
        v = rel[:n] / SHOOT_PIECES + scale * rng.standard_normal((SHOOT_PIECES, n))
        v = minimize(lambda v: v @ v, v.ravel(), jac=lambda v: 2.0 * v, method="SLSQP",
                     constraints=constraint, options={"maxiter": SHOOT_MAXITER, "ftol": 1e-10}).x
        for _ in range(3):
            end, jac = _endpoint_jacobian(model, v)
            v = v - np.linalg.lstsq(jac, end - rel, rcond=None)[0]
        if np.linalg.norm(constraint["fun"](v)) <= tol:
            length = float(np.linalg.norm(v.reshape(SHOOT_PIECES, n), axis=1).sum())
            best = min(best, length)
    return best


def cc_distance(model: LieModel, x, y) -> DistanceEstimate:
    """Distance estimate between coordinate points x and y: `cc_distances`
    of one pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return cc_distances(model, x[None], y[None])[0]


def cc_distances(model: LieModel, xs, ys) -> list[DistanceEstimate]:
    """Distance estimates between the coordinate points xs[k] and ys[k].

    Heisenberg pairs are exact (geodesic shooting), all in one batch,
    except next to the vertical axis, where a triangle-inequality
    bracket is returned.  On every other model, pair by pair, value =
    upper is the length of the shortest admissible curve found (method
    "shooting-upper"): the shooting curve, or on step <= 2 models the
    commutator-loop curve if that is shorter; ValueError is raised if
    neither exists.  On a model that is not bracket-generating,
    endpoints that differ off the subgroup the horizontal frame
    generates raise ValueError before any search.  Coincident points
    are at 0.0, bounds included, under each route's own label.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rel = model.compose(model.inverse(xs), ys)
    if is_heisenberg(model):
        return _heisenberg_estimates(model, rel)
    return [_shooting_estimate(model, r) for r in rel]


def _shooting_estimate(model: LieModel, rel: np.ndarray) -> DistanceEstimate:
    """The estimate of `cc_distances` off Heisenberg, from the identity to rel."""
    if not np.any(rel):
        return DistanceEstimate(0.0, 0.0, 0.0, "shooting-upper")
    span, _ = algebra.bracket_filtration(model.onframe.c, model.dim_h)
    if np.linalg.norm(rel - rel @ span.T @ span) > 1e-12 * (1.0 + np.linalg.norm(rel)):
        raise ValueError(
            f"{model.name} is not bracket-generating and the endpoints differ "
            "off the subgroup its horizontal frame generates, so no horizontal "
            "path joins them"
        )

    # compose has raised already unless the model declares su(2) factors or is nilpotent
    if model.su2_factors is not None:
        lower = _su2_lower(model, rel)
    else:
        lower = float(_nilpotent_lower(model, rel))
    upper = _shooting_upper(model, rel)
    if model.onframe.nil_step in (1, 2):
        upper = min(upper, float(_nilpotent_upper(model, rel)))
    if not np.isfinite(upper):
        raise ValueError(
            f"no shooting start reached the endpoint on {model.name}, "
            "so no admissible curve bounds the distance"
        )
    return DistanceEstimate(upper, min(lower, upper), upper, "shooting-upper")
