"""Carnot-Caratheodory distance estimation.

Two routes:

* Heisenberg: exact geodesics.  Distances from the identity solve a
  single scalar equation, increasing in the rotation angle of the
  optimal control, which bisection solves down to adjacent floats;
  left invariance reduces general pairs to this case.  Next to the
  vertical axis, where the angle is unresolved, the triangle
  inequality through (0, 0, z) brackets it.
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

import math
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


def _heisenberg_from_identity(p: np.ndarray) -> float | None:
    """Exact distance from the identity, None where the angle is unresolved."""
    x, y, z = p
    rho = float(np.hypot(x, y))
    az = abs(float(z))
    if az < 1e-14:
        return rho
    if rho < 1e-14:
        return 2.0 * np.sqrt(np.pi * az)

    # optimal control rotates at constant rate; the angle phi swept by
    # the control solves m(phi) = 4 |z| / rho^2 with
    # m(phi) = (phi - sin phi) / (2 sin^2(phi/2)), increasing on (0, 2 pi)
    target = 4.0 * az / rho**2

    def m(phi):
        s = math.sin(0.5 * phi)
        return (phi - math.sin(phi)) / (2.0 * s * s)

    lo, hi = 1e-9, 2.0 * np.pi - 1e-9
    if m(hi) < target:
        # target beyond solver bracket (endpoint almost on the center)
        return None
    # bisect until lo and hi are adjacent floats
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if m(mid) < target else (lo, mid)
    phi = hi
    value = float(rho * phi / (2.0 * np.sin(0.5 * phi)))
    # as phi -> 2 pi the length loses its digits; d lies within rho of 2 sqrt(pi |z|)
    return value if abs(value - 2.0 * np.sqrt(np.pi * az)) <= rho else None


def _nilpotent_lower(model: LieModel, rel: np.ndarray) -> float:
    """Euclidean length of the horizontal part of the relative position.

    For nilpotent models the abelianization is a Riemannian submersion
    onto Euclidean space in these coordinates, so this is a true lower
    bound.
    """
    return float(np.linalg.norm(rel[: model.dim_h]))


def _nilpotent_upper(model: LieModel, rel: np.ndarray) -> float:
    """Length of an explicit admissible curve for step <= 2 models.

    Straight horizontal segment first, then one rectangular loop per
    remaining vertical coordinate: a loop of side s in the (i, j) plane
    translates by exp(s^2 [A_i, A_j]) at cost 4 s.
    """
    n = model.dim_h
    length = float(np.linalg.norm(rel[:n]))
    seg = np.zeros(model.dim)
    seg[:n] = rel[:n]
    rest = model.compose(model.inverse(seg), rel)
    c = model.onframe.c
    total = length
    for s in range(n, model.dim):
        zs = rest[s]
        if abs(zs) < 1e-15:
            continue
        block = c[s, :n, :n]
        amp = np.max(np.abs(block))
        if amp <= 1e-14:
            return np.inf
        total += 4.0 * np.sqrt(abs(zs) / amp)
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
    """Distance estimate between coordinate points x and y.

    Heisenberg pairs are exact (geodesic shooting) except next to the
    vertical axis, where a triangle-inequality bracket is returned.  On
    every other model value = upper is the length of the shortest
    admissible curve found (method "shooting-upper"): the shooting
    curve, or on step <= 2 models the commutator-loop curve if that is
    shorter; ValueError is raised if neither exists.  On a model that
    is not bracket-generating, endpoints that differ off the subgroup
    the horizontal frame generates raise ValueError before any search.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rel = model.compose(model.inverse(x), y)
    if not np.any(rel):
        # the zero-length curve: exact, under each route's own label
        return DistanceEstimate(
            0.0, 0.0, 0.0, "geodesic-shooting" if is_heisenberg(model) else "shooting-upper"
        )

    if is_heisenberg(model):
        value = _heisenberg_from_identity(rel)
        if value is None:
            axis = float(2.0 * np.sqrt(np.pi * abs(rel[2])))
            rho = float(np.hypot(rel[0], rel[1]))
            return DistanceEstimate(axis, axis - rho, axis + rho, "bracket")
        lower = _nilpotent_lower(model, rel)
        upper = _nilpotent_upper(model, rel)
        return DistanceEstimate(
            value, min(lower, value), max(upper, value), "geodesic-shooting"
        )

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
        lower = _nilpotent_lower(model, rel)
    upper = _shooting_upper(model, rel)
    if model.onframe.nil_step in (1, 2):
        upper = min(upper, _nilpotent_upper(model, rel))
    if not np.isfinite(upper):
        raise ValueError(
            f"no shooting start reached the endpoint on {model.name}, "
            "so no admissible curve bounds the distance"
        )
    return DistanceEstimate(upper, min(lower, upper), upper, "shooting-upper")
