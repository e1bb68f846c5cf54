"""Carnot-Caratheodory distance estimation.

Three routes, in decreasing order of sharpness:

* Heisenberg: exact geodesics.  Distances from the identity solve a
  single scalar equation in the rotation angle of the optimal control,
  handled by a bracketing root solve; left invariance reduces general
  pairs to this case.  Next to the vertical axis, where the angle is
  unresolved, the triangle inequality through (0, 0, z) brackets it.
* Step-2 nilpotent groups: exact lower bound from the abelianization
  (horizontal curves project to Euclidean curves of the same length)
  and an explicit admissible curve for the upper bound: a straight
  horizontal segment followed by rectangular commutator loops that
  generate the remaining vertical displacement.
* Anything else: Dijkstra on an epsilon-lattice whose edges are exact
  horizontal group steps snapped to the lattice; the spacing is
  reported so the resolution of the estimate is visible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .models import LieModel, is_heisenberg, validate


@dataclass
class DistanceEstimate:
    """Distance value with the bracket that certifies it."""

    value: float
    lower: float
    upper: float
    method: str
    epsilon: float | None = None

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
        s = np.sin(0.5 * phi)
        return (phi - np.sin(phi)) / (2.0 * s * s)

    lo, hi = 1e-9, 2.0 * np.pi - 1e-9
    if m(hi) < target:
        # target beyond solver bracket (endpoint almost on the center)
        return None
    phi = brentq(lambda q: m(q) - target, lo, hi, xtol=1e-14, rtol=1e-15)
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


def _nilpotent_upper(model: LieModel, x: np.ndarray, y: np.ndarray) -> float:
    """Length of an explicit admissible curve for step <= 2 models.

    Straight horizontal segment first, then one rectangular loop per
    remaining vertical coordinate: a loop of side s in the (i, j) plane
    translates by exp(s^2 [A_i, A_j]) at cost 4 s.
    """
    n = model.dim_h
    rel = model.compose(model.inverse(x), y)
    length = float(np.linalg.norm(rel[:n]))
    seg = np.zeros(model.dim)
    seg[:n] = rel[:n]
    rest = model.compose(model.inverse(model.compose(x, seg)), y)
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


def _su2_pair_lower(model: LieModel, rel: np.ndarray) -> float:
    """Projection lower bound onto either group factor.

    Both factor projections are Riemannian submersions once the base
    metric is scaled to match the horizontal one, so the larger factor
    distance bounds the horizontal distance from below.
    """
    from .models import _su2_pair_coords_to_algebra

    rho = float(model.params.get("rho", 1.0))
    a, b = _su2_pair_coords_to_algebra(model, rel)
    d1 = np.linalg.norm(a, axis=0) / np.sqrt(2.0 * rho)
    d2 = np.linalg.norm(b, axis=0) / (2.0 * np.sqrt(2.0 * rho))
    return float(max(d1, d2))


def _generated_span(model: LieModel) -> np.ndarray:
    """Orthonormal rows spanning the subalgebra the horizontal frame generates."""
    c = model.onframe.c
    span = h = np.eye(model.dim)[: model.dim_h]
    while True:
        brackets = np.einsum("kij,ai,bj->abk", c, h, span).reshape(-1, model.dim)
        _, sv, vt = np.linalg.svd(np.vstack([span, brackets]), full_matrices=False)
        grown = vt[sv > 1e-10]
        if len(grown) == len(span):
            return grown
        span = grown


def _graph_estimate(
    model: LieModel, x: np.ndarray, y: np.ndarray, epsilon: float, pad: float
) -> float:
    """Dijkstra over an epsilon-lattice with exact horizontal steps.

    Raises ValueError when the lattice would be too large or the
    snapped steps never reach the node of y.
    """
    d = model.dim
    n = model.dim_h
    lo = np.minimum(x, y) - pad
    hi = np.maximum(x, y) + pad
    spacing = epsilon
    dims = np.maximum(((hi - lo) / spacing).astype(int) + 2, 3)
    if np.prod(dims.astype(float)) > 3e6:
        raise ValueError(
            f"distance lattice would need {np.prod(dims):.2e} nodes; "
            "increase epsilon or shrink the padding"
        )

    def node_of(p):
        idx = np.round((p - lo) / spacing).astype(int)
        return tuple(np.clip(idx, 0, dims - 1))

    def point_of(idx):
        return lo + spacing * np.asarray(idx, dtype=float)

    start = node_of(x)
    goal = node_of(y)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    steps = []
    for i in range(n):
        e = np.zeros(d)
        e[i] = epsilon
        steps.append(e)
        steps.append(-e)
    visited = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in visited:
            continue
        if u == goal:
            return du
        visited.add(u)
        pu = point_of(u)
        for e in steps:
            q = model.compose(pu, e)
            v = node_of(q)
            if v in visited:
                continue
            dv = du + epsilon
            if dv < dist.get(v, np.inf):
                dist[v] = dv
                heapq.heappush(heap, (dv, v))
    raise ValueError(
        "lattice search exhausted without reaching the target; "
        "snapped horizontal steps do not connect the endpoints at this epsilon"
    )


def cc_distance(
    model: LieModel,
    x,
    y,
    epsilon: float = 0.1,
    pad: float | None = None,
) -> DistanceEstimate:
    """Distance estimate between coordinate points x and y.

    Heisenberg pairs are exact (geodesic shooting) except next to the
    vertical axis, where a triangle-inequality bracket is returned;
    other step-2 nilpotent models clip the lattice search to the
    projection/commutator-loop bracket, or return that bracket with its
    midpoint as the value where the lattice fails; remaining models use
    the lattice search alone and raise ValueError where it fails.  On a
    model that is not bracket-generating, endpoints that differ off the
    subgroup the horizontal frame generates raise ValueError before any
    search.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rel = model.compose(model.inverse(x), y)
    if not np.any(rel):
        return DistanceEstimate(0.0, 0.0, 0.0, "geodesic-shooting")

    if is_heisenberg(model):
        value = _heisenberg_from_identity(rel)
        if value is None:
            axis = float(2.0 * np.sqrt(np.pi * abs(rel[2])))
            rho = float(np.hypot(rel[0], rel[1]))
            return DistanceEstimate(axis, axis - rho, axis + rho, "bracket")
        lower = _nilpotent_lower(model, rel)
        upper = _nilpotent_upper(model, x, y)
        return DistanceEstimate(
            value, min(lower, value), max(upper, value), "geodesic-shooting"
        )

    if not validate(model).bracket_generating:
        span = _generated_span(model)
        if np.linalg.norm(rel - rel @ span.T @ span) > 1e-12 * (1.0 + np.linalg.norm(rel)):
            raise ValueError(
                f"{model.name} is not bracket-generating and the endpoints differ "
                "off the subgroup its horizontal frame generates, so no horizontal "
                "path joins them"
            )

    if model.onframe.nil_step == 2:
        lower = _nilpotent_lower(model, rel)
        upper = _nilpotent_upper(model, x, y)
        try:
            value = _graph_estimate(model, x, y, epsilon, pad if pad is not None else 0.5)
            value = float(np.clip(value, lower, upper))
            method = "graph"
        except ValueError:
            value = 0.5 * (lower + upper)
            method = "bracket"
        return DistanceEstimate(value, lower, upper, method, epsilon)

    if model.group == "su2-pair":
        lower = _su2_pair_lower(model, rel)
    elif model.onframe.nil_step is not None:
        lower = _nilpotent_lower(model, rel)
    else:
        lower = 0.0
    value = _graph_estimate(model, x, y, epsilon, pad if pad is not None else 0.5)
    # lattice paths are epsilon-resolved; pad the bracket accordingly
    slack = epsilon * (1.0 + value / max(epsilon, 1e-12)) ** 0.5
    return DistanceEstimate(
        float(max(value, lower)), lower, value + slack, "graph", epsilon
    )
