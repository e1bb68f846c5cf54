"""Left-invariant sub-Riemannian model spaces.

A model is a Lie algebra with a frame split into a horizontal block
``E_1..E_n`` spanning the bracket-generating distribution and a
vertical block ``E_{n+1}..E_{n+nu}`` spanning its complement, together
with a positive-definite block-diagonal metric on the frame.  All
geometry downstream (gradients, connections, curvature constants, heat
flow) is computed from the structure constants and the metric alone.

Points are addressed by exponential coordinates of the first kind
relative to the orthonormalized frame: the coordinate vector ``u``
labels the group element ``exp(sum_a u_a F_a)`` where ``F_a`` is the
orthonormal frame.  Group multiplication in these coordinates is exact
for the shipped models (polynomial BCH for nilpotent groups, closed
form on SU(2) factors).  `LieModel.lift`, `mul` and `coords` expose the
group's native form (the coordinates themselves on nilpotent groups, a
pair of unit quaternions on SU(2) x SU(2)), so that a long product
such as a random walk converts to coordinates only once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import algebra


@dataclass(frozen=True)
class DeclaredConstants:
    """Reference curvature-dimension constants attached to a model."""

    n: int
    rho1: float
    rho20: float
    rho21: float

    def as_tuple(self) -> tuple[int, float, float, float]:
        return (self.n, self.rho1, self.rho20, self.rho21)


@dataclass(frozen=True)
class OrthonormalFrame:
    """Structure constants and change of basis of the orthonormal frame."""

    c: np.ndarray          # structure constants of the orthonormal frame
    T: np.ndarray          # F_a = sum_b T[a, b] E_b
    Tinv: np.ndarray
    nil_step: int | None   # nilpotency degree, None if not nilpotent


class CompositionError(RuntimeError):
    """Raised when exact group composition is unavailable for a model."""


@dataclass(frozen=True, eq=False)
class LieModel:
    """Immutable left-invariant model space.

    Attributes
    ----------
    name : str
        Identifier used in reports.
    dim_h : int
        Rank of the horizontal bundle.
    dim_v : int
        Rank of the vertical complement.
    structure_constants : ndarray, shape (d, d, d)
        c[k, i, j] with [E_i, E_j] = c[k, i, j] E_k, d = dim_h + dim_v.
    frame_metric : ndarray, shape (d, d)
        Positive definite, block diagonal over the H/V split.
    declared_constants : DeclaredConstants or None
        Reference (n, rho1, rho20, rho21) for cross-checks.
    group : str
        Composition backend: "nilpotent" or "su2-pair".
    params : dict
        Extra construction data (e.g. the curvature scale of SU(2)
        factors), read by the su2-pair distance lower bound.
    """

    name: str
    dim_h: int
    dim_v: int
    structure_constants: np.ndarray
    frame_metric: np.ndarray
    declared_constants: DeclaredConstants | None = None
    group: str = "nilpotent"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.structure_constants, dtype=float))
        m = np.ascontiguousarray(np.asarray(self.frame_metric, dtype=float))
        d = self.dim_h + self.dim_v
        if c.shape != (d, d, d):
            raise ValueError(
                f"structure constants have shape {c.shape}, expected {(d, d, d)}"
            )
        if m.shape != (d, d):
            raise ValueError(f"frame metric has shape {m.shape}, expected {(d, d)}")
        c.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(self, "frame_metric", m)

    # -- derived structure ---------------------------------------------

    @property
    def dim(self) -> int:
        return self.dim_h + self.dim_v

    @cached_property
    def onframe(self) -> OrthonormalFrame:
        c_on, T = algebra.orthonormalize_frame(
            self.structure_constants, self.frame_metric, self.dim_h
        )
        return OrthonormalFrame(
            c=c_on,
            T=T,
            Tinv=np.linalg.inv(T),
            nil_step=algebra.nilpotency_step(c_on),
        )

    @cached_property
    def step(self) -> int:
        _, step = algebra.bracket_filtration(self.structure_constants, self.dim_h)
        return step

    def with_frame_metric(self, metric: np.ndarray, name: str | None = None) -> "LieModel":
        return LieModel(
            name=name or self.name,
            dim_h=self.dim_h,
            dim_v=self.dim_v,
            structure_constants=self.structure_constants,
            frame_metric=metric,
            declared_constants=self.declared_constants,
            group=self.group,
            params=dict(self.params),
        )

    # -- group composition ---------------------------------------------

    def lift(self, u: np.ndarray) -> np.ndarray:
        """The group element exp(u) in the model's native form.

        Nilpotent groups are held in their coordinates; su2-pair holds
        a pair of unit quaternions, shape (8,) + u.shape[:-1] (see
        `_su2_pair_lift`).
        """
        u = np.asarray(u, dtype=float)
        return _su2_pair_lift(self, u) if self.group == "su2-pair" else u

    def mul(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Product g h of native group elements, batched over their batch axes."""
        if self.group == "su2-pair":
            return _su2_pair_mul(g, h)
        if self.group == "nilpotent":
            step = self.onframe.nil_step
            if step is None:
                raise CompositionError(
                    f"model {self.name!r} tagged nilpotent has no finite step"
                )
            return algebra.bch_compose(self.onframe.c, g, h, step)
        raise CompositionError(f"no exact composition backend for {self.group!r}")

    def coords(self, g: np.ndarray) -> np.ndarray:
        """Exponential coordinates of a native group element (inverse of `lift`)."""
        return _su2_pair_coords(self, g) if self.group == "su2-pair" else g

    def compose(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Coordinates of exp(u) exp(w), batched over leading axes."""
        return self.coords(self.mul(self.lift(u), self.lift(w)))

    def inverse(self, u: np.ndarray) -> np.ndarray:
        """Coordinates of exp(u)^(-1) = exp(-u)."""
        return -np.asarray(u, dtype=float)


# ----------------------------------------------------------------------
# SU(2) x SU(2) composition through unit quaternions
# ----------------------------------------------------------------------
# su(2) is realized on pure quaternions: X_i = (0, e_i / 2), so that
# [X_i, X_j] = eps_{ijk} X_k and exp(v . X) is the unit quaternion
# (cos(|v|/2), sin(|v|/2) vhat).


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product on component-first arrays, shape (4, ...)."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[0] = p0 * q0 - (p1 * q1 + p2 * q2 + p3 * q3)
    out[1] = p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2)
    out[2] = p0 * q2 + q0 * p2 + (p3 * q1 - p1 * q3)
    out[3] = p0 * q3 + q0 * p3 + (p1 * q2 - p2 * q1)
    return out


def _norm3(v: np.ndarray) -> np.ndarray:
    # summed left to right, as np.linalg.norm sums a last axis of length 3
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _quat_exp(v: np.ndarray) -> np.ndarray:
    """exp of the algebra element with X-basis coefficients v, shape (3, ...)."""
    theta = _norm3(v)
    half = 0.5 * theta
    small = theta < 1e-12
    sinc = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, theta))
    out = np.empty((4,) + theta.shape)
    out[0] = np.cos(half)
    out[1:] = sinc * v
    return out


def _quat_log(q: np.ndarray) -> np.ndarray:
    """X-basis coefficients of the principal logarithm, shape (3, ...).

    The angle lies in [0, 2 pi]; at -1 (angle 2 pi) the axis is
    undetermined and the first one is taken.
    """
    w = q[0]
    v = q[1:]
    vn = _norm3(v)
    theta = 2.0 * np.arctan2(vn, w)
    small = (vn < 1e-12) & (w > 0)
    cut = (vn == 0) & (w < 0)
    scale = np.where(small, 2.0, theta / np.where(small | cut, 1.0, vn))
    out = scale * v
    out[0] = np.where(cut, theta, out[0])
    return out


def _su2_pair_coords_to_algebra(model: LieModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X-coefficients per group factor, each of shape (3,) + u.shape[:-1]."""
    n = model.dim_h
    # C order: einsum would otherwise return a strided view of a
    # component-last buffer, which slows every quaternion operation
    raw = np.einsum("ab,...a->b...", model.onframe.T, u, order="C")
    rh, rv = raw[:n], raw[n:]
    return rh + rv, 2.0 * rh


# A native su2-pair element is an (8, ...) array: row 2k + f holds
# quaternion component k of factor f, so that reshaping to (4, 2, ...)
# lets one quaternion operation act on both factors.


def _su2_pair_lift(model: LieModel, u: np.ndarray) -> np.ndarray:
    a, b = _su2_pair_coords_to_algebra(model, u)
    return _quat_exp(np.stack([a, b], axis=1)).reshape((8,) + a.shape[1:])


def _su2_pair_mul(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    batch = np.broadcast_shapes(g.shape[1:], h.shape[1:])

    def pair(x):  # batch axes aligned from the right, as for coordinates
        return x.reshape((4, 2) + (1,) * (len(batch) + 1 - x.ndim) + x.shape[1:])

    return _quat_mul(pair(g), pair(h)).reshape((8,) + batch)


def _su2_pair_coords(model: LieModel, g: np.ndarray) -> np.ndarray:
    a, b = _quat_log(g.reshape((4, 2) + g.shape[1:])).swapaxes(0, 1)
    rh = 0.5 * b
    rv = a - rh
    return np.einsum("ab,b...->...a", model.onframe.Tinv.T, np.concatenate([rh, rv]))


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def build_heisenberg() -> LieModel:
    """Heisenberg group: horizontal A1, A2 with [A1, A2] = V."""
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    return LieModel(
        name="heisenberg",
        dim_h=2,
        dim_v=1,
        structure_constants=c,
        frame_metric=np.eye(3),
        declared_constants=DeclaredConstants(2, 0.0, 0.5, 0.0),
        group="nilpotent",
    )


_HEISENBERG_C = build_heisenberg().structure_constants  # read-only


def is_heisenberg(model: LieModel) -> bool:
    """Whether the orthonormal-frame constants, which `compose` uses, are heisenberg's."""
    if model.group != "nilpotent" or (model.dim_h, model.dim) != (2, 3):
        return False
    return np.array_equal(model.onframe.c, _HEISENBERG_C)


def build_free_nilpotent(n: int) -> LieModel:
    """Free step-2 nilpotent group on n generators.

    The algebra is R^n + Lambda^2 R^n with [A_i, A_j] = V_{ij}; the
    dimension is n(n+1)/2.  The reference vertical metric declared in
    the constants record presumes the curvature normalization, which
    ``geometry.normalize_vertical`` applies.
    """
    if n < 2:
        raise ValueError(f"free nilpotent model needs n >= 2, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nu = len(pairs)
    d = n + nu
    c = np.zeros((d, d, d))
    for s, (i, j) in enumerate(pairs):
        c[n + s, i, j] = 1.0
        c[n + s, j, i] = -1.0
    return LieModel(
        name=f"free-nilpotent-{n}",
        dim_h=n,
        dim_v=nu,
        structure_constants=c,
        frame_metric=np.eye(d),
        declared_constants=DeclaredConstants(n, 0.0, 1.0 / (2.0 * (n - 1)), 0.0),
        group="nilpotent",
    )


def build_engel() -> LieModel:
    """Engel group, the smallest step-3 model.

    [X1, X2] = X3 and [X1, X3] = X4 with H = span(X1, X2).  Serves as
    the counterexample space for the gradient commutation identity,
    which fails beyond step 2.
    """
    c = np.zeros((4, 4, 4))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    c[3, 0, 2] = 1.0
    c[3, 2, 0] = -1.0
    return LieModel(
        name="engel",
        dim_h=2,
        dim_v=2,
        structure_constants=c,
        frame_metric=np.eye(4),
        group="nilpotent",
    )


def _su2_structure() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    for i, j, k, s in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)]:
        c[k, i, j] = s
        c[k, j, i] = -s
    return c


def build_su2_pair(rho: float) -> LieModel:
    """Diagonal-type sub-Riemannian structure on SU(2) x SU(2).

    The horizontal frame is H_i = (X_i, 2 X_i) carrying the negative
    Killing form scaled so that the base group has Ricci lower bound
    rho; the vertical frame V_s = (X_s, 0) carries 1/(4 rho) times the
    same inner product.  Both metrics are parallel for the adapted
    connection, and the construction realizes strictly positive
    curvature-dimension constants.
    """
    if rho <= 0:
        raise ValueError(f"curvature scale rho must be positive, got {rho}")
    eps = _su2_structure()
    d = 6
    c = np.zeros((d, d, d))
    # frame order: H_1..H_3, V_1..V_3
    # [H_i, H_j] = eps_ijk (2 H_k - V_k); [H_i, V_t] = eps_itk V_k;
    # [V_s, V_t] = eps_stk V_k
    for i in range(3):
        for j in range(3):
            for k in range(3):
                e = eps[k, i, j]
                if e == 0.0:
                    continue
                c[k, i, j] += 2.0 * e
                c[3 + k, i, j] += -e
                c[3 + k, i, 3 + j] += e
                c[3 + k, 3 + i, j] += e
                c[3 + k, 3 + i, 3 + j] += e
    # <X_i, X_j> = -(1/4 rho) tr(ad X_i ad X_j) = delta_ij / (2 rho)
    gram = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            gram[i, j] = -np.einsum("ab,ba->", eps[:, i, :], eps[:, j, :]) / (4.0 * rho)
    metric = np.zeros((d, d))
    metric[:3, :3] = gram
    metric[3:, 3:] = gram / (4.0 * rho)
    return LieModel(
        name=f"su2-pair-rho{rho:g}",
        dim_h=3,
        dim_v=3,
        structure_constants=c,
        frame_metric=metric,
        declared_constants=DeclaredConstants(3, 4.0 * rho, 0.25, 0.0),
        group="su2-pair",
        params={"rho": float(rho)},
    )


def build_abelian(dim_h: int = 2, dim_v: int = 1) -> LieModel:
    """Flat abelian model; everything commutes and all curvature vanishes."""
    d = dim_h + dim_v
    return LieModel(
        name=f"abelian-{dim_h}-{dim_v}",
        dim_h=dim_h,
        dim_v=dim_v,
        structure_constants=np.zeros((d, d, d)),
        frame_metric=np.eye(d),
        group="nilpotent",
    )


#: factory registry used by the CLI and the verification suite
MODEL_BUILDERS = {
    "heisenberg": build_heisenberg,
    "free-nilpotent-2": lambda: build_free_nilpotent(2),
    "free-nilpotent-3": lambda: build_free_nilpotent(3),
    "free-nilpotent-4": lambda: build_free_nilpotent(4),
    "engel": build_engel,
    "su2-pair": lambda: build_su2_pair(1.0),
    "abelian": build_abelian,
}


def get_model(name: str) -> LieModel:
    if name not in MODEL_BUILDERS:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[name]()


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

STRUCT_TOL = 1e-12


@dataclass
class ValidationReport:
    """Structural and geometric health summary of one model."""

    model: str
    jacobi_residual: float
    antisymmetry_residual: float
    metric_symmetric: bool
    min_metric_eigenvalue: float
    bracket_generating: bool
    step: int
    metric_preserving: bool        # horizontal co-metric parallel
    nabla_h_norm: float
    vertical_parallel: bool        # vertical co-metric parallel
    nabla_v_norm: float
    fully_parallel: bool
    vertical_integrable: bool
    cocurvature_norm: float
    trace_zero_residual: float | None
    trace_zero_ok: bool | None
    passed: bool
    issues: list[str]

    def to_json(self) -> dict:
        doc = dict(self.__dict__)
        doc["issues"] = list(self.issues)
        return doc


def validate(model: LieModel) -> ValidationReport:
    """Run every structural check a model must satisfy.

    Dimension mismatches raise before any geometric check.  The report
    separates the horizontal metric-preserving property (flows of the
    complement preserve the horizontal metric) from full parallelism of
    both metrics under the adapted connection; the latter is what the
    gradient commutation identity needs.  For non-integrable
    complements the co-curvature trace condition is evaluated instead
    of being vacuous.
    """
    d = model.dim
    if model.dim_h <= 0 or model.dim_v < 0:
        raise ValueError("model has empty horizontal frame")
    if model.structure_constants.shape != (d, d, d):
        raise ValueError("structure constant tensor has wrong shape")

    issues: list[str] = []
    c = model.structure_constants
    anti = algebra.antisymmetry_residual(c)
    if anti != 0.0:
        issues.append(f"antisymmetry violated by {anti:g}")
    jac = algebra.jacobi_residual(c)
    if jac > STRUCT_TOL:
        issues.append(f"Jacobi residual {jac:g}")

    metric_symmetric = bool(
        np.array_equal(model.frame_metric, model.frame_metric.T)
    )
    if not metric_symmetric:
        issues.append("frame metric not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (model.frame_metric + model.frame_metric.T))
    min_eig = float(eigs[0])
    if min_eig <= 0:
        issues.append(f"frame metric not positive definite (min eig {min_eig:g})")

    span, step = algebra.bracket_filtration(c, model.dim_h)
    generating = len(span) == d
    if not generating:
        issues.append("horizontal frame is not bracket-generating")

    on = model.onframe
    gamma = algebra.adapted_gamma(on.c, model.dim_h)
    H = slice(0, model.dim_h)
    V = slice(model.dim_h, d)
    w_h = algebra.nabla_cometric(gamma, H, d)
    w_v = algebra.nabla_cometric(gamma, V, d)
    nabla_h = float(np.max(np.abs(w_h))) if w_h.size else 0.0
    nabla_v = float(np.max(np.abs(w_v))) if w_v.size else 0.0
    metric_preserving = nabla_h <= STRUCT_TOL
    vertical_parallel = nabla_v <= STRUCT_TOL

    cocurv = on.c[H, V, V]  # horizontal components of vertical brackets
    cocurv_norm = float(np.max(np.abs(cocurv))) if cocurv.size else 0.0
    integrable = cocurv_norm <= STRUCT_TOL

    trace_zero_residual = None
    trace_zero_ok = None
    if not integrable:
        # trace of w -> cobracket(v_V, curvature(v_H, w)) as a quadratic
        # form in v; stored as the mixed matrix over (horizontal i,
        # vertical s) entries.
        t = np.einsum("tij,jst->is", on.c[V, H, H], on.c[H, V, V])
        trace_zero_residual = float(np.max(np.abs(t))) if t.size else 0.0
        trace_zero_ok = trace_zero_residual <= STRUCT_TOL
        if not trace_zero_ok:
            issues.append(
                f"non-integrable complement fails trace-zero test ({trace_zero_residual:g})"
            )

    return ValidationReport(
        model=model.name,
        jacobi_residual=jac,
        antisymmetry_residual=anti,
        metric_symmetric=metric_symmetric,
        min_metric_eigenvalue=min_eig,
        bracket_generating=generating,
        step=step,
        metric_preserving=metric_preserving,
        nabla_h_norm=nabla_h,
        vertical_parallel=vertical_parallel,
        nabla_v_norm=nabla_v,
        fully_parallel=metric_preserving and vertical_parallel,
        vertical_integrable=integrable,
        cocurvature_norm=cocurv_norm,
        trace_zero_residual=trace_zero_residual,
        trace_zero_ok=trace_zero_ok,
        passed=not issues,
        issues=issues,
    )
