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
form on the SU(2) factors a model declares).  `LieModel.lift`, `mul`
and `coords` expose the group's native form, so that a long product
such as a random walk converts to coordinates only once.  Native states
are component-first, shape (D, ...) with the batch axes after the
component axis: the coordinates themselves on nilpotent groups
(D = d), one unit quaternion per declared su(2) factor (D = 8 on
SU(2) x SU(2)).  `lift_horizontal` lifts a horizontal increment
directly, without padding it with zero vertical coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class OrthonormalFrame:
    """Structure constants and change of basis of the orthonormal frame."""

    c: np.ndarray          # structure constants of the orthonormal frame
    T: np.ndarray          # F_a = sum_b T[a, b] E_b
    Tinv: np.ndarray
    nil_step: int | None   # nilpotency degree, None if not nilpotent
    factors: np.ndarray | None  # T^-T B: column 3k + a is X^k_a, None if undeclared

    @cached_property
    def ideals(self) -> tuple[np.ndarray, np.ndarray]:
        """Bases of the declared su(2) ideals, P[k] of shape (d, 3) and Q[k] (3, d).

        The columns of P[k] are X^k_1..X^k_3 and Q stacks the rows of
        P^-1, so ad_u = sum_k P[k] B_k Q[k] with 3 x 3 blocks B_k.
        """
        if self.factors is None:
            raise ValueError("a non-nilpotent algebra needs declared su(2) factors")
        d = len(self.c)
        return (self.factors.reshape(d, -1, 3).transpose(1, 0, 2),
                np.linalg.inv(self.factors).reshape(-1, 3, d))


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
    su2_factors : ndarray, shape (r, 3, d), or None
        Standard bases of r su(2) ideals whose sum is the algebra:
        X^k_a = sum_b su2_factors[k, a, b] E_b with
        [X^k_a, X^k_b] = eps_abc X^k_c, checked against the structure
        constants.  Declared factors give the quaternion group law, the
        chart's ideal split and the factor distance bound; without them
        only nilpotent models compose (by BCH).
    """

    name: str
    dim_h: int
    dim_v: int
    structure_constants: np.ndarray
    frame_metric: np.ndarray
    declared_constants: DeclaredConstants | None = None
    su2_factors: np.ndarray | None = None

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
        if self.su2_factors is not None:
            f = np.array(self.su2_factors, dtype=float)
            if f.shape != (d // 3, 3, d) or d % 3:
                raise ValueError(f"su(2) factors have shape {f.shape}, expected {(d // 3, 3, d)}")
            if not np.max(np.abs(_su2_sum(f) - c)) <= STRUCT_TOL * max(1.0, np.max(np.abs(c))):
                raise ValueError("the declared su(2) factors do not meet the structure constants")
            f.setflags(write=False)
            object.__setattr__(self, "su2_factors", f)

    # -- derived structure ---------------------------------------------

    @property
    def dim(self) -> int:
        return self.dim_h + self.dim_v

    @cached_property
    def onframe(self) -> OrthonormalFrame:
        c_on, T, Tinv = algebra.orthonormalize_frame(
            self.structure_constants, self.frame_metric, self.dim_h
        )
        d = self.dim
        return OrthonormalFrame(
            c=c_on,
            T=T,
            Tinv=Tinv,
            nil_step=algebra.nilpotency_step(c_on),
            factors=None if self.su2_factors is None else Tinv.T @ self.su2_factors.reshape(d, d).T,
        )

    @cached_property
    def _square_factor(self) -> np.ndarray | None:
        """h where the horizontal blocks of `onframe.ideals[1]` are (h, 2 h), as on su2-pair."""
        h = None if self.su2_factors is None else self.onframe.ideals[1][..., : self.dim_h]
        return h[0] if h is not None and len(h) == 2 and np.array_equal(h[1], 2.0 * h[0]) else None

    @cached_property
    def step(self) -> int:
        _, step = algebra.bracket_filtration(self.structure_constants, self.dim_h)
        return step

    def with_frame_metric(self, metric: np.ndarray, name: str | None = None) -> "LieModel":
        return replace(self, name=name or self.name, frame_metric=metric)

    # -- group composition ---------------------------------------------

    def lift(self, u: np.ndarray) -> np.ndarray:
        """The group element exp(u) in the model's native form.

        Native states are component-first, shape (D,) + u.shape[:-1]:
        nilpotent groups hold their coordinates (D = d) as a contiguous
        copy with the coordinate axis moved to the front; declared su(2)
        factors hold one unit quaternion each (D = 4r, see `_su2_lift`).
        """
        u = np.asarray(u, dtype=float)
        if self.su2_factors is not None:
            return _su2_lift(self, u)
        return np.ascontiguousarray(np.moveaxis(u, -1, 0))

    def lift_horizontal(self, v: np.ndarray, out=None) -> np.ndarray:
        """exp(sum_i v_i F_i) over the horizontal frame, in native form.

        v is component-first, shape (dim_h, ...).  The result equals
        `lift` of v padded with zero vertical coordinates (to rounding
        on su2-pair, see `_su2_square_lift`), without forming the padded
        vector where the factors allow.  A walk refills its previous
        increment, passed as `out`, in place.
        """
        v = np.asarray(v, dtype=float)
        if self._square_factor is not None:
            return _su2_square_lift(self._square_factor, v, out)
        if out is None or self.su2_factors is not None:
            out = np.zeros((self.dim,) + v.shape[1:])
        out[: self.dim_h] = v
        return out if self.su2_factors is None else self.lift(np.moveaxis(out, 0, -1))

    def mul(self, g: np.ndarray, h: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Product g h of native group elements.

        Both are component-first; their batch axes are aligned from the
        right and broadcast, as coordinates broadcast in `compose`.
        Declared su(2) factors multiply as quaternions, nilpotent models
        by BCH; any other model raises CompositionError.  A walk writes
        into `out`, not g or h, with `scratch`, three arrays of out's
        shape; the arithmetic is that of a call without them.
        """
        batch = max(g.ndim, h.ndim) - 1
        g, h = (x.reshape(x.shape[:1] + (1,) * (batch + 1 - x.ndim) + x.shape[1:])
                for x in (g, h))
        if self.su2_factors is not None:
            tmp = None if scratch is None else _quats(scratch[0])[:2]
            prod = _quat_mul(_quats(g), _quats(h), None if out is None else _quats(out), tmp)
            return prod.reshape((-1,) + prod.shape[2:])
        if self.onframe.nil_step is None:
            raise CompositionError(
                f"model {self.name!r} is neither nilpotent nor declared su(2) factors"
            )
        return algebra.bch_compose(self.onframe.c, g, h, self.onframe.nil_step, out, scratch)

    def coords(self, g: np.ndarray) -> np.ndarray:
        """Exponential coordinates, shape batch + (d,), of a native element (inverse of `lift`)."""
        if self.su2_factors is not None:
            return _su2_coords(self, g)
        return np.ascontiguousarray(np.moveaxis(g, 0, -1))

    def compose(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Coordinates of exp(u) exp(w), batched over leading axes."""
        return self.coords(self.mul(self.lift(u), self.lift(w)))

    def inverse(self, u: np.ndarray) -> np.ndarray:
        """Coordinates of exp(u)^(-1) = exp(-u)."""
        return -np.asarray(u, dtype=float)


# ----------------------------------------------------------------------
# Composition on declared SU(2) factors through unit quaternions
# ----------------------------------------------------------------------
# su(2) is realized on pure quaternions: X_i = (0, e_i / 2), so that
# [X_i, X_j] = eps_{ijk} X_k and exp(v . X) is the unit quaternion
# (cos(|v|/2), sin(|v|/2) vhat).


def _rows(x: np.ndarray) -> list:
    """Views (1, ...) of x's rows, which a ufunc can write even where x is 1-D."""
    return [x[i: i + 1] for i in range(len(x))]


def _quat_mul(p: np.ndarray, q: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Quaternion product on component-first arrays, shape (4, ...).

    A walk passes `out`, not overlapping p or q, and `tmp`, two arrays of
    one component's shape; the rounding is the same without them.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    a, b = _rows(np.empty((2,) + out.shape[1:]) if tmp is None else tmp)
    p, q, o = _rows(p), _rows(q), _rows(out)
    mul = np.multiply
    np.subtract(mul(p[0], q[0], out=o[0]), _dot3(p[1:], q[1:], a, b), out=o[0])
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        np.subtract(mul(p[j], q[k], out=a), mul(p[k], q[j], out=b), out=a)
        mul(p[0], q[i], out=o[i])
        o[i] += mul(q[0], p[i], out=b)
        o[i] += a
    return out


def _dot3(u, v, out=None, tmp=None) -> np.ndarray:
    # summed left to right, as np.linalg.norm sums a last axis of length 3
    out = np.multiply(u[0], v[0], out=out)
    out += np.multiply(u[1], v[1], out=tmp)
    out += np.multiply(u[2], v[2], out=tmp)
    return out


def _quat_exp(v: np.ndarray, out=None) -> np.ndarray:
    """exp of the algebra element with X-basis coefficients v, shape (3, ...).

    `out`'s rows hold the half angle, sinc and angle until overwritten.
    """
    if out is None:
        out = np.empty((4,) + v.shape[1:])
    o = _rows(out)
    half, sinc, theta = o[:3]
    np.sqrt(_dot3(v, v, theta, sinc), out=theta)
    small = theta < 1e-12
    np.multiply(0.5, theta, out=half)
    np.sin(half, out=sinc)
    np.copyto(theta, 1.0, where=small)
    sinc /= theta
    np.copyto(sinc, 0.5, where=small)
    np.cos(half, out=o[0])
    for i in (3, 2, 1):
        np.multiply(sinc, v[i - 1], out=o[i])
    return out


def _quat_log(q: np.ndarray) -> np.ndarray:
    """X-basis coefficients of the principal logarithm, shape (3, ...).

    The angle lies in [0, 2 pi]; at -1 (angle 2 pi) the axis is
    undetermined and the first one is taken.
    """
    w = q[0]
    v = q[1:]
    vn = np.sqrt(_dot3(v, v))
    theta = 2.0 * np.arctan2(vn, w)
    small = (vn < 1e-12) & (w > 0)
    cut = (vn == 0) & (w < 0)
    scale = np.where(small, 2.0, theta / np.where(small | cut, 1.0, vn))
    out = scale * v
    out[0] = np.where(cut, theta, out[0])
    return out


# A native element of r declared factors is a (4r, ...) array: row
# r j + k holds quaternion component j of factor k, so that reshaping to
# (4, r, ...) lets one quaternion operation act on every factor.


def _quats(g: np.ndarray) -> np.ndarray:
    return g.reshape((4, g.shape[0] // 4) + g.shape[1:])


def _su2_lift(model: LieModel, u: np.ndarray) -> np.ndarray:
    # C order: einsum would otherwise return a strided view of a
    # component-last buffer, which slows every quaternion operation
    x = np.einsum("kab,...b->ak...", model.onframe.ideals[1], u, order="C")
    return _quat_exp(x).reshape((-1,) + x.shape[2:])


def _su2_square_lift(h: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """The pair (q, q^2), q = exp((h v) . X), for horizontal v of shape (n, ...).

    On su2-pair, H_i = (X_i, 2 X_i): the second factor's horizontal block
    of `OrthonormalFrame.ideals[1]` is twice the first's, h, so its factor is
    exp(2 (h v) . X) = q^2, that is (q0^2 - |q_vec|^2, 2 q0 q_vec), one
    sine and cosine per path.  `out`, shape (8, ...), receives the pair.
    """
    pair = np.empty((4, 2) + v.shape[1:]) if out is None else out.reshape((4, 2) + v.shape[1:])
    _quat_exp(np.tensordot(h, v, axes=(1, 0)), pair[:, 0])
    q, sq = _rows(pair[:, 0]), _rows(pair[:, 1])
    np.subtract(np.multiply(q[0], q[0], out=sq[0]), _dot3(q[1:], q[1:], sq[1], sq[2]), out=sq[0])
    np.multiply(2.0, q[0], out=sq[1])
    for i in (3, 2, 1):
        np.multiply(sq[1], q[i], out=sq[i])
    return pair.reshape((8,) + v.shape[1:])


def _su2_coords(model: LieModel, g: np.ndarray) -> np.ndarray:
    # two stages, the frame components sum_k,a x^k_a X^k_a and then T^-T,
    # so that the su2-pair coordinates round as they always have
    raw = np.einsum("kab,ak...->b...", model.su2_factors, _quat_log(_quats(g)))
    return np.einsum("ab,b...->...a", model.onframe.Tinv.T, raw)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _algebra(d: int, brackets) -> np.ndarray:
    """Structure constants of the brackets (i, j, k, a), each [E_i, E_j] += a E_k."""
    c = np.zeros((d, d, d))
    for i, j, k, a in brackets:
        c[k, i, j] += a
        c[k, j, i] -= a
    return c


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
    d = n + len(pairs)
    return LieModel(
        name=f"free-nilpotent-{n}",
        dim_h=n,
        dim_v=len(pairs),
        structure_constants=_algebra(d, [(i, j, n + s, 1.0) for s, (i, j) in enumerate(pairs)]),
        frame_metric=np.eye(d),
        declared_constants=DeclaredConstants(n, 0.0, 1.0 / (2.0 * (n - 1)), 0.0),
    )


def build_heisenberg() -> LieModel:
    """Heisenberg group: horizontal A1, A2 with [A1, A2] = V.

    It is the free step-2 nilpotent group on two generators, so this is
    `build_free_nilpotent(2)` under its own name.
    """
    return replace(build_free_nilpotent(2), name="heisenberg")


_HEISENBERG_C = build_heisenberg().structure_constants  # read-only


def is_heisenberg(model: LieModel) -> bool:
    """Whether the orthonormal-frame constants, which `compose` uses, are heisenberg's."""
    return (model.dim_h, model.dim) == (2, 3) and np.array_equal(model.onframe.c, _HEISENBERG_C)


def build_engel() -> LieModel:
    """Engel group, the smallest step-3 model.

    [X1, X2] = X3 and [X1, X3] = X4 with H = span(X1, X2).  Serves as
    the counterexample space for the gradient commutation identity,
    which fails beyond step 2.
    """
    return LieModel(
        name="engel",
        dim_h=2,
        dim_v=2,
        structure_constants=_algebra(4, [(0, 1, 2, 1.0), (0, 2, 3, 1.0)]),
        frame_metric=np.eye(4),
    )


#: su(2): [X_a, X_b] = eps_abc X_c
_SU2 = _algebra(3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)])


def _su2_sum(factors: np.ndarray) -> np.ndarray:
    """Structure constants of the frame in which `factors` are su(2) ideals.

    With B of columns X^k_a, E_i = sum_k,a B^-1[(k, a), i] X^k_a, so
    [E_i, E_j] expands over the brackets of the X's, which commute
    across ideals.
    """
    d = factors.shape[-1]
    w = np.linalg.inv(factors.reshape(d, d).T).reshape(factors.shape)
    return np.einsum("kcm,cab,kai,kbj->mij", factors, _SU2, w, w) + 0.0


def build_su2_pair(rho: float) -> LieModel:
    """Diagonal-type sub-Riemannian structure on SU(2) x SU(2).

    The horizontal frame is H_i = (X_i, 2 X_i) carrying the negative
    Killing form scaled so that the base group has Ricci lower bound
    rho; the vertical frame V_s = (X_s, 0) carries 1/(4 rho) times the
    same inner product.  Both metrics are parallel for the adapted
    connection, and the construction realizes strictly positive
    curvature-dimension constants.  The model declares its two factors,
    X^1_a = V_a and X^2_a = (H_a - V_a) / 2, and its brackets follow
    from them: [H_i, H_j] = 2 H_k - V_k, [H_i, V_j] = [V_i, V_j] = V_k.
    """
    if rho <= 0:
        raise ValueError(f"curvature scale rho must be positive, got {rho}")
    # frame order: H_1..H_3, V_1..V_3
    eye = np.eye(6)
    factors = np.stack([eye[3:], 0.5 * (eye[:3] - eye[3:])])
    # <X_i, X_j> = -(1/4 rho) tr(ad X_i ad X_j) = delta_ij / (2 rho)
    gram = -np.einsum("aib,bja->ij", _SU2, _SU2) / (4.0 * rho)
    metric = np.zeros((6, 6))
    metric[:3, :3] = gram
    metric[3:, 3:] = gram / (4.0 * rho)
    return LieModel(
        name=f"su2-pair-rho{rho:g}",
        dim_h=3,
        dim_v=3,
        structure_constants=_su2_sum(factors),
        frame_metric=metric,
        declared_constants=DeclaredConstants(3, 4.0 * rho, 0.25, 0.0),
        su2_factors=factors,
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
