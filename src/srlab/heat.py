"""Monte Carlo estimation of the horizontal heat semigroup.

The diffusion generated by half the sub-Laplacian is simulated by
group-exponential increments: each step multiplies the current group
element on the right by exp(sqrt(h) sum_i xi_i A_i) with independent
standard normals xi over the orthonormal horizontal frame.  Because
increments compose through exact group multiplication, the walk stays
on the group, constants are preserved exactly, and the estimator of
P_t 1 is identically 1.  Path states stay in the group's native form
(`LieModel.lift`/`mul`), component-first with the paths on the last
axis: coordinates on nilpotent groups, a pair of unit quaternions on
su2-pair, converted to coordinates by one log per path at the end of
the walk.  Each increment is lifted from its horizontal part alone
(`LieModel.lift_horizontal`); on su2-pair, whose declared factors give
H_i = (X_i, 2 X_i), that is the pair (q, q^2) of one quaternion
exponential.  A chunk's walk allocates its buffers once: each step draws
its normals into one array, lifts the increment into another, and
multiplies into the second of two state buffers, which swap roles.
`LieModel.mul` runs the same kernels on fresh arrays, operation for
operation, so the estimates do not depend on the buffers.

One path engine, `mc_semigroup_many`, makes every estimate over the
paths from x alone: plain integrands are averaged at the endpoints,
and a `Gradient` entry averages the pathwise frame derivative there
(see `Gradient`).  Each chunk evaluates each distinct function once at
the path ends, its values and, when an entry reads them, its frame
gradients; `Variance(f)` and `FrameGamma(f, ...)` are markers read from
that table, as `Gradient(f)` is.  The estimates of one pass share their
paths, so the two sides of an inequality share their noise.

A chunk fills one C-ordered table of shape (rows, paths), in which
every entry owns one block of rows, in integrand order: a `Gradient`
entry its frame directions, a `Variance` entry the rows f and f^2, any
other entry one row.  A pass accumulates the table's row sums and the
cross products of every pair of rows, each summed from its two rows
alone by numpy's pairwise sum, never by BLAS.  An estimate reads only
its own block's means and covariance, so it has the same bits in any
pass that holds its entry and at any BLAS thread count.

Streams are counter-based (Philox keyed by seed and chunk index), so
estimates are bit-reproducible for fixed settings regardless of how
chunks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, frames
from .models import LieModel

CHUNK = 1 << 14


@dataclass
class SemigroupEstimate:
    """One Monte Carlo reading of P_t f at a point."""

    value: float
    std_error: float
    t: float
    x: list
    method: str
    paths: int
    steps: int
    seed: int

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class GradientEstimate:
    """Squared frame gradient of P_t f at a point, with error bars."""

    value: float
    std_error: float
    directional: list
    which: str
    t: float
    x: list
    paths: int
    steps: int
    seed: int


@dataclass(frozen=True)
class Gradient:
    """Integrand entry estimating Gamma^which(P_t f)(x) pathwise.

    A path from x ends at x g, and x exp(e E_i) g = x g exp(e Ad_{g^-1} E_i),
    so E_i P_t f(x) = E[sum_k (Ad_{g^-1})_{ki} (E_k f)(x g)] exactly, for
    each frame direction i that `which` selects ("h" or "v").  The
    squared-norm estimate subtracts the noise bias tr(Cov), and the
    error bar linearises the squared norm about the directional means.
    """

    f: object
    which: str = "h"


@dataclass(frozen=True)
class Variance:
    """Integrand entry estimating P_t f^2 - (P_t f)^2 from the rows f and f^2.

    The error bar linearises the difference about the two means (the
    delta method), with the covariance of those means.
    """

    f: object


@dataclass(frozen=True)
class FrameGamma:
    """Integrand entry (Gamma^which f)^power at the path ends.

    which is "v" or "hv": the squared vertical frame gradient of f, or
    Gamma^h f + Gamma^v f, each summed over its own block and then added.
    power is 1 or 0.5; numpy computes x ** 0.5 as np.sqrt(x).  The entry
    reads the frame gradients of f that a `Gradient` entry of f in the
    same pass reads.
    """

    f: object
    which: str
    power: float = 1.0

    def __post_init__(self):
        if self.which not in ("v", "hv"):
            raise ValueError(f"unknown frame-gamma selector {self.which!r}")

    def read(self, model: LieModel, grads: np.ndarray) -> np.ndarray:
        """The entry's values, from the frame gradients of f (one block sum
        per letter of which, added in order)."""
        return sum(frames.gamma_of_gradients(model, grads, w) for w in self.which) ** self.power


def _chunks(paths: int) -> list[int]:
    out = [CHUNK] * (paths // CHUNK)
    if paths % CHUNK:
        out.append(paths % CHUNK)
    return out


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, index]))


def _evolve(model: LieModel, starts: np.ndarray, t: float, steps: int, size: int,
            rng: np.random.Generator) -> np.ndarray:
    """Final states of `size` paths from each start; common noise across starts.

    starts has shape (S, d); returns (S, size, d).  The walk multiplies
    native group elements (`LieModel.lift`/`mul`) by the lifted
    horizontal increments, in buffers allocated once per call, and
    converts back to coordinates once, at the end.
    """
    n = model.dim_h
    d = model.dim
    if t == 0 or steps == 0:
        return np.broadcast_to(starts[:, None, :], (starts.shape[0], size, d)).copy()
    h = t / steps
    sqh = np.sqrt(h)
    g = np.repeat(model.lift(starts[:, None, :]), size, axis=-1)
    spare, scratch = np.empty_like(g), np.empty((3,) + g.shape)  # g and spare swap roles
    xi, v, inc = np.empty((size, n)), np.empty((n, size)), None
    for _ in range(steps):
        rng.standard_normal(out=xi)
        inc = model.lift_horizontal(np.multiply(sqh, xi.T, out=v), out=inc)
        g, spare = model.mul(g, inc, out=spare, scratch=scratch), g
    return model.coords(g)


def mc_semigroup_many(
    model: LieModel,
    integrands: list,
    x: np.ndarray,
    t: float,
    paths: int,
    steps: int,
    seed: int,
) -> list:
    """Estimate several integrands at x over one set of paths.

    A plain integrand f gives a SemigroupEstimate of P_t f(x), a
    `Variance` entry one of P_t f^2 - (P_t f)^2, and a `Gradient` entry
    a GradientEstimate.  Only x is evolved, one `_evolve` call per
    chunk.  Sharing paths gives the estimates a common probability
    space, which the inequality checks need (their two sides must see
    the same noise).
    """
    if not integrands:
        raise ValueError("the integrand list is empty; give at least one integrand")
    if paths < 2 or steps < 1:
        # one path has no spread to give a standard error
        raise ValueError(f"paths must be >= 2 and steps >= 1, got {paths} and {steps}")
    if t < 0:
        raise ValueError("negative time")
    x = np.asarray(x, dtype=float)
    cuts = np.cumsum([0] + [_width(model, e) for e in integrands])
    blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    # each function is evaluated once per chunk: its values, and its
    # frame gradients when an entry reads them
    graded = {id(e.f): e.f for e in integrands if isinstance(e, (Gradient, FrameGamma))}
    valued = {id(f): f for f in (e.f if isinstance(e, Variance) else e for e in integrands
                                 if not isinstance(e, (Gradient, FrameGamma)))}
    pathwise = any(isinstance(e, Gradient) for e in integrands)
    total = cross = 0.0
    for idx, size in enumerate(_chunks(paths)):
        ends = _evolve(model, x[None], t, steps, size, _stream(seed, idx))[0]
        values = {k: np.asarray(f.eval(ends), dtype=float) for k, f in valued.items()}
        gradients = {k: frames.frame_gradients(model, f, ends) for k, f in graded.items()}
        vals = np.empty((cuts[-1], size))
        if pathwise:
            ad_inv = algebra.adjoint_inverse(model.onframe, model.compose(model.inverse(x), ends))
        for e, rows in zip(integrands, blocks):
            if isinstance(e, Gradient):
                sel = frames.frame_slice(model, e.which)
                np.einsum("pki,pk->ip", ad_inv[..., sel], gradients[id(e.f)], out=vals[rows])
            elif isinstance(e, FrameGamma):
                vals[rows] = e.read(model, gradients[id(e.f)])
            elif isinstance(e, Variance):
                vals[rows] = values[id(e.f)], values[id(e.f)] ** 2
            else:
                vals[rows] = values[id(e)]
        # each cross product is summed from its two rows alone, so no
        # estimate's bits depend on the other rows or on the BLAS thread count
        total = total + vals.sum(axis=1)
        cross = cross + np.array([(row * vals).sum(axis=1) for row in vals])

    means = total / paths
    cov = (cross / paths - np.outer(means, means)) * (paths / (paths - 1)) / paths
    common = dict(x=x.tolist(), t=t, paths=paths, steps=steps, seed=seed)
    out = []
    for e, rows in zip(integrands, blocks):
        m, c = means[rows], cov[rows, rows]
        if isinstance(e, Gradient):
            var = float(4.0 * m @ c @ m + 2.0 * np.sum(c**2))
            out.append(GradientEstimate(value=float(m @ m - np.trace(c)),
                                        std_error=float(np.sqrt(max(var, 0.0))),
                                        directional=m.tolist(), which=e.which, **common))
            continue
        if isinstance(e, Variance):
            m1, m2 = float(m[0]), float(m[1])
            grad = np.array([-2.0 * m1, 1.0])
            value, var = m2 - m1**2, float(grad @ c @ grad)
        else:
            value, var = float(m[0]), c[0, 0]
        out.append(SemigroupEstimate(value=value, std_error=float(np.sqrt(max(var, 0.0))),
                                     method="mc", **common))
    return out


def _width(model: LieModel, entry) -> int:
    """The number of rows of the chunk table that an integrand entry owns."""
    if isinstance(entry, Gradient):
        sel = frames.frame_slice(model, entry.which)
        return sel.stop - sel.start
    return 2 if isinstance(entry, Variance) else 1


def mc_semigroup(
    model: LieModel, f, x, t: float, paths: int, steps: int, seed: int
) -> SemigroupEstimate:
    """Monte Carlo estimate of P_t f(x)."""
    return mc_semigroup_many(model, [f], x, t, paths, steps, seed)[0]


def mc_variance(
    model: LieModel, f, x, t: float, paths: int, steps: int, seed: int
) -> tuple[float, float]:
    """Estimate of P_t f^2 - (P_t f)^2 with a linearised error bar (see `Variance`)."""
    est = mc_semigroup_many(model, [Variance(f)], x, t, paths, steps, seed)[0]
    return est.value, est.std_error


def mc_gradient(
    model: LieModel,
    f,
    x,
    t: float,
    which: str,
    paths: int,
    steps: int,
    seed: int,
) -> GradientEstimate:
    """Estimate Gamma^which(P_t f)(x) by pathwise frame derivatives (see `Gradient`)."""
    return mc_semigroup_many(model, [Gradient(f, which)], x, t, paths, steps, seed)[0]


def gamma_mixed(gh: GradientEstimate, gv: GradientEstimate, l: float) -> tuple[float, float]:
    """Gamma^h + l Gamma^v from the two gradient estimates, with combined error bar."""
    return gh.value + l * gv.value, float(np.hypot(gh.std_error, l * gv.std_error))


def mc_gamma_mixed(
    model: LieModel,
    f,
    x,
    t: float,
    l: float,
    paths: int,
    steps: int,
    seed: int,
) -> tuple[float, float]:
    """Gamma^h(P_t f) + l Gamma^v(P_t f) at x, with combined error bar."""
    grads = [Gradient(f, "h"), Gradient(f, "v")]
    gh, gv = mc_semigroup_many(model, grads, x, t, paths, steps, seed)
    return gamma_mixed(gh, gv, l)
