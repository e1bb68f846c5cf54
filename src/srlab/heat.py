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
gradients; `Squared(f)` and `FrameGamma(f, ...)` are markers read from
that table, as `Gradient(f)` is.  The estimates of one pass share their
paths, so the two sides of an inequality share their noise.

Streams are counter-based (Philox keyed by seed and chunk index), so
estimates are bit-reproducible for fixed settings regardless of how
chunks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    settings: dict = field(default_factory=dict)

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
class Squared:
    """Integrand entry f^2: the square of f's values at the path ends."""

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


class _Ends:
    """The path ends of one chunk, with each function's values and frame
    gradients there, formed once per function on first read."""

    def __init__(self, model: LieModel, points: np.ndarray):
        self.model = model
        self.points = points
        self.values, self.grads = {}, {}  # keyed by id(f)

    def value(self, f) -> np.ndarray:
        if id(f) not in self.values:
            self.values[id(f)] = np.asarray(f.eval(self.points), dtype=float)
        return self.values[id(f)]

    def gradient(self, f) -> np.ndarray:
        if id(f) not in self.grads:
            self.grads[id(f)] = frames.frame_gradients(self.model, f, self.points)
        return self.grads[id(f)]

    def read(self, entry) -> np.ndarray:
        """A plain entry's values at the path ends."""
        if isinstance(entry, Squared):
            return self.value(entry.f) ** 2
        if isinstance(entry, FrameGamma):
            g = self.gradient(entry.f)  # one block sum per letter of which, added in order
            gamma = sum(frames.gamma_of_gradients(self.model, g, w) for w in entry.which)
            return gamma**entry.power
        return self.value(entry)


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

    A plain integrand f gives a SemigroupEstimate of P_t f(x); a
    `Gradient` entry gives a GradientEstimate.  Only x is evolved, one
    `_evolve` call per chunk.  Sharing paths gives the estimates a
    common probability space, which the inequality checks need (their
    two sides must see the same noise).  The plain estimates carry the
    covariance of their means in settings["mean_cov"], for downstream
    linearised error bars.
    """
    if not integrands:
        raise ValueError("the integrand list is empty; give at least one integrand")
    if paths < 2 or steps < 1:
        # one path has no spread to give a standard error
        raise ValueError(f"paths must be >= 2 and steps >= 1, got {paths} and {steps}")
    if t < 0:
        raise ValueError("negative time")
    x = np.asarray(x, dtype=float)
    plain = [f for f in integrands if not isinstance(f, Gradient)]
    grads = [f for f in integrands if isinstance(f, Gradient)]
    dirs = [frames.frame_slice(model, g.which) for g in grads]
    groups = grads + ([plain] if plain else [])
    # per group: sum, sum of squares and cross products of its rows
    sums = [[0.0, 0.0, 0.0] for _ in groups]
    for idx, size in enumerate(_chunks(paths)):
        ends = _evolve(model, x[None], t, steps, size, _stream(seed, idx))[0]
        table = _Ends(model, ends)
        pathwise = {}  # per Gradient f: its derivative along each frame direction, per path
        if grads:
            ad_inv = algebra.adjoint_inverse(model.onframe, model.compose(model.inverse(x), ends))
        for acc, g, sel in zip(sums, groups, dirs + [None]):
            if g is plain:
                vals = np.stack([table.read(f) for f in plain])
            else:
                if id(g.f) not in pathwise:
                    pathwise[id(g.f)] = np.einsum("pki,pk->ip", ad_inv, table.gradient(g.f))
                vals = pathwise[id(g.f)][sel]
            acc[0] = acc[0] + vals.sum(axis=1)
            acc[1] = acc[1] + (vals**2).sum(axis=1)
            acc[2] = acc[2] + vals @ vals.T

    common = dict(t=t, paths=paths, steps=steps, seed=seed)
    bessel = paths / (paths - 1)
    grad_out, plain_out = [], []
    for g, (total, total_sq, cross) in zip(groups, sums):
        means = total / paths
        cov_mean = (cross / paths - np.outer(means, means)) * bessel / paths
        if g is not plain:
            var = float(4.0 * means @ cov_mean @ means + 2.0 * np.sum(cov_mean**2))
            grad_out.append(
                GradientEstimate(
                    value=float(means @ means - np.trace(cov_mean)),
                    std_error=float(np.sqrt(max(var, 0.0))),
                    directional=means.tolist(),
                    which=g.which,
                    x=x.tolist(),
                    **common,
                )
            )
            continue
        for i in range(len(plain)):
            var = max(total_sq[i] / paths - means[i] ** 2, 0.0) * bessel
            plain_out.append(
                SemigroupEstimate(
                    value=float(means[i]),
                    std_error=float(np.sqrt(var / paths)),
                    x=x.tolist(),
                    method="mc",
                    settings={"mean_cov": cov_mean.tolist(), "means": means.tolist()},
                    **common,
                )
            )
    grad_it, plain_it = iter(grad_out), iter(plain_out)
    return [next(grad_it if isinstance(f, Gradient) else plain_it) for f in integrands]


def mc_semigroup(
    model: LieModel, f, x, t: float, paths: int, steps: int, seed: int
) -> SemigroupEstimate:
    """Monte Carlo estimate of P_t f(x)."""
    return mc_semigroup_many(model, [f], x, t, paths, steps, seed)[0]


def variance(est_f: SemigroupEstimate, est_f2: SemigroupEstimate) -> tuple[float, float]:
    """P_t f^2 - (P_t f)^2 with a linearised error bar.

    est_f and est_f2 are the estimates of f and `Squared(f)`, the only
    plain integrands of one `mc_semigroup_many` pass.
    """
    m1, m2 = est_f.value, est_f2.value
    cov = np.asarray(est_f.settings["mean_cov"])
    if cov.shape != (2, 2):
        raise ValueError("variance needs a pass whose plain integrands are f and f^2")
    grad = np.array([-2.0 * m1, 1.0])
    var = float(grad @ cov @ grad)
    return m2 - m1**2, float(np.sqrt(max(var, 0.0)))


def mc_variance(
    model: LieModel, f, x, t: float, paths: int, steps: int, seed: int
) -> tuple[float, float]:
    """Estimate of P_t f^2 - (P_t f)^2 with a linearised error bar."""
    return variance(*mc_semigroup_many(model, [f, Squared(f)], x, t, paths, steps, seed))


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
