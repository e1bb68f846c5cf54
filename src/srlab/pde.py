"""Finite-difference solver for the horizontal heat equation on the
Heisenberg group.

The generator in exponential coordinates is

    L = (d_x - y/2 d_z)^2 + (d_y + x/2 d_z)^2
      = d_xx + d_yy + (x^2 + y^2)/4 d_zz - y d_x d_z + x d_y d_z,

a degenerate parabolic operator with cross derivatives.  Pure second
derivatives use compact 3-point stencils and the cross terms centered
4-point products; every coefficient commutes with the axes it
multiplies, so the assembled matrix is exactly symmetric.  We step
du/dt = L u / 2 by implicit Euler with conjugate-gradient solves,
under homogeneous Dirichlet conditions on a truncation box.  The
first-order frame matrices A1, A2 are kept alongside for gradient
post-processing of the fields.

The operators are assembled in CSR form and then held as diagonals
(DIA), in the order in which every CSR row stores its entries: scipy's
DIA product walks the diagonals in array order, so each row sums the
same products in the same order as the CSR product, and the results
are bitwise equal while the column lookups are gone.  The solves use
`cg`, which repeats the arithmetic of scipy's unpreconditioned
conjugate gradient step for step, so the fields are bitwise equal to
the CSR/scipy route too.  Only the system matrix keeps its CSR form, as
the matrix of record.

Truncation quality is tracked through the mass lost to the boundary;
checks escalate to an error when the loss exceeds a set fraction, per
the sub-Markov property mass can only decrease.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .jets import GaussianBump
from .models import LieModel, is_heisenberg

#: relative residual at which each implicit step's CG solve stops
CG_RTOL = 1e-10
#: largest boundary fraction a field may reach before evolve raises
FLUX_LIMIT = 1e-3
#: standard deviation of the kernel source, in cells of the widest grid axis
KERNEL_WIDTH_CELLS = 1.5
#: fewest grid points per axis: with fewer, the two-cell boundary shell is the whole box
MIN_AXIS_POINTS = 5


def _centered_diff(n: int, h: float) -> sp.csr_matrix:
    d = sp.diags([-np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1]) / (2.0 * h)
    return sp.csr_matrix(d)


def _second_diff(n: int, h: float) -> sp.csr_matrix:
    d = sp.diags(
        [np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], offsets=[-1, 0, 1]
    ) / (h * h)
    return sp.csr_matrix(d)


def grid_operators(axes) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """CSR assembly of the frame matrices A1, A2 and of L on a uniform grid."""
    nx, ny, nz = (len(ax) for ax in axes)
    hx, hy, hz = (ax[1] - ax[0] for ax in axes)
    ix, iy, iz = sp.identity(nx), sp.identity(ny), sp.identity(nz)
    dx = sp.kron(sp.kron(_centered_diff(nx, hx), iy), iz)
    dy = sp.kron(sp.kron(ix, _centered_diff(ny, hy)), iz)
    dz = sp.kron(sp.kron(ix, iy), _centered_diff(nz, hz))
    dxx = sp.kron(sp.kron(_second_diff(nx, hx), iy), iz)
    dyy = sp.kron(sp.kron(ix, _second_diff(ny, hy)), iz)
    dzz = sp.kron(sp.kron(ix, iy), _second_diff(nz, hz))
    ymul = sp.kron(sp.kron(ix, sp.diags(axes[1])), iz)
    xmul = sp.kron(sp.kron(sp.diags(axes[0]), iy), iz)
    a1 = (dx - 0.5 * ymul @ dz).tocsr()
    a2 = (dy + 0.5 * xmul @ dz).tocsr()
    lap = (
        dxx
        + dyy
        + 0.25 * (xmul @ xmul + ymul @ ymul) @ dzz
        - ymul @ dx @ dz
        + xmul @ dy @ dz
    ).tocsr()
    return a1, a2, lap


def row_ordered_dia(a: sp.csr_matrix) -> sp.dia_matrix:
    """The square CSR matrix a as diagonals, in the order its rows store them.

    Every row of a must store its entries as a subsequence of one order
    of the diagonal offsets; the order is read from a row that stores
    all of them.  `a @ x` and the returned matrix's product then add the
    same products in the same order (a padded zero adds exactly +-0),
    so for finite x they agree bit for bit.  Raises ValueError when no
    row holds every offset or some row breaks the order.
    """
    n = a.shape[0]
    counts = np.diff(a.indptr)
    offsets = a.indices - np.repeat(np.arange(n, dtype=np.int32), counts)
    full = int(np.argmax(counts))
    order = offsets[a.indptr[full] : a.indptr[full + 1]].copy()
    rank = np.full(2 * n - 1, -1, dtype=np.int16)
    rank[order + (n - 1)] = np.arange(len(order), dtype=np.int16)
    ranks = rank[offsets + (n - 1)]
    rising = np.diff(ranks) > 0
    starts = a.indptr[1:-1]
    rising[starts[(starts > 0) & (starts < len(ranks))] - 1] = True
    if ranks.min(initial=0) < 0 or not rising.all():
        raise ValueError("the rows of the matrix do not store their entries in one diagonal order")
    data = np.zeros((len(order), n))
    for row, k in enumerate(order.tolist()):
        data[row, max(k, 0) : n + min(k, 0)] = a.diagonal(k)
    return sp.dia_matrix((data, order), shape=a.shape)


def cg(a, b, x0, *, rtol, matvec, callback=None):
    """Solve a x = b for symmetric positive definite a by conjugate gradients.

    Repeats scipy.sparse.linalg.cg (scipy 1.17, no preconditioner, atol
    0) operation for operation, so x is bitwise equal to scipy's for the
    same products: stop when |r| < rtol |b|, at most 10 n iterations,
    callback(x) after each.  matvec(p) computes a @ p.  Returns
    (x, info), info 0 on convergence and the iteration limit otherwise.
    """
    x = np.array(x0, dtype=float)
    bnorm = np.sqrt(np.dot(b, b))
    if bnorm == 0:
        return b, 0
    tol = rtol * bnorm
    r = b - matvec(x) if x.any() else b.copy()
    buf = np.empty_like(r)
    maxiter = 10 * len(b)
    for it in range(maxiter):
        rho = np.dot(r, r)
        if np.sqrt(rho) < tol:
            return x, 0
        if it:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        np.multiply(alpha, p, out=buf)
        x += buf
        np.multiply(alpha, q, out=buf)
        r -= buf
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


@dataclass
class PDEField:
    """Grid snapshot of P_t f with its truncation diagnostics."""

    t: float
    values: np.ndarray            # shape (nx, ny, nz)
    mass_ratio: float             # mass(t) / mass(0), signed masses
    boundary_fraction: float      # |u| mass in the outer two-cell shell


class TruncationError(RuntimeError):
    """Raised when too much mass reaches the truncation boundary."""


class HeisenbergHeatSolver:
    """Implicit-Euler evolution of u_t = L u / 2 on a Dirichlet box."""

    def __init__(self, model: LieModel, bounds: tuple, shape: tuple, dt: float):
        if not is_heisenberg(model):
            raise ValueError("the grid solver is implemented for the Heisenberg model")
        self.model = model
        self.bounds = tuple(float(b) for b in bounds)
        self.shape = tuple(int(s) for s in shape)
        for axis, points in enumerate(self.shape):
            if points < MIN_AXIS_POINTS:
                raise ValueError(
                    f"axis {'xyz'[axis]} has {points} grid points; "
                    f"at least {MIN_AXIS_POINTS} are needed"
                )
        self.dt = float(dt)
        self.axes = [np.linspace(-b, b, s) for b, s in zip(self.bounds, self.shape)]
        hx, hy, hz = (ax[1] - ax[0] for ax in self.axes)
        self.spacing = (hx, hy, hz)

        a1, a2, lap = grid_operators(self.axes)
        self.a1 = row_ordered_dia(a1)
        self.a2 = row_ordered_dia(a2)
        self.system = (sp.identity(lap.shape[0], format="csr") - 0.5 * self.dt * lap).tocsr()
        self.lap = row_ordered_dia(lap)
        self.step_op = row_ordered_dia(self.system)
        self.cell_volume = hx * hy * hz

    # -- grid helpers ---------------------------------------------------

    def grid_points(self) -> np.ndarray:
        gx, gy, gz = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    def sample(self, f) -> np.ndarray:
        return np.asarray(f.eval(self.grid_points()), dtype=float)

    def mass(self, u: np.ndarray) -> float:
        return float(u.sum() * self.cell_volume)

    def boundary_fraction(self, u: np.ndarray) -> float:
        a = np.abs(u)
        total = a.sum()
        if total == 0:
            return 0.0
        inner = a[2:-2, 2:-2, 2:-2].sum()
        return float((total - inner) / total)

    def apply_laplacian(self, u: np.ndarray) -> np.ndarray:
        return (self.lap @ u.ravel()).reshape(self.shape)

    def gamma_h(self, u: np.ndarray) -> np.ndarray:
        g1 = (self.a1 @ u.ravel()).reshape(self.shape)
        g2 = (self.a2 @ u.ravel()).reshape(self.shape)
        return g1**2 + g2**2

    def l1_norm(self, u: np.ndarray) -> float:
        return float(np.abs(u).sum() * self.cell_volume)

    def interpolate(self, u: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of a grid field at coordinate points.

        Points must lie in the closed box; a point outside it (or NaN)
        raises ValueError instead of reading the nearest face.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points))
        idx = []
        frac = []
        for k in range(3):
            ax = self.axes[k]
            p = points[:, k]
            if not np.all((p >= ax[0]) & (p <= ax[-1])):
                raise ValueError(f"points outside the grid box on axis {k}")
            j = np.clip(np.searchsorted(ax, p) - 1, 0, len(ax) - 2)
            idx.append(j)
            frac.append((p - ax[j]) / (ax[j + 1] - ax[j]))
        for bx in (0, 1):
            for by in (0, 1):
                for bz in (0, 1):
                    w = (
                        (frac[0] if bx else 1 - frac[0])
                        * (frac[1] if by else 1 - frac[1])
                        * (frac[2] if bz else 1 - frac[2])
                    )
                    out += w * u[idx[0] + bx, idx[1] + by, idx[2] + bz]
        return out if len(out) > 1 else out[0]

    # -- evolution --------------------------------------------------------

    def evolve(self, u0: np.ndarray, times) -> list[PDEField]:
        """Implicit-Euler snapshots of the field at the requested times.

        Times must be (close to) multiples of dt.  The boundary
        diagnostic is tested at every step, so a TruncationError (raised
        when it exceeds FLUX_LIMIT) does not depend on which times are
        requested.  Snapshot values are read-only.
        """
        times = sorted(float(t) for t in times)
        u = np.asarray(u0, dtype=float).ravel().copy()
        mass0 = abs(u.sum()) * self.cell_volume
        out = []
        ti = 0
        nsteps = int(round(times[-1] / self.dt))
        if abs(nsteps * self.dt - times[-1]) > 1e-9:
            raise ValueError("final time must be a multiple of dt")
        for k in range(nsteps + 1):
            if k:
                u, info = cg(self.system, u, x0=u, rtol=CG_RTOL, matvec=self.step_op.dot)
                if info != 0:
                    raise RuntimeError(f"conjugate gradient failed to converge (info={info})")
            t = k * self.dt
            grid = u.reshape(self.shape)
            bf = self.boundary_fraction(grid)
            if bf > FLUX_LIMIT:
                raise TruncationError(
                    f"boundary fraction {bf:.2e} exceeds {FLUX_LIMIT:.0e} at t={t:g}; "
                    "enlarge the box or shorten the horizon"
                )
            while ti < len(times) and abs(times[ti] - t) < 1e-9:
                ratio = abs(u.sum()) * self.cell_volume / mass0 if mass0 > 0 else 1.0
                values = grid.copy()
                values.flags.writeable = False
                out.append(PDEField(t, values, ratio, bf))
                ti += 1
        if ti != len(times):
            raise ValueError("some requested times were not multiples of dt")
        return out


@dataclass
class KernelEstimate:
    """Heat kernel reading p_t(x, y) from a regularized point source."""

    value: float
    t: float
    mass_ratio: float


def kernel_source(solver: HeisenbergHeatSolver, y) -> np.ndarray:
    """Regularized point source at y: a bump of unit grid mass.

    Its standard deviation is KERNEL_WIDTH_CELLS cells of the widest
    grid axis.  Evolving it reads P_t phi, which converges to the kernel
    p_t(., y) as the grid is refined.
    """
    width = KERNEL_WIDTH_CELLS * max(solver.spacing)
    u0 = solver.sample(GaussianBump(np.asarray(y, dtype=float), width))
    u0 /= solver.mass(u0)
    return u0


def heat_kernel(solver: HeisenbergHeatSolver, x, y, t) -> list[KernelEstimate]:
    """Estimate p_t(x, y) by evolving the kernel source at y.

    t is one time or a list of times, each a multiple of the solver's dt.
    """
    x = np.asarray(x, dtype=float)
    times = [t] if np.isscalar(t) else list(t)
    fields = solver.evolve(kernel_source(solver, y), times)
    return [
        KernelEstimate(float(solver.interpolate(fld.values, x)), fld.t, fld.mass_ratio)
        for fld in fields
    ]
