"""Spectral gap oracle for the SU(2) x SU(2) model.

Functions on a compact group split over its irreducible unitary
representations, and a left-invariant operator acts within each block.
The horizontal operator is

    Delta_h = sum_i F_i^2

over the model's orthonormal horizontal frame, whose fields are
combinations of the declared factor bases X^1_a, X^2_a
(`models.OrthonormalFrame.ideals`).  On the representation pair (j1, j2),
X^k_a acts as -i J_a on spin j_k, so the full spectrum is the union over
blocks of the eigenvalues of a small dense matrix built from spin
matrices.  We diagonalize those matrices directly; no closed form
enters, which keeps this an independent oracle for the spectral-gap
bounds derived from the curvature constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .models import LieModel, build_su2_pair

#: largest spin scan `spectral_gap` accepts: its cost grows about as j_max^6
J_MAX_LIMIT = 4.0


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard angular momentum matrices (Jx, Jy, Jz) for spin j."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m.astype(complex))
    raising = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        mm = m[k]
        raising[k - 1, k] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    jx = 0.5 * (raising + raising.conj().T)
    jy = -0.5j * (raising - raising.conj().T)
    return jx, jy, jz


def horizontal_operator(model: LieModel, j1: float, j2: float) -> np.ndarray:
    """Dense matrix of the horizontal operator of an SU(2) x SU(2) model on the (j1, j2) block."""
    ms1 = spin_matrices(j1)
    ms2 = spin_matrices(j2)
    eye1 = np.eye(ms1[0].shape[0])
    eye2 = np.eye(ms2[0].shape[0])
    # X^k_a is anti-Hermitian -i J_a on factor k; F_i = sum_k,a Q[k, a, i] X^k_a, Q = ideals[1]
    x = np.array([[np.kron(-1j * m, eye2) for m in ms1], [np.kron(eye1, -1j * m) for m in ms2]])
    ops = np.einsum("kai,kaxy->ixy", model.onframe.ideals[1][..., : model.dim_h], x)
    return sum(op @ op for op in ops)


def block_eigenvalues(model: LieModel, j1: float, j2: float) -> np.ndarray:
    """Real eigenvalues of the horizontal operator on one block."""
    return np.linalg.eigvalsh(horizontal_operator(model, j1, j2))


@dataclass
class SpectralGapResult:
    """Smallest-magnitude nonzero eigenvalue and its provenance."""

    rho: float
    j_max: float
    lambda1: float               # eigenvalue of the (unhalved) operator
    attained_at: tuple
    stable: bool                 # gap unchanged under j_max -> j_max + 1


def spectral_gap(rho: float, j_max: float) -> SpectralGapResult:
    """Scan representation blocks up to j_max for the spectral gap.

    The result reports -lambda1 through lambda1 = -(smallest magnitude
    nonzero eigenvalue); stability under enlarging the scan by one
    spin level is the convergence certificate, since blocks grow
    monotonically in Casimir content.  One scan to j_max + 1 reads both
    minima.  j_max must be a multiple of 1/2 between 1 and J_MAX_LIMIT.
    Every eigenvalue scales with rho, and so does the zero tolerance.
    """
    if not 1 <= j_max <= J_MAX_LIMIT:
        raise ValueError(f"j_max must lie in [1, {J_MAX_LIMIT:g}], got {j_max}")
    if not float(2 * j_max).is_integer():
        raise ValueError(f"j_max must be a multiple of 1/2, got {j_max}")
    model = build_su2_pair(rho)
    zero_tol = 1e-9 * rho
    best = {j_max: (np.inf, (0.0, 0.0)), j_max + 1.0: (np.inf, (0.0, 0.0))}
    spins = [0.5 * k for k in range(int(round(2 * j_max)) + 3)]
    for j1 in spins:
        for j2 in spins:
            if j1 == 0 and j2 == 0:
                continue
            eigs = block_eigenvalues(model, j1, j2)
            nonzero = np.abs(eigs)[np.abs(eigs) > zero_tol]
            if not len(nonzero):
                continue
            for top, (gap, _) in best.items():
                if max(j1, j2) <= top and nonzero.min() < gap:
                    best[top] = (float(nonzero.min()), (j1, j2))
    (gap, arg), (gap_next, _) = best.values()
    return SpectralGapResult(
        rho=rho,
        j_max=j_max,
        lambda1=-gap,
        attained_at=arg,
        stable=abs(gap - gap_next) <= zero_tol,
    )


def spectral_gap_su2_pair(rho: float, j_max: float):
    """Gap oracle plus the two curvature-derived lower bounds.

    Returns (lambda1, alpha_check, bound_check) where each check is a
    dict with the bound value, the measured -lambda1, and the margin
    -lambda1 - bound (nonnegative when the bound holds).
    """
    result = spectral_gap(rho, j_max)
    consts = geometry.assemble_constants(build_su2_pair(rho))
    neg_l1 = -result.lambda1
    alpha_check = {
        "anchor": "Poincare(c)",
        "bound": consts.alpha,
        "neg_lambda1": neg_l1,
        "margin": neg_l1 - consts.alpha,
        "stable": result.stable,
    }
    gap_check = {
        "anchor": "SpectralGap",
        "bound": consts.spectral_gap_bound,
        "neg_lambda1": neg_l1,
        "margin": neg_l1 - consts.spectral_gap_bound,
        "stable": result.stable,
    }
    return result.lambda1, alpha_check, gap_check
