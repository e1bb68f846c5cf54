"""Verification lab for sub-Riemannian curvature-dimension analysis.

The package computes the carre-du-champ calculus of sub-Laplacians on
left-invariant model spaces, derives the curvature-dimension constants
from structure-constant data, simulates the hypoelliptic heat
semigroup, and numerically certifies the functional inequalities the
constants imply (gradient bounds, entropy and Li-Yau bounds, Harnack
and Poincare inequalities, spectral gap).
"""

from .models import (
    DeclaredConstants,
    LieModel,
    ValidationReport,
    build_abelian,
    build_engel,
    build_free_nilpotent,
    build_heisenberg,
    build_su2_pair,
    get_model,
    validate,
)
from .jets import (
    GaussianBump,
    Jet,
    Polynomial,
    ShiftedSquare,
)
from .calculus import (
    cd_residual,
    commutation_residual,
    condb_residual,
    double_gamma_residuals,
    gamma,
    gamma2,
    sublaplacian,
)
from .geometry import (
    CDConstants,
    GeometryReport,
    assemble_constants,
    curvature_bounds,
    geometry_report,
    mixed_bounds,
    normalize_vertical,
    ricci_h,
    riemann_ricci_compare,
)

__version__ = "0.1.0"
