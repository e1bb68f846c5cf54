"""Dense-representation spectral oracle against the Casimir closed form.

The closed form is derived independently from angular momentum
algebra: on the block (j1, j2) with total coupling j, the horizontal
operator has eigenvalue -2 rho (2 j (j+1) + 2 j2 (j2+1) - j1 (j1+1)),
so the spectral gap is attained at (1/2, 0) and (1/2, 1/2) with
-lambda1 = 3 rho / 2.  The oracle itself never uses this formula.
"""

import numpy as np
import pytest

import srlab.spectral as sp
from srlab.models import build_su2_pair

SPINS = [0.5 * k for k in range(5)]


def casimir_eigenvalues(rho, j1, j2):
    out = []
    j = abs(j1 - j2)
    while j <= j1 + j2 + 1e-9:
        lam = -2.0 * rho * (2 * j * (j + 1) + 2 * j2 * (j2 + 1) - j1 * (j1 + 1))
        out.extend([lam] * int(round(2 * j + 1)))
        j += 1.0
    return sorted(out)


def test_spin_matrices_commutation():
    for j in (0.5, 1.0, 1.5):
        jx, jy, jz = sp.spin_matrices(j)
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(casimir, j * (j + 1) * np.eye(jx.shape[0]), atol=1e-12)


def test_trivial_block_is_flat():
    eigs = sp.block_eigenvalues(build_su2_pair(1.0), 0.0, 0.0)
    assert np.allclose(eigs, 0.0, atol=1e-12)


@pytest.mark.parametrize("j1,j2", [(j1, j2) for j1 in SPINS for j2 in SPINS])
def test_blocks_match_casimir_closed_form(j1, j2):
    # the operator comes from the model's orthonormal horizontal frame
    # through its declared factors; the closed form from the Casimirs
    for rho in (0.3, 1.0, 1.3, 2.5):
        got = np.sort(sp.block_eigenvalues(build_su2_pair(rho), j1, j2))
        want = np.asarray(casimir_eigenvalues(rho, j1, j2))
        assert np.allclose(got, want, rtol=0.0, atol=1e-13 * rho * (1.0 + j1 + j2) ** 2)


def test_gap_value_and_location():
    res = sp.spectral_gap(1.0, 2.0)
    assert -res.lambda1 == pytest.approx(1.5, abs=1e-9)
    assert res.attained_at in ((0.5, 0.0), (0.5, 0.5))
    assert res.stable


def test_gap_stability_under_scan_growth():
    r2 = sp.spectral_gap(1.0, 2.0)
    r3 = sp.spectral_gap(1.0, 3.0)
    assert abs(r2.lambda1 - r3.lambda1) <= 1e-9


def test_gap_scales_linearly_in_rho():
    base = sp.spectral_gap(1.0, 2.0).lambda1
    for rho in (0.5, 2.0, 3.5):
        assert sp.spectral_gap(rho, 2.0).lambda1 == pytest.approx(rho * base, rel=1e-12)


def test_bounds_hold():
    lam1, alpha_chk, gap_chk = sp.spectral_gap_su2_pair(1.0, 2.0)
    assert -lam1 == pytest.approx(1.5, abs=1e-9)
    assert alpha_chk["bound"] == pytest.approx(0.8, abs=1e-9)
    assert gap_chk["bound"] == pytest.approx(6.0 / 7.0, abs=1e-9)
    assert alpha_chk["margin"] >= 0.0
    assert gap_chk["margin"] >= 0.0


def test_jmax_validation():
    with pytest.raises(ValueError):
        sp.spectral_gap(1.0, 0.5)


def test_jmax_above_the_limit_is_rejected():
    # the scan costs about j_max^6; 4.5 is cheap, but larger values are not
    assert sp.J_MAX_LIMIT == 4.0
    with pytest.raises(ValueError, match="j_max must lie in"):
        sp.spectral_gap(1.0, 4.5)


def test_gap_at_tiny_rho_is_three_halves_rho():
    # the zero tolerance scales with rho, so the true gap 3 rho / 2 is
    # not dropped as a zero eigenvalue below rho = 1
    for rho in (1e-10, 1e-6):
        res = sp.spectral_gap(rho, 2.0)
        assert -res.lambda1 == pytest.approx(1.5 * rho, rel=1e-12)
        assert res.attained_at in ((0.5, 0.0), (0.5, 0.5))
        assert res.stable
