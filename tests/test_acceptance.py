"""Acceptance gate: every top-level guarantee of the lab in one module.

Each test certifies one numbered criterion at its stated tolerance and
prints a single summary line.  Settings here are the contract values
(sample counts, tolerances, runtime caps); the unit-test modules cover
the same machinery at lighter settings.
"""

import json
import time

import numpy as np
import pytest

import srlab.calculus as calc
import srlab.geometry as geo
import srlab.heat as heat
import srlab.schedules as sch
import srlab.spectral as spectral
import srlab.suite as su
from srlab.jets import Polynomial
from srlab.models import DeclaredConstants, build_free_nilpotent, build_su2_pair, get_model

SEED = 20260809


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


# ----------------------------------------------------------------------


def test_c01_cd_sharpness_and_validity():
    """CD inequality valid on a large sweep, equality at the witness."""
    t0 = time.perf_counter()
    model = get_model("heisenberg")
    constants = DeclaredConstants(2, 0.0, 0.5, 0.0)
    l_grid = np.logspace(-1, 1, 9)

    z = Polynomial.coordinate(3, 2)
    witness = max(
        abs(calc.cd_residual(model, z, np.zeros(3), l, constants)) for l in l_grid
    )
    assert witness <= 1e-12

    res, scale = calc.cd_residual_sweep(
        model, constants, 10000, 20, l_grid, seed=SEED
    )
    worst = float((res / scale).min())
    assert worst >= -1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(1, f"CD sweep min margin {worst:.2e}, witness residual {witness:.1e}, "
              f"{elapsed:.0f}s")


def test_c02_constants_reproduction():
    """Derived constants match the declared records to 1e-9."""
    rows = []
    for n in (2, 3, 4):
        m = build_free_nilpotent(n)
        c = geo.assemble_constants(m)
        assert c.rho20 == pytest.approx(1.0 / (2 * (n - 1)), abs=1e-9)
        assert c.rho1 == pytest.approx(0.0, abs=1e-9)
        rows.append(f"rho2(F{n})={c.rho20:.6f}")
    for rho in (1.0, 2.5):
        m = build_su2_pair(rho)
        c = geo.assemble_constants(m)
        assert c.rho1 == pytest.approx(4.0 * rho, abs=1e-9)
        assert c.rho20 == pytest.approx(0.25, abs=1e-9)
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        rep = geo.geometry_report(get_model(name))
        assert rep.M_HV <= 1e-9
        assert rep.M_grad_v <= 1e-9
    report(2, ", ".join(rows) + ", su2 (rho1, rho2) = (4 rho, 1/4), mixed bounds 0")


def test_c03_condition_b():
    """Gradient commutation identity: exact at step 2, broken at step 3."""
    t0 = time.perf_counter()
    worst = {}
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        res, scale = calc.condb_sweep(get_model(name), 1000, seed=SEED)
        # tolerance scales with the evaluated form sizes, per the
        # module's tolerance policy
        worst[name] = float((res / scale).max())
        assert worst[name] <= 1e-12, (name, worst[name])
    res, _ = calc.condb_sweep(get_model("engel"), 1000, seed=SEED)
    frac = float((res > 1e-6).mean())
    assert frac >= 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"step-2 max scaled residual {max(worst.values()):.1e}, "
              f"engel violation fraction {frac:.2f}, {elapsed:.0f}s")


def test_c04_commutation():
    """Sub-Laplacian commutes with the full Laplacian on parallel models."""
    worst = 0.0
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        res, scale = calc.commutation_sweep(get_model(name), 50, 20, seed=SEED)
        worst = max(worst, float((res / scale).max()))
        assert (res / scale).max() <= 1e-9, name
    report(4, f"max scaled commutation residual {worst:.1e} over 1000 quartics/model")


def test_c05_ricci_comparison():
    """Two independent curvature pipelines agree on the Ricci form."""
    worst = 0.0
    for name in ("heisenberg", "su2-pair"):
        dev = geo.riemann_ricci_compare(get_model(name), 50, seed=SEED)
        worst = max(worst, dev)
        assert dev <= 1e-10, name
    report(5, f"max two-pipeline deviation {worst:.1e} over 50 directions")


def test_c06_spectral_gap():
    """Dense-representation gap dominates both curvature bounds."""
    t0 = time.perf_counter()
    lam1, alpha_chk, gap_chk = spectral.spectral_gap_su2_pair(1.0, 2.0)
    assert -lam1 >= 6.0 / 7.0
    assert -lam1 >= 4.0 / 5.0
    assert alpha_chk["margin"] >= 0 and gap_chk["margin"] >= 0
    r2 = spectral.spectral_gap(1.0, 2.0)
    r3 = spectral.spectral_gap(1.0, 3.0)
    assert abs(r2.lambda1 - r3.lambda1) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, f"-lambda1 = {-lam1:.6f} >= 6/7 and 4/5; stable at scan growth; "
              f"{elapsed:.0f}s")


def test_c07_semigroup_fidelity():
    """Mass conservation exact; Brownian marginal moment within 3 sigma."""
    t0 = time.perf_counter()
    model = get_model("heisenberg")
    one = heat.mc_semigroup(model, Polynomial.constant(3, 1.0), np.zeros(3), 1.0, 10000, 50, SEED)
    assert one.value == 1.0 and one.std_error == 0.0
    est = heat.mc_semigroup(
        model,
        Polynomial.monomial(3, (2, 0, 0)),
        np.zeros(3),
        1.0,
        100000,
        200,
        su.derive_seed(SEED, "sgx2"),
    )
    assert abs(est.value - 1.0) <= 3.0 * est.std_error
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"P_t 1 = 1 exactly; P_1(x^2)(0) = {est.value:.4f} "
              f"(1 +- {3 * est.std_error:.4f}); {elapsed:.0f}s")


def rows_of(report, check_id):
    return [r for r in report["results"] if r["check_id"] == check_id]


def test_c08_gradient_bounds():
    """Semigroup gradient bounds within 3 sigma on 10 seeded cases each."""
    checks = ["gradient-bound-a", "gradient-bound-b", "vertical-gradient"]
    rep, _ = su.run_suite({"seed": SEED, "models": ["heisenberg"], "checks": checks})
    for cid in checks:
        rows = rows_of(rep, cid)
        assert len(rows) == 10
        for r in rows:
            assert r["verdict"] == "pass", (cid, r["details"])
    report(8, "bounds (a), (b) and the vertical bound pass on 10 cases each")


def test_c09_liyau_harnack_kernel():
    """Dimensional gradient bound, Harnack inequality, kernel decay."""
    rep, _ = su.run_suite(
        {"seed": SEED, "models": ["heisenberg"], "checks": ["li-yau", "harnack", "kernel-decay"]}
    )
    ly = rows_of(rep, "li-yau")
    assert {r["details"]["t"] for r in ly} == {0.3, 0.5, 1.0}
    for r in ly:
        assert r["details"]["N"] == pytest.approx(7.872983346, abs=1e-6)
        assert r["details"]["D"] == pytest.approx(np.sqrt(15.0), abs=1e-9)
        assert r["margin"] >= -r["tolerance"]  # tolerance is 5% of the right side

    ha_rows = rows_of(rep, "harnack") + rows_of(rep, "harnack-kernel")
    assert len(ha_rows) == 2
    for r in ha_rows:
        assert r["verdict"] == "pass", r["check_id"]
    n_samples = rows_of(rep, "harnack")[0]["details"]["samples"]
    assert n_samples >= 20

    (decay,) = rows_of(rep, "kernel-decay")
    (dim_bound,) = rows_of(rep, "kernel-dimension-bound")
    assert decay["verdict"] == "pass"      # p_t(0,0) decreasing
    assert dim_bound["verdict"] == "pass"  # p_t <= t^(-N/2) p_1
    frac = dim_bound["details"]["product_nonincreasing_fraction"]
    report(9, f"dimensional bound holds at t in (0.3, 0.5, 1.0); Harnack passes on "
              f"{n_samples} samples; kernel decreasing with t^(N/2) p_t rising to its "
              f"t=1 cap (rising fraction {1 - frac:.0%})")


def test_c10_schedule_admissibility():
    """Built-in weight schedules satisfy their conditions on refined grids."""
    worst = np.inf
    for name in ("heisenberg", "free-nilpotent-3", "su2-pair"):
        consts = geo.assemble_constants(get_model(name))
        for n in (2048, 4096):
            built, skipped = sch.builtin_schedules(consts, 1.0, n=n)
            assert not skipped, (name, skipped)
            for s in built:
                chk = sch.admissibility_margins(s, consts)
                assert not chk.issues, (name, s.label, chk.issues)
                assert chk.margin >= -1e-8, (name, s.label, chk.margin)
                worst = min(worst, chk.margin)
    su2 = geo.assemble_constants(get_model("su2-pair"))
    mono = sch.ratio_monotonicity(sch.gradient_variance_exponential(su2, 1.0))
    assert mono > 0.0
    report(10, f"all schedules admissible (worst margin {worst:.1e}); "
               f"weight ratio strictly increasing where applicable")


def test_c11_determinism(tmp_path):
    """Identical config and seed produce byte-identical reports."""
    cfg = {
        "checks": [
            "validate-models",
            "constants",
            "cd-sharpness",
            "condition-b",
            "schedules",
            "distance",
            "semigroup-identity",
            "kernel-decay",
        ],
        "condb": {"samples": 200},
        "seed": SEED,
    }
    paths = []
    for k in (1, 2):
        out = tmp_path / f"report{k}.json"
        run_cfg = json.loads(json.dumps(cfg))
        run_cfg["output"] = {"json": str(out)}
        rep, code = su.run_suite(run_cfg)
        assert code == 0
        assert rep["summary"]["fail"] == 0
        paths.append(out)
    b1 = paths[0].read_bytes()
    b2 = paths[1].read_bytes()
    assert b1 == b2
    report(11, f"two runs produced byte-identical {len(b1)}-byte reports")
