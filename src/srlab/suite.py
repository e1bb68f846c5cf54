"""Inequality verification suite.

Every functional inequality the curvature-dimension constants imply is
wrapped as a named check producing machine-readable results.  A check
compares an independently computed left and right side and records the
margin (right minus left, or the distance to an identity), the
tolerance it must survive, and a verdict:

* pass          margin >= -tolerance,
* fail          margin below tolerance and statistically significant,
* inconclusive  the statistical error bar exceeds the margin size, so
                the sample neither confirms nor refutes.

Monte Carlo verdicts use a three-sigma tolerance and never coerce
inconclusive to pass.  Reports are deterministic for a fixed seed:
every check derives its own stream from (seed, check id), timings are
kept out of the JSON payload, and results are sorted before writing.

The anchor field names the inequality catalog entry a result
certifies; the catalog is documented in the README.

Checks that run on every configured model are rows of data: a row id,
an anchor, an eligibility test on the model's structure (step,
parallelism, declared constants; never its name) and a measurement of
one model.  One driver, `_per_model`, walks the configured models for
each row.  Checks on one fixed model (the Heisenberg group, or the
su2-pair spectrum) stay functions.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import calculus, distance, geometry, heat, pde, schedules, spectral
from .jets import Constant, Coordinate, GaussianBump, Polynomial, get_space
from .models import get_model, validate

ALL_MODELS = ("heisenberg", "free-nilpotent-3", "engel", "su2-pair")


@dataclass
class CheckResult:
    """Outcome of one inequality check."""

    check_id: str
    anchor: str
    model: str
    margin: float
    tolerance: float
    verdict: str
    std_error: float | None = None
    digest: str = ""
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "model": self.model,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "std_error": self.std_error,
            "verdict": self.verdict,
            "digest": self.digest,
            "details": self.details,
        }


def verdict_of(margin: float, tolerance: float, std_error: float | None = None) -> str:
    if margin >= -tolerance:
        return "pass"
    if std_error is not None and std_error > abs(margin):
        return "inconclusive"
    return "fail"


def _mk(check_id, anchor, model, margin, tolerance, seed, std_error=None, **details):
    payload = json.dumps(
        {"check": check_id, "model": model, "seed": seed, "details_keys": sorted(details)},
        sort_keys=True,
    )
    return CheckResult(
        check_id=check_id,
        anchor=anchor,
        model=model,
        margin=float(margin),
        tolerance=float(tolerance),
        verdict=verdict_of(margin, tolerance, std_error),
        std_error=None if std_error is None else float(std_error),
        digest=hashlib.sha256(payload.encode()).hexdigest()[:16],
        details=details,
    )


def derive_seed(seed: int, check_id: str) -> int:
    h = hashlib.sha256(f"{seed}:{check_id}".encode()).digest()
    return int.from_bytes(h[:8], "little") & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

DEFAULT_CONFIG = {
    "seed": 20260809,
    "models": list(ALL_MODELS),
    "checks": "all",
    "cd": {"functions": 10000, "points": 20, "l_points": 9},
    "double_gamma": {"functions": 500, "points": 20, "l": 1.0, "c": 1.0},
    "condb": {"samples": 1000},
    "commutation": {"functions": 50, "points": 20},
    "ricci": {"directions": 50},
    "spectral": {"rho": 1.0, "j_max": 2.0},
    "mc": {"paths": 100000, "steps": 200},
    "gradient": {"paths": 20000, "steps": 60, "cases": 10, "delta": 1e-3},
    "pde": {"bounds": [5.0, 5.0, 3.0], "shape": [51, 51, 41], "dt": 0.01},
    "schedules": {"horizon": 1.0, "grid": 2048},
    "output": {"json": None, "csv_dir": None},
    "jobs": 1,
}


class ConfigError(ValueError):
    pass


def load_config(doc: dict | str | None) -> dict:
    """Merge a user configuration over the defaults, validating keys."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if doc is None:
        return cfg
    if isinstance(doc, str):
        with open(doc) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    for key, value in doc.items():
        if key not in cfg:
            raise ConfigError(f"unknown configuration key {key!r}")
        if isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"configuration key {key!r} must be an object")
            for k2, v2 in value.items():
                if k2 not in cfg[key]:
                    raise ConfigError(f"unknown configuration key {key}.{k2}")
                cfg[key][k2] = v2
        else:
            cfg[key] = value
    return cfg


def _l_grid(n: int) -> np.ndarray:
    return np.logspace(-1.0, 1.0, n)


def _constants_for(name: str):
    """Declared-constants route: normalized model plus its constants."""
    model = get_model(name)
    work = geometry.normalize_vertical(model)
    consts = geometry.assemble_constants(model)
    return work, consts


# ----------------------------------------------------------------------
# Per-model checks: rows (row id, anchor, eligible, measure)
# ----------------------------------------------------------------------


def _per_model(*rows):
    """A check emitting each row for every configured model it accepts.

    eligible(model) decides from the model's structure whether a row
    applies; measure(cfg, seed, name) returns (margin, tolerance,
    details).  Rows run in order, each over cfg["models"] in order.
    """

    def check(cfg, seed) -> list[CheckResult]:
        out = []
        for cid, anchor, eligible, measure in rows:
            for name in cfg["models"]:
                if eligible(get_model(name)):
                    margin, tol, details = measure(cfg, seed, name)
                    out.append(_mk(cid, anchor, name, margin, tol, seed, **details))
        return out

    return check


def _any(model) -> bool:
    return True


def _declared(model) -> bool:
    return model.declared_constants is not None


def _step2(model) -> bool:
    return validate(model).step == 2


def _beyond_step2(model) -> bool:
    return validate(model).step > 2


def _parallel(model) -> bool:
    return validate(model).fully_parallel


def _validation(cfg, seed, name):
    report = validate(get_model(name))
    margin = -max(report.jacobi_residual, report.antisymmetry_residual)
    return margin, 1e-12, {"report": report.to_json()}


def _constants(cfg, seed, name):
    model = get_model(name)
    rep = geometry.geometry_report(model)
    consts = geometry.assemble_constants(model)
    dec = model.declared_constants
    dev = max(
        abs(consts.rho1 - dec.rho1),
        abs(consts.rho20 - dec.rho20),
        abs(consts.rho21 - dec.rho21),
        abs(consts.n - dec.n),
    )
    if validate(model).fully_parallel:
        dev = max(dev, rep.M_HV, rep.M_grad_v)
    return -dev, 1e-9, {"constants": consts.to_json(), "geometry": rep.to_json()}


def _cd_sweep(cfg, seed, name):
    s = cfg["cd"]
    grid = _l_grid(s["l_points"])
    work, consts = _constants_for(name)
    res, scale = calculus.cd_residual_sweep(
        work, consts, s["functions"], s["points"], grid, seed=derive_seed(seed, f"cd:{name}")
    )
    ratio = res / scale
    details = {
        "functions": s["functions"],
        "points": s["points"],
        "l_grid": list(grid),
        "mean_margin": float(ratio.mean()),
    }
    return float(ratio.min()), 1e-9, details


def _double_gamma(cfg, seed, name):
    s = cfg["double_gamma"]
    model = get_model(name)
    rep = geometry.geometry_report(model, normalize=False)
    first, second, scale = calculus.double_gamma_sweep(
        model, s["functions"], s["points"], s["l"], s["c"], rep.rho_H, rep.M_HV,
        seed=derive_seed(seed, f"dg:{name}"),
    )
    first, second = float((first / scale).min()), float((second / scale).min())
    return min(first, second), 1e-9, {"first_min": first, "second_min": second}


def _condb(cfg, seed, name):
    n = cfg["condb"]["samples"]
    return calculus.condb_sweep(get_model(name), n, seed=derive_seed(seed, f"condb:{name}"))


def _condition_b(cfg, seed, name):
    res, scale = _condb(cfg, seed, name)
    details = {"samples": cfg["condb"]["samples"], "max_absolute": float(res.max())}
    return -float((res / scale).max()), 1e-12, details


def _condition_b_violation(cfg, seed, name):
    res, _ = _condb(cfg, seed, name)
    frac = float((res > 1e-6).mean())
    return frac - 0.1, 0.0, {"violating_fraction": frac, "samples": cfg["condb"]["samples"]}


def _commutation(cfg, seed, name):
    s = cfg["commutation"]
    res, scale = calculus.commutation_sweep(
        get_model(name), s["functions"], s["points"], seed=derive_seed(seed, f"comm:{name}")
    )
    details = {"functions": s["functions"], "points": s["points"]}
    return -float((res / scale).max()), 1e-9, details


def _ricci_compare(cfg, seed, name):
    n = cfg["ricci"]["directions"]
    worst = geometry.riemann_ricci_compare(
        get_model(name), n, seed=derive_seed(seed, f"ricci:{name}")
    )
    return -worst, 1e-10, {"directions": n}


def _schedules(cfg, seed, name):
    s = cfg["schedules"]
    _, consts = _constants_for(name)
    built, skipped = schedules.builtin_schedules(consts, s["horizon"], n=s["grid"])
    worst = np.inf
    issues = {}
    for sched in built:
        chk = schedules.admissibility_margins(sched, consts)
        worst = min(worst, chk.margin)
        if chk.issues:
            issues[sched.label] = chk.issues
            worst = min(worst, -1.0)
    details = {"schedules": [sched.label for sched in built], "skipped": skipped}
    if issues:
        details["issues"] = issues
    if consts.rho1 > 0:
        mono = schedules.ratio_monotonicity(
            schedules.gradient_variance_exponential(consts, s["horizon"], s["grid"])
        )
        details["ratio_monotonicity_min"] = float(mono)
        if mono <= 0:
            worst = min(worst, -1.0)
    return float(worst), 1e-8, details


# ----------------------------------------------------------------------
# Single-model checks
# ----------------------------------------------------------------------


def check_cd_sharpness(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    z = Coordinate(3, 2)
    worst = 0.0
    for l in _l_grid(cfg["cd"]["l_points"]):
        res = calculus.cd_residual(model, z, np.zeros(3), l, model.declared_constants)
        worst = max(worst, abs(res))
    witness = "vertical coordinate at identity"
    return [_mk("cd-sharpness", "CDstar", "heisenberg", -worst, 1e-12, seed, witness=witness)]


def check_spectral_gap(cfg, seed) -> list[CheckResult]:
    rho = cfg["spectral"]["rho"]
    _, alpha_chk, gap_chk = spectral.spectral_gap_su2_pair(rho, cfg["spectral"]["j_max"])
    out = []
    for chk, cid in ((alpha_chk, "spectral-alpha"), (gap_chk, "spectral-gap")):
        margin = chk["margin"] if chk["stable"] else -np.inf
        details = {k: chk[k] for k in ("bound", "neg_lambda1", "stable")}
        out.append(_mk(cid, chk["anchor"], f"su2-pair-rho{rho:g}", margin, 0.0, seed, **details))
    return out


def check_semigroup_identity(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    est = heat.mc_semigroup(
        model, Constant(3, 1.0), np.zeros(3), 1.0, 10000, 50, derive_seed(seed, "sg1")
    )
    out = [
        _mk(
            "semigroup-identity",
            "CondA",
            "heisenberg",
            -abs(est.value - 1.0),
            0.0,
            seed,
            value=est.value,
        )
    ]
    f = Polynomial.monomial(3, (2, 0, 0))
    x = np.array([0.3, -0.2, 0.1])
    est0 = heat.mc_semigroup(model, f, x, 0.0, 100, 1, derive_seed(seed, "sg0"))
    out.append(
        _mk(
            "semigroup-t0",
            "CondA",
            "heisenberg",
            # paths sit exactly at x; the tolerance only absorbs the
            # rounding of the sample mean
            -abs(est0.value - float(np.squeeze(f.eval(x)))),
            1e-14,
            seed,
            value=est0.value,
        )
    )
    return out


def check_semigroup_x2(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    t = 1.0
    est = heat.mc_semigroup(
        model,
        Polynomial.monomial(3, (2, 0, 0)),
        np.zeros(3),
        t,
        cfg["mc"]["paths"],
        cfg["mc"]["steps"],
        derive_seed(seed, "sgx2"),
    )
    dev = abs(est.value - t)
    return [
        _mk(
            "semigroup-x2",
            "LiftedL",
            "heisenberg",
            3.0 * est.std_error - dev,
            0.0,
            seed,
            std_error=est.std_error,
            value=est.value,
            expected=t,
            paths=est.paths,
            steps=est.steps,
        )
    ]


def _gradient_cases(model, cfg, seed):
    g = cfg["gradient"]
    rng = np.random.default_rng(derive_seed(seed, "grad-cases"))
    n_terms = get_space(model.dim, 3).terms(3)
    times = (0.25, 0.5, 1.0)
    cases = []
    for k in range(g["cases"]):
        coeffs = rng.uniform(-0.5, 0.5, n_terms)
        x = rng.uniform(-0.5, 0.5, model.dim)
        cases.append((Polynomial(model.dim, 3, coeffs), x, times[k % len(times)]))
    return cases


def _gradient_check(cfg, seed, model, cid, anchor, label, integrands, sides):
    """One MC pass per gradient case; the margin is rhs - lhs.

    integrands(f) lists what a case's pass estimates, and sides(t,
    *estimates) turns the estimates into (lhs, rhs, std_error).
    """
    g = cfg["gradient"]
    out = []
    for k, (f, x, t) in enumerate(_gradient_cases(model, cfg, seed)):
        s = derive_seed(seed, f"{label}:{k}")
        ests = heat.mc_semigroup_many(model, integrands(f), x, t, g["paths"], g["steps"], s)
        lhs, rhs, err = sides(t, *ests)
        out.append(
            _mk(
                cid,
                anchor,
                model.name,
                rhs - lhs,
                3.0 * err,
                seed,
                std_error=err,
                case=k,
                t=t,
                lhs=lhs,
                rhs=rhs,
            )
        )
    return out


def check_gradient_bound_a(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    _, consts = _constants_for("heisenberg")
    delta = cfg["gradient"]["delta"]
    l = 1.0
    alpha = min(consts.rho1 - 1.0 / l, consts.rho21 + consts.rho20 / l)

    def integrands(f):
        return [
            heat.Gradient(f, "h", delta),
            heat.Gradient(f, "v", delta),
            heat.FrameGammaIntegrand(model, f, "mixed", l),
        ]

    def sides(t, gh, gv, rhs_est):
        lhs, lhs_err = heat.gamma_mixed(gh, gv, l)
        rhs = np.exp(-alpha * t) * rhs_est.value
        return lhs, rhs, float(np.hypot(lhs_err, np.exp(-alpha * t) * rhs_est.std_error))

    return _gradient_check(
        cfg, seed, model, "gradient-bound-a", "GradBound(a)", "grad-a", integrands, sides
    )


def check_gradient_bound_b(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    _, consts = _constants_for("heisenberg")
    delta = cfg["gradient"]["delta"]
    k1 = max(0.0, -consts.rho1)
    k2 = max(0.0, -consts.rho21)

    def integrands(f):
        return [heat.Gradient(f, "h", delta), f, heat.Squared(f)]

    def sides(t, gh, est_f, est_f2):
        var, var_err = heat.variance(est_f, est_f2)
        factor = 1.0 + 2.0 / consts.rho20 + (k1 + k2 / consts.rho20) * t
        return t * gh.value, factor * var, float(np.hypot(factor * var_err, t * gh.std_error))

    return _gradient_check(
        cfg, seed, model, "gradient-bound-b", "GradBound(b)", "grad-b", integrands, sides
    )


def check_vertical_gradient(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    delta = cfg["gradient"]["delta"]

    def integrands(f):
        return [
            heat.Gradient(f, "v", delta),
            heat.FrameGammaIntegrand(model, f, "v", transform=np.sqrt),
        ]

    def sides(t, gv, rhs_est):
        lhs = float(np.sqrt(max(gv.value, 0.0)))
        lhs_err = gv.std_error / (2.0 * lhs) if lhs > 1e-12 else gv.std_error
        return lhs, rhs_est.value, float(np.hypot(lhs_err, rhs_est.std_error))

    return _gradient_check(
        cfg, seed, model, "vertical-gradient", "CondARiemann", "grad-v", integrands, sides
    )


# -- PDE-based checks ---------------------------------------------------
#
# The PDE checks read one heat semigroup.  Inside `run_suite` they share
# one solver per `pde` config and one evolution per shared source, run
# once to every snapshot time that source's readers use; a check called
# outside a run builds its own solver and evolves its own sources to the
# same times.

# source: (its initial field on a solver's grid, the snapshot times read)
PDE_SOURCES = {
    # li-yau, harnack, poincare-decay
    "bump": (
        lambda solver: solver.sample(GaussianBump(np.zeros(3), 0.5)),
        (0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0),
    ),
    # kernel-decay, harnack-kernel
    "origin-kernel": (
        lambda solver: pde.kernel_source(solver, np.zeros(3)),
        (0.2, 0.4, 0.6, 0.8, 1.0),
    ),
}

# the memo of the suite run in progress; None outside run_suite
_RUN_MEMO: dict | None = None


def _run_memo(key, build):
    """build(), made once per suite run and then read from the run's memo."""
    if _RUN_MEMO is None:
        return build()
    if key not in _RUN_MEMO:
        _RUN_MEMO[key] = build()
    return _RUN_MEMO[key]


def _pde_solver(cfg):
    p = cfg["pde"]
    return _run_memo(
        ("solver", json.dumps(p, sort_keys=True)),
        lambda: pde.HeisenbergHeatSolver(get_model("heisenberg"), p["bounds"], p["shape"], p["dt"]),
    )


def _pde_fields(solver, source, times) -> dict:
    """Snapshots of a shared PDE source at the given times, keyed by time.

    Times outside the source's declared set raise ValueError.
    """
    initial, declared = PDE_SOURCES[source]
    undeclared = sorted(set(times) - set(declared))
    if undeclared:
        raise ValueError(f"times {undeclared} are not declared for PDE source {source!r}")
    declared = sorted(set(declared))  # evolve returns snapshots in time order
    fields = _run_memo(
        (source, solver),
        lambda: dict(zip(declared, solver.evolve(initial(solver), declared))),
    )
    return {t: fields[t] for t in times}


def _sample_points(rng, n, radius=1.2):
    pts = rng.uniform(-radius, radius, (n, 3))
    pts[:, 2] *= 0.5
    return pts


def check_liyau(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    _, consts = _constants_for("heisenberg")
    solver = _pde_solver(cfg)
    times = [0.3, 0.5, 1.0]
    snaps = _pde_fields(solver, "bump", [0.0] + times)
    u0 = snaps[0.0].values
    fields = [snaps[t] for t in times]
    rng = np.random.default_rng(derive_seed(seed, "liyau-pts"))
    pts = np.vstack([np.zeros((1, 3)), _sample_points(rng, 8, radius=0.8)])
    out = []
    rho1, rho2 = consts.rho1, consts.rho20
    n = consts.n
    for fld in fields:
        u = fld.values
        lu = solver.apply_laplacian(u)
        gh = solver.gamma_h(u)
        uv = solver.interpolate(u, pts)
        lv = solver.interpolate(lu, pts)
        gv = solver.interpolate(gh, pts)
        # dimensional form
        lhs = gv / uv**2 / consts.D - lv / uv
        rhs = consts.N / fld.t
        margin = float((rhs - lhs).min())
        out.append(
            _mk(
                "li-yau",
                "LY2",
                "heisenberg",
                margin,
                0.05 * rhs,
                seed,
                t=fld.t,
                rhs=rhs,
                worst_lhs=float(lhs.max()),
                N=consts.N,
                D=consts.D,
            )
        )
        # beta-grid form
        worst = np.inf
        for beta in (1.2, 1.4, 1.6, 1.8):
            a_b = (rho2 + beta) / rho2
            b_b = (beta - 1.0) / beta
            lhs_b = gv / uv**2 - (a_b - b_b * rho1 * fld.t) * lv / uv
            rhs_b = (n / (4.0 * fld.t)) * (
                a_b**2 / ((2.0 - beta) * (beta - 1.0))
                - rho1 * fld.t * (2.0 * a_b - b_b * rho1 * fld.t)
            )
            worst = min(worst, float((rhs_b - lhs_b).min() / abs(rhs_b)))
        out.append(
            _mk(
                "li-yau-family",
                "LY",
                "heisenberg",
                worst,
                0.05,
                seed,
                t=fld.t,
            )
        )
    # entropy bound off the bump center, first snapshot
    fld = fields[0]
    x0 = np.array([0.5, 0.3, 0.0])
    flogf0 = np.where(u0 > 0, u0 * np.log(np.where(u0 > 0, u0, 1.0)), 0.0)
    ent_fields = solver.evolve(flogf0, [fld.t])
    u = fld.values
    lu = solver.apply_laplacian(u)
    c0 = float(solver.interpolate(u, x0))
    ent = float(solver.interpolate(ent_fields[0].values, x0))
    gh0 = float(solver.interpolate(solver.gamma_h(u), x0))
    lhs_e = 0.5 * fld.t * gh0 / c0**2
    rhs_e = (1.0 + 2.0 / rho2) * (ent - c0 * np.log(c0)) / c0
    out.append(
        _mk(
            "entropy-bound",
            "EntropyLY(a)",
            "heisenberg",
            rhs_e - lhs_e,
            0.05 * abs(rhs_e),
            seed,
            t=fld.t,
            lhs=lhs_e,
            rhs=rhs_e,
        )
    )
    # chain-rule identities behind the entropy bound: exact on jets,
    # discretization-limited on the grid
    from .jets import ShiftedSquare
    rng = np.random.default_rng(derive_seed(seed, "logid"))
    pos = ShiftedSquare(Polynomial.random(3, 3, rng), 0.5)
    r1, r2 = calculus.log_identity_residuals(model, pos, np.array([0.2, -0.1, 0.3]))
    jet_resid = float(max(np.max(r1), np.max(r2)))
    mask = u > 0.25 * u.max()
    floor = 1e-12 * u.max()
    uc = np.clip(u, floor, None)
    logu = np.log(uc)
    # (L/2 + d/dt)(u log u) for the backward solution u_s = P_(t-s) f,
    # whose time derivative is -L u / 2
    lhs_d = 0.5 * solver.apply_laplacian(uc * logu) - (1.0 + logu) * 0.5 * lu
    rhs_d = 0.5 * solver.gamma_h(u) / uc
    rel = np.abs(lhs_d - rhs_d) / (1.0 + np.abs(lhs_d) + np.abs(rhs_d))
    grid_resid = float(np.where(mask, rel, 0.0).max())
    out.append(
        _mk(
            "log-identity-jet",
            "partialtL",
            "heisenberg",
            -jet_resid,
            1e-10,
            seed,
            note="chain rule evaluated in exact jet arithmetic",
        )
    )
    out.append(
        _mk(
            "log-identity-grid",
            "partialtL",
            "heisenberg",
            -grid_resid,
            5e-2,
            seed,
            spacing=list(solver.spacing),
            note="finite differences on the resolved bulk of the field; "
            "tolerance is the discretization bound",
        )
    )
    return out


def check_harnack(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    _, consts = _constants_for("heisenberg")
    solver = _pde_solver(cfg)
    pairs_t = [(0.3, 0.5), (0.4, 0.8), (0.5, 1.0)]
    fields = _pde_fields(solver, "bump", {t for p in pairs_t for t in p})
    rng = np.random.default_rng(derive_seed(seed, "harnack-pts"))
    out = []
    count = 0
    worst = np.inf
    worst_std = None
    for t0, t1 in pairs_t:
        u0f = fields[t0]
        u1f = fields[t1]
        for _ in range(7):
            x = _sample_points(rng, 1)[0] * 0.8
            y = x + rng.uniform(-0.6, 0.6, 3) * np.array([1, 1, 0.3])
            dmt = distance.cc_distance(model, x, y)
            lhs = float(solver.interpolate(u0f.values, x))
            p1 = float(solver.interpolate(u1f.values, y))
            factor = (t1 / t0) ** (consts.N / 2.0)
            rhs_cons = p1 * factor * np.exp(
                consts.D * dmt.lower**2 / (2.0 * (t1 - t0))
            )
            rel = (rhs_cons - lhs) / abs(rhs_cons)
            if rel < worst:
                worst = rel
            count += 1
    out.append(
        _mk(
            "harnack",
            "ParabolHarnack",
            "heisenberg",
            float(worst),
            0.05,
            seed,
            samples=count,
            note="conservative direction: lower distance bound in the exponent",
        )
    )
    # kernel variant on a 3-point sample: p_t(pts[0], z) at t0 and t1,
    # one evolution per source z (the origin's is the shared one)
    pts = [np.zeros(3), np.array([0.5, 0.2, 0.0]), np.array([-0.3, 0.4, 0.1])]
    t0, t1 = 0.4, 0.8
    origin = _pde_fields(solver, "origin-kernel", [t0, t1])
    kernel = [[float(solver.interpolate(origin[t].values, pts[0])) for t in (t0, t1)]] + [
        [k.value for k in pde.heat_kernel(solver, pts[0], z, [t0, t1])]
        for z in pts[1:]
    ]
    kworst = np.inf
    for i in range(1, len(pts)):
        for j in range(len(pts)):
            if j == i:
                continue
            dyz = distance.cc_distance(model, pts[i], pts[j])
            rhs = (
                kernel[j][1]
                * (t1 / t0) ** (consts.N / 2.0)
                * np.exp(consts.D * dyz.lower**2 / (2.0 * (t1 - t0)))
            )
            kworst = min(kworst, (rhs - kernel[i][0]) / abs(rhs))
    out.append(
        _mk(
            "harnack-kernel",
            "ParabolHarnack",
            "heisenberg",
            float(kworst),
            0.05,
            seed,
            t0=t0,
            t1=t1,
        )
    )
    return out


def check_kernel_decay(cfg, seed) -> list[CheckResult]:
    _, consts = _constants_for("heisenberg")
    solver = _pde_solver(cfg)
    tgrid = [0.2, 0.4, 0.6, 0.8, 1.0]
    fields = _pde_fields(solver, "origin-kernel", tgrid)
    vals = np.array([float(solver.interpolate(fields[t].values, np.zeros(3))) for t in tgrid])
    # on-diagonal kernel must decrease along the grid
    dec_margin = float(np.min(vals[:-1] - vals[1:]) / vals[0])
    out = [
        _mk(
            "kernel-decay",
            "pzcknn(b)",
            "heisenberg",
            dec_margin,
            0.0,
            seed,
            values={f"{t:g}": float(v) for t, v in zip(tgrid, vals)},
        )
    ]
    # dimensional bound p_t <= t^(-N/2) p_1 for t <= 1
    p1 = vals[-1]
    bound = np.array(tgrid) ** (-consts.N / 2.0) * p1
    rel = float(((bound - vals) / bound).min())
    product = vals * np.array(tgrid) ** (consts.N / 2.0)
    out.append(
        _mk(
            "kernel-dimension-bound",
            "pzcknn(b)",
            "heisenberg",
            rel,
            0.05,
            seed,
            product_nonincreasing_fraction=float(
                (product[1:] <= product[:-1] + 1e-15).mean()
            ),
            note="the weighted kernel t^(N/2) p_t increases toward its t=1 bound",
        )
    )
    return out


def check_poincare_decay(cfg, seed) -> list[CheckResult]:
    _, consts = _constants_for("heisenberg")
    solver = _pde_solver(cfg)
    tgrid = [0.2, 0.4, 0.6, 0.8, 1.0]
    fields = _pde_fields(solver, "bump", [0.0] + tgrid)
    norms = [solver.l1_norm(solver.gamma_h(fields[t].values)) for t in [0.0] + tgrid]
    base = norms[0]
    k = min(consts.rho1, consts.rho21)
    margins = [
        (np.exp(-k * t) * base - nv) / base for t, nv in zip(tgrid, norms[1:])
    ]
    return [
        _mk(
            "poincare-decay",
            "Poincare(a)",
            "heisenberg",
            float(min(margins)),
            1e-2,
            seed,
            rate=k,
            norms={f"{t:g}": float(v) for t, v in zip([0.0] + tgrid, norms)},
        )
    ]


def check_distance(cfg, seed) -> list[CheckResult]:
    model = get_model("heisenberg")
    rng = np.random.default_rng(derive_seed(seed, "dist"))
    worst = np.inf
    for _ in range(100):
        a, b, c = rng.uniform(-1.0, 1.0, (3, 3))
        dab = distance.cc_distance(model, a, b).value
        dbc = distance.cc_distance(model, b, c).value
        dac = distance.cc_distance(model, a, c).value
        worst = min(worst, dab + dbc - dac)
    unit = distance.cc_distance(model, np.zeros(3), [1.0, 0.0, 0.0])
    return [
        _mk(
            "distance-triangle",
            "dcc",
            "heisenberg",
            float(worst),
            1e-9,
            seed,
            triples=100,
        ),
        _mk(
            "distance-unit",
            "dcc",
            "heisenberg",
            -abs(unit.value - 1.0),
            1e-9,
            seed,
            estimate=unit.to_json(),
        ),
    ]


CHECKS = {
    "validate-models": _per_model(("validate-models", "metric-preserving", _any, _validation)),
    "constants": _per_model(("constants", "rhoSR2", _declared, _constants)),
    "cd-sharpness": check_cd_sharpness,
    "cd-sweep": _per_model(("cd-sweep", "CDstar", _step2, _cd_sweep)),
    "double-gamma": _per_model(("double-gamma", "DoubleGamma", _parallel, _double_gamma)),
    "condition-b": _per_model(
        ("condition-b", "CondB", _step2, _condition_b),
        ("condition-b-violation", "CondB", _beyond_step2, _condition_b_violation),
    ),
    "commutation": _per_model(("commutation", "srLDeltaCommute", _parallel, _commutation)),
    "ricci-compare": _per_model(("ricci-compare", "RiemannRicci", _parallel, _ricci_compare)),
    "spectral-gap": check_spectral_gap,
    "semigroup-identity": check_semigroup_identity,
    "semigroup-x2": check_semigroup_x2,
    "gradient-bound-a": check_gradient_bound_a,
    "gradient-bound-b": check_gradient_bound_b,
    "vertical-gradient": check_vertical_gradient,
    "li-yau": check_liyau,
    "harnack": check_harnack,
    "kernel-decay": check_kernel_decay,
    "poincare-decay": check_poincare_decay,
    "schedules": _per_model(("schedules", "ALambdaC", _parallel, _schedules)),
    "distance": check_distance,
}

CSV_COLUMNS = [
    "check_id",
    "anchor",
    "model",
    "margin",
    "tolerance",
    "std_error",
    "verdict",
    "digest",
]


def run_suite(config: dict | str | None = None) -> tuple[dict, int]:
    """Run the configured checks in order, in one thread, and assemble the report.

    Returns (report, exit_code) with exit code 0 when everything
    passed, 1 on any failure (inconclusive results are counted but do
    not fail the run), and raises ConfigError for malformed input.
    """
    cfg = load_config(config)
    requested = cfg["checks"]
    if requested == "all":
        requested = list(CHECKS)
    unknown = [c for c in requested if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown check ids: {unknown}")

    if cfg["jobs"] != 1:
        raise ConfigError(f"jobs must be 1, not {cfg['jobs']!r}: checks run in one thread")

    global _RUN_MEMO
    seed = cfg["seed"]
    results: list[CheckResult] = []
    timings: dict[str, float] = {}
    _RUN_MEMO = {}
    try:
        for cid in requested:
            t0 = time.perf_counter()
            results.extend(CHECKS[cid](cfg, seed))
            timings[cid] = time.perf_counter() - t0
    finally:
        _RUN_MEMO = None

    results.sort(key=lambda r: (r.check_id, r.model, r.digest))
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in results:
        counts[r.verdict] += 1
    cfg_for_digest = json.dumps(
        {k: v for k, v in cfg.items() if k != "output"}, sort_keys=True
    )
    report = {
        "config_digest": hashlib.sha256(cfg_for_digest.encode()).hexdigest()[:16],
        "seed": seed,
        "summary": counts,
        "results": [r.to_json() for r in results],
    }

    out = cfg["output"]
    if out.get("json"):
        Path(out["json"]).write_text(json.dumps(report, sort_keys=True, indent=1))
    if out.get("csv_dir"):
        csv_dir = Path(out["csv_dir"])
        csv_dir.mkdir(parents=True, exist_ok=True)
        lines = [",".join(CSV_COLUMNS)]
        for r in results:
            row = r.to_json()
            lines.append(
                ",".join(
                    "" if row[c] is None else str(row[c]) for c in CSV_COLUMNS
                )
            )
        (csv_dir / "results.csv").write_text("\n".join(lines) + "\n")
        tlines = ["check_id,seconds"]
        for cid in requested:
            tlines.append(f"{cid},{timings[cid]:.3f}")
        (csv_dir / "timings.csv").write_text("\n".join(tlines) + "\n")

    exit_code = 1 if counts["fail"] else 0
    return report, exit_code
