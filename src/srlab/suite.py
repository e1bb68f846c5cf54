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
inconclusive to pass.  Reports are deterministic for a fixed seed on
one host and BLAS thread count: every check derives its own stream
from (seed, check id), timings are kept out of the JSON payload, and
results are sorted before writing.  Two kinds of row follow the BLAS
summation order, and so the thread count: the PDE rows, through the
conjugate-gradient dot products, and commutation on su2-pair, through a
jet product.  The Monte Carlo rows do not (see `heat`).

The anchor field names the inequality catalog entry a result
certifies; the catalog is documented in the README.

Every check is a list of rows of data: a row id, an anchor, a selector
and a measure, run by one driver, `_rows`.  The selector lists the
labels a row runs on: the configured models whose structure it admits
(step, parallelism, declared constants, or being a Heisenberg group;
never the name), each under its configured name, or for the spectral
rows su2-pair at rho 1, labelled su2-pair-rho1.  The measure returns
the row's readings for one label.  The rows of a check share their
work (chiefly the PDE evolutions) through one memo, which a suite run
keeps open across its checks.  Each configured model is built once per memo,
keyed by its configured name, and every selector and measure reads that
one object; its validation report (keyed by the object) and its
constants are made once per memo too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import calculus, distance, geometry, heat, pde, schedules, spectral
from .jets import GaussianBump, Polynomial, ShiftedSquare, get_space
from .models import MODEL_BUILDERS, get_model, is_heisenberg, validate

ALL_MODELS = ("heisenberg", "free-nilpotent-3", "engel", "su2-pair")


@dataclass
class CheckResult:
    """Outcome of one inequality check."""

    check_id: str
    anchor: str
    model: str
    margin: float
    tolerance: float
    std_error: float | None
    verdict: str
    digest: str
    details: dict

    def to_json(self) -> dict:
        return dict(self.__dict__)


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
        std_error=None if std_error is None else float(std_error),
        verdict=verdict_of(margin, tolerance, std_error),
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
    "double_gamma": {"functions": 500, "points": 20},
    "condb": {"samples": 1000},
    "commutation": {"functions": 50, "points": 20},
    "ricci": {"directions": 50},
    "mc": {"paths": 100000, "steps": 200},
    "gradient": {"paths": 20000, "steps": 60, "cases": 10},
    "pde": {"bounds": [5.0, 5.0, 3.0], "shape": [51, 51, 41], "dt": 0.01},
    "schedules": {"horizon": 1.0, "grid": 2048},
    "output": {"json": None, "csv_dir": None},
    "jobs": 1,
}


class ConfigError(ValueError):
    pass


def _names_from(value, known) -> bool:
    """Whether value is a list of distinct names from known."""
    return (
        isinstance(value, list)
        and all(isinstance(v, str) and v in known for v in value)
        and len(set(value)) == len(value)
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _value_error(default, value) -> str | None:
    """Why value cannot stand in for the default of a section key, or None.

    An int stays an int, a float takes any real number, a list keeps its
    length; every count and scale is positive and finite.
    """
    if isinstance(default, list):
        if not isinstance(value, list) or len(value) != len(default):
            return f"must be a list of {len(default)} numbers"
        return next(filter(None, map(_value_error, default, value)), None)
    if _is_int(default) and not _is_int(value):
        return "must be an integer"
    if not (_is_int(value) or isinstance(value, float)):
        return "must be a number"
    if not 0 < value < np.inf:
        return "must be positive and finite"
    return None


def _check_values(cfg: dict) -> None:
    """Raise ConfigError for a value that no engine runs on."""
    if not _is_int(cfg["seed"]):
        raise ConfigError(f"seed must be an integer, not {cfg['seed']!r}")
    if not all(v is None or isinstance(v, str) for v in cfg["output"].values()):
        raise ConfigError("output paths must be strings or null")
    for section, params in DEFAULT_CONFIG.items():
        if not isinstance(params, dict) or section == "output":
            continue
        for key, default in params.items():
            why = _value_error(default, cfg[section][key])
            if why:
                raise ConfigError(f"{section}.{key} {why}, not {cfg[section][key]!r}")
    for section in ("mc", "gradient"):
        if cfg[section]["paths"] < 2:
            raise ConfigError(f"{section}.paths must be at least 2: one path has no standard error")
    dt = cfg["pde"]["dt"]
    # every snapshot time must be a step of the time grid, within the 1e-9 of `pde.evolve`
    times = {t for _, snapshots in PDE_SOURCES.values() for t in snapshots}
    off = sorted(t for t in times if abs(np.rint(t / dt) * dt - t) > 1e-9)
    if off:
        raise ConfigError(f"pde.dt {dt!r} leaves the PDE snapshot times {off} off its grid")
    if min(cfg["pde"]["shape"]) < pde.MIN_AXIS_POINTS:
        raise ConfigError(f"pde.shape needs at least {pde.MIN_AXIS_POINTS} points per axis")
    if cfg["schedules"]["grid"] < schedules.MIN_GRID:
        raise ConfigError(f"schedules.grid must be at least {schedules.MIN_GRID}")


def load_config(doc: dict | str | None) -> dict:
    """Merge a user configuration over the defaults, validating keys and values."""
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
    if not _names_from(cfg["models"], MODEL_BUILDERS):
        raise ConfigError(f"models must be a list of distinct names from {sorted(MODEL_BUILDERS)}")
    if cfg["checks"] != "all" and not _names_from(cfg["checks"], CHECKS):
        raise ConfigError(f'checks must be "all" or a list of distinct ids from {list(CHECKS)}')
    if not _is_int(cfg["jobs"]) or cfg["jobs"] != 1:
        raise ConfigError(f"jobs must be 1, not {cfg['jobs']!r}: checks run in one thread")
    _check_values(cfg)
    return cfg


def _l_grid(n: int) -> np.ndarray:
    return np.logspace(-1.0, 1.0, n)


# ----------------------------------------------------------------------
# Rows (row id, anchor, select, measure) and their driver
# ----------------------------------------------------------------------

# the memo of the check or suite run in progress; None outside both
_RUN_MEMO: dict | None = None


@contextlib.contextmanager
def _memo_scope():
    """Open a memo for the block, unless one is open already (a suite run's)."""
    global _RUN_MEMO
    if _RUN_MEMO is not None:
        yield
        return
    _RUN_MEMO = {}
    try:
        yield
    finally:
        _RUN_MEMO = None


def _run_memo(key, build):
    """build(), made once per open memo and then read from it."""
    if _RUN_MEMO is None:
        return build()
    if key not in _RUN_MEMO:
        _RUN_MEMO[key] = build()
    return _RUN_MEMO[key]


def _model(name: str):
    """The configured model `name`, built once per open memo."""
    return _run_memo(("model", name), lambda: get_model(name))


def _validated(model):
    """validate(model), once per model per open memo."""
    return _run_memo(("validate", model), lambda: validate(model))


def _geometry(name: str):
    """geometry_report of the configured model `name`, once per open memo."""
    return _run_memo(("geometry", name), lambda: geometry.geometry_report(_model(name)))


def _constants_for(name: str):
    """The model that the geometry report's bounds hold on, with its constants, once per memo."""

    def build():
        model, report = _model(name), _geometry(name)
        consts = geometry.report_constants(report, model.dim_h)
        return geometry.normalize_vertical(model) if report.normalized else model, consts

    return _run_memo(("constants", name), build)


def _rows(*rows):
    """A check emitting each row for every label its selector picks.

    select(cfg) lists a row's labels; measure(cfg, seed, label) returns
    its readings (margin, tolerance, details), where details may carry
    the reading's std_error.  Rows run in order, each over its labels in
    order, inside one memo, so that rows of one check share their work.
    """

    def check(cfg, seed) -> list[CheckResult]:
        with _memo_scope():
            return [
                _mk(cid, anchor, label, margin, tol, seed, **details)
                for cid, anchor, select, measure in rows
                for label in select(cfg)
                for margin, tol, details in measure(cfg, seed, label)
            ]

    check.rows = rows
    return check


def _models(accepts):
    """Selector: the configured models whose structure accepts(model) admits."""
    return lambda cfg: [name for name in cfg["models"] if accepts(_model(name))]


_any = _models(lambda model: True)
_declared = _models(lambda model: model.declared_constants is not None)
_heisenberg = _models(is_heisenberg)
_step2 = _models(lambda model: _validated(model).step == 2)
_beyond_step2 = _models(lambda model: _validated(model).step > 2)
_parallel = _models(lambda model: _validated(model).fully_parallel)


def _schedulable(model) -> bool:
    """Fully parallel and bracket generating: the schedules normalize by
    the vertical curvature, which vanishes on a model that is not."""
    report = _validated(model)
    return report.fully_parallel and report.bracket_generating


_parallel_generating = _models(_schedulable)


def _su2_pair_rho1(cfg):
    """Selector of the spectral rows: su2-pair at rho 1."""
    return ["su2-pair-rho1"]


# -- jet and geometry rows -----------------------------------------------


def _validation(cfg, seed, name):
    report = _validated(_model(name))
    margin = -max(report.jacobi_residual, report.antisymmetry_residual)
    return [(margin, 1e-12, {"report": report.to_json()})]


def _constants(cfg, seed, name):
    model = _model(name)
    rep = _geometry(name)
    _, consts = _constants_for(name)
    dec = model.declared_constants
    dev = max(
        abs(consts.rho1 - dec.rho1),
        abs(consts.rho20 - dec.rho20),
        abs(consts.rho21 - dec.rho21),
        abs(consts.n - dec.n),
    )
    if _validated(model).fully_parallel:
        dev = max(dev, rep.M_HV, rep.M_grad_v)
    return [(-dev, 1e-9, {"constants": consts.to_json(), "geometry": rep.to_json()})]


def _cd_sharpness(cfg, seed, name):
    # the vertical coordinate attains equality in CD* at the identity
    work, consts = _constants_for(name)
    z = Polynomial.coordinate(3, 2)
    res = calculus.cd_residual(work, z, np.zeros(3), _l_grid(cfg["cd"]["l_points"]), consts)
    return [(-float(np.max(np.abs(res))), 1e-12, {"witness": "vertical coordinate at identity"})]


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
    return [(float(ratio.min()), 1e-9, details)]


def _double_gamma(cfg, seed, name):
    s = cfg["double_gamma"]
    first, second, scale = calculus.double_gamma_sweep(
        _model(name), s["functions"], s["points"], l=1.0, c=1.0,
        seed=derive_seed(seed, f"dg:{name}"),
    )
    first, second = float((first / scale).min()), float((second / scale).min())
    return [(min(first, second), 1e-9, {"first_min": first, "second_min": second})]


def _condb(cfg, seed, name):
    n = cfg["condb"]["samples"]
    return calculus.condb_sweep(_model(name), n, seed=derive_seed(seed, f"condb:{name}"))


def _condition_b(cfg, seed, name):
    res, scale = _condb(cfg, seed, name)
    details = {"samples": cfg["condb"]["samples"], "max_absolute": float(res.max())}
    return [(-float((res / scale).max()), 1e-12, details)]


def _condition_b_violation(cfg, seed, name):
    res, _ = _condb(cfg, seed, name)
    frac = float((res > 1e-6).mean())
    return [(frac - 0.1, 0.0, {"violating_fraction": frac, "samples": cfg["condb"]["samples"]})]


def _commutation(cfg, seed, name):
    s = cfg["commutation"]
    res, scale = calculus.commutation_sweep(
        _model(name), s["functions"], s["points"], seed=derive_seed(seed, f"comm:{name}")
    )
    details = {"functions": s["functions"], "points": s["points"]}
    return [(-float((res / scale).max()), 1e-9, details)]


def _ricci_compare(cfg, seed, name):
    n = cfg["ricci"]["directions"]
    worst = geometry.riemann_ricci_compare(
        _model(name), n, seed=derive_seed(seed, f"ricci:{name}")
    )
    return [(-worst, 1e-10, {"directions": n})]


def _spectral(which):
    """The row of one bound ("alpha" or "gap") of the su2-pair oracle at rho 1, spin <= 2."""

    def measure(cfg, seed, label):
        _, alpha_chk, gap_chk = _run_memo(
            "spectral", lambda: spectral.spectral_gap_su2_pair(1.0, 2.0)
        )
        chk = alpha_chk if which == "alpha" else gap_chk
        margin = chk["margin"] if chk["stable"] else -np.inf
        return [(margin, 0.0, {k: chk[k] for k in ("bound", "neg_lambda1", "stable")})]

    return measure


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
    grad_c = next((x for x in built if x.label == "grad-c"), None)
    if consts.rho1 > 0 and grad_c is not None:
        mono = schedules.ratio_monotonicity(grad_c)
        details["ratio_monotonicity_min"] = float(mono)
        if mono <= 0:
            worst = min(worst, -1.0)
    return [(float(worst), 1e-8, details)]


def _distance_triangle(cfg, seed, name):
    model = _model(name)
    rng = np.random.default_rng(derive_seed(seed, "dist"))
    a, b, c = rng.uniform(-1.0, 1.0, (100, 3, 3)).transpose(1, 0, 2)
    est = distance.cc_distances(model, np.concatenate([a, b, a]), np.concatenate([b, c, c]))
    dab, dbc, dac = np.array([e.value for e in est]).reshape(3, 100)
    return [(float(np.min(dab + dbc - dac)), 1e-9, {"triples": 100})]


def _distance_unit(cfg, seed, name):
    unit = distance.cc_distance(_model(name), np.zeros(3), [1.0, 0.0, 0.0])
    return [(-abs(unit.value - 1.0), 1e-9, {"estimate": unit.to_json()})]


# -- Monte Carlo rows ----------------------------------------------------


def _semigroup_identity(cfg, seed, name):
    one = Polynomial.constant(3, 1.0)
    est = heat.mc_semigroup(_model(name), one, np.zeros(3), 1.0, 10000, 50, derive_seed(seed, "sg1"))
    return [(-abs(est.value - 1.0), 0.0, {"value": est.value})]


def _semigroup_t0(cfg, seed, name):
    f = Polynomial.monomial(3, (2, 0, 0))
    x = np.array([0.3, -0.2, 0.1])
    est = heat.mc_semigroup(_model(name), f, x, 0.0, 100, 1, derive_seed(seed, "sg0"))
    # paths sit exactly at x; the tolerance only absorbs the rounding of
    # the sample mean
    return [(-abs(est.value - float(np.squeeze(f.eval(x)))), 1e-14, {"value": est.value})]


def _semigroup_x2(cfg, seed, name):
    t = 1.0
    est = heat.mc_semigroup(
        _model(name),
        Polynomial.monomial(3, (2, 0, 0)),
        np.zeros(3),
        t,
        cfg["mc"]["paths"],
        cfg["mc"]["steps"],
        derive_seed(seed, "sgx2"),
    )
    details = {
        "std_error": est.std_error,
        "value": est.value,
        "expected": t,
        "paths": est.paths,
        "steps": est.steps,
    }
    return [(3.0 * est.std_error - abs(est.value - t), 0.0, details)]


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


def _gradient(label, integrands, sides):
    """A gradient row: one MC pass per seeded case, the margin rhs - lhs.

    integrands(f) lists what a case's pass estimates, and
    sides(consts, t, *estimates) turns the estimates into (lhs, rhs,
    std_error).
    """

    def measure(cfg, seed, name):
        g = cfg["gradient"]
        model = _model(name)
        _, consts = _constants_for(name)
        for k, (f, x, t) in enumerate(_gradient_cases(model, cfg, seed)):
            s = derive_seed(seed, f"{label}:{k}")
            ests = heat.mc_semigroup_many(model, integrands(f), x, t, g["paths"], g["steps"], s)
            lhs, rhs, err = sides(consts, t, *ests)
            yield rhs - lhs, 3.0 * err, {"std_error": err, "case": k, "t": t, "lhs": lhs, "rhs": rhs}

    return measure


def _bound_a_integrands(f):
    return [heat.Gradient(f, "h"), heat.Gradient(f, "v"), heat.FrameGamma(f, "hv")]


def _bound_a_sides(consts, t, gh, gv, rhs_est):
    # the constant weight l = 1
    alpha = min(consts.rho1 - 1.0, consts.rho21 + consts.rho20)
    lhs, lhs_err = heat.gamma_mixed(gh, gv, 1.0)
    rhs = np.exp(-alpha * t) * rhs_est.value
    return lhs, rhs, float(np.hypot(lhs_err, np.exp(-alpha * t) * rhs_est.std_error))


def _bound_b_integrands(f):
    return [heat.Gradient(f, "h"), heat.Variance(f)]


def _bound_b_sides(consts, t, gh, var):
    k1 = max(0.0, -consts.rho1)
    k2 = max(0.0, -consts.rho21)
    factor = 1.0 + 2.0 / consts.rho20 + (k1 + k2 / consts.rho20) * t
    err = float(np.hypot(factor * var.std_error, t * gh.std_error))
    return t * gh.value, factor * var.value, err


def _vertical_integrands(f):
    return [heat.Gradient(f, "v"), heat.FrameGamma(f, "v", 0.5)]


def _vertical_sides(consts, t, gv, rhs_est):
    lhs = float(np.sqrt(max(gv.value, 0.0)))
    lhs_err = gv.std_error / (2.0 * lhs) if lhs > 1e-12 else gv.std_error
    return lhs, rhs_est.value, float(np.hypot(lhs_err, rhs_est.std_error))


# -- PDE rows --------------------------------------------------------------
#
# The PDE rows read one heat semigroup.  Each open memo (a suite run, or
# a check called on its own) holds one solver per model and `pde` config
# and one evolution per source, run once to every snapshot time the
# source declares.  Sources are evolved only here, in `_pde`, and rows
# index its table of snapshots by declared time.


def _bump(solver):
    return solver.sample(GaussianBump(np.zeros(3), 0.5))


def _xlogx(u):
    return np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0)), 0.0)


# harnack-kernel reads p_t(0, y_j) at each point y_j
HARNACK_KERNEL_POINTS = ((0.0, 0.0, 0.0), (0.5, 0.2, 0.0), (-0.3, 0.4, 0.1))

# kernel-decay and kernel-dimension-bound read p_t(0, 0) at these times
KERNEL_TIMES = (0.2, 0.4, 0.6, 0.8, 1.0)


# source: (its initial field on a solver's grid, the snapshot times read);
# at dt 0.01 a run makes 100 + 30 + 100 + 80 = 310 implicit steps
PDE_SOURCES = {
    # li-yau, li-yau-family, entropy-bound, log-identity-grid, harnack, poincare-decay
    "bump": (_bump, (0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)),
    # entropy-bound: f log f of the bump
    "entropy": (lambda solver: _xlogx(_bump(solver)), (0.3,)),
    # kernel-decay, kernel-dimension-bound
    "origin-kernel": (lambda solver: pde.kernel_source(solver, np.zeros(3)), KERNEL_TIMES),
    # harnack-kernel: the step matrix is symmetric, so the evolved
    # reading functional at the origin reads P_t phi(0) for every source phi
    "origin-reading": (lambda solver: solver.reading(np.zeros(3)), (0.4, 0.8)),
}


def _pde(cfg, name, source):
    """The solver of model `name` under cfg's `pde` settings, and a read-only
    table from each time `source` declares to its snapshot, made once per memo."""
    p = cfg["pde"]
    solver = _run_memo(
        ("solver", name, json.dumps(p, sort_keys=True)),
        lambda: pde.HeisenbergHeatSolver(_model(name), p["bounds"], p["shape"], p["dt"]),
    )
    initial, times = PDE_SOURCES[source]
    times = sorted(set(times))  # evolve returns snapshots in time order
    fields = _run_memo(
        (source, solver),
        lambda: MappingProxyType(dict(zip(times, solver.evolve(initial(solver), times)))),
    )
    return solver, fields


def _sample_points(rng, n, radius=1.2):
    pts = rng.uniform(-radius, radius, (n, 3))
    pts[:, 2] *= 0.5
    return pts


def _liyau_samples(cfg, seed, name):
    """(t, u, L u, Gamma^h u) of the bump at the origin and 8 seeded points."""
    solver, bump = _pde(cfg, name, "bump")

    def build():
        rng = np.random.default_rng(derive_seed(seed, "liyau-pts"))
        pts = np.vstack([np.zeros((1, 3)), _sample_points(rng, 8, radius=0.8)])
        out = []
        for fld in (bump[0.3], bump[0.5], bump[1.0]):
            u = fld.values
            lu, gh = solver.apply_laplacian(u), solver.gamma_h(u)
            out.append((fld.t, *(solver.interpolate(v, pts) for v in (u, lu, gh))))
        return out

    return _run_memo(("li-yau", solver, seed), build)


def _liyau(cfg, seed, name):
    # dimensional form
    _, consts = _constants_for(name)
    for t, uv, lv, gv in _liyau_samples(cfg, seed, name):
        lhs = gv / uv**2 / consts.D - lv / uv
        rhs = consts.N / t
        details = {"t": t, "rhs": rhs, "worst_lhs": float(lhs.max()), "N": consts.N, "D": consts.D}
        yield float((rhs - lhs).min()), 0.05 * rhs, details


def _liyau_family(cfg, seed, name):
    # beta-grid form
    _, consts = _constants_for(name)
    rho1, rho2, n = consts.rho1, consts.rho20, consts.n
    for t, uv, lv, gv in _liyau_samples(cfg, seed, name):
        worst = np.inf
        for beta in (1.2, 1.4, 1.6, 1.8):
            a_b = (rho2 + beta) / rho2
            b_b = (beta - 1.0) / beta
            lhs_b = gv / uv**2 - (a_b - b_b * rho1 * t) * lv / uv
            rhs_b = (n / (4.0 * t)) * (
                a_b**2 / ((2.0 - beta) * (beta - 1.0))
                - rho1 * t * (2.0 * a_b - b_b * rho1 * t)
            )
            worst = min(worst, float((rhs_b - lhs_b).min() / abs(rhs_b)))
        yield worst, 0.05, {"t": t}


def _entropy_bound(cfg, seed, name):
    # off the bump center, at the first li-yau time
    _, consts = _constants_for(name)
    solver, bump = _pde(cfg, name, "bump")
    _, entropy = _pde(cfg, name, "entropy")
    fld, ent_fld = bump[0.3], entropy[0.3]
    x0 = np.array([0.5, 0.3, 0.0])
    u = fld.values
    c0 = float(solver.interpolate(u, x0))
    ent = float(solver.interpolate(ent_fld.values, x0))
    gh0 = float(solver.interpolate(solver.gamma_h(u), x0))
    lhs = 0.5 * fld.t * gh0 / c0**2
    rhs = (1.0 + 2.0 / consts.rho20) * (ent - c0 * np.log(c0)) / c0
    return [(rhs - lhs, 0.05 * abs(rhs), {"t": fld.t, "lhs": lhs, "rhs": rhs})]


# the chain-rule identities behind the entropy bound: exact on jets,
# discretization-limited on the grid


def _log_identity_jet(cfg, seed, name):
    rng = np.random.default_rng(derive_seed(seed, "logid"))
    pos = ShiftedSquare(Polynomial.random(3, 3, rng), 0.5)
    r1, r2 = calculus.log_identity_residuals(_model(name), pos, np.array([0.2, -0.1, 0.3]))
    resid = float(max(np.max(r1), np.max(r2)))
    return [(-resid, 1e-10, {"note": "chain rule evaluated in exact jet arithmetic"})]


def _log_identity_grid(cfg, seed, name):
    solver, bump = _pde(cfg, name, "bump")
    u = bump[0.3].values
    mask = u > 0.25 * u.max()
    floor = 1e-12 * u.max()
    uc = np.clip(u, floor, None)
    logu = np.log(uc)
    # (L/2 + d/dt)(u log u) for the backward solution u_s = P_(t-s) f,
    # whose time derivative is -L u / 2
    lhs = 0.5 * solver.apply_laplacian(uc * logu) - (1.0 + logu) * 0.5 * solver.apply_laplacian(u)
    rhs = 0.5 * solver.gamma_h(u) / uc
    rel = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    details = {
        "spacing": list(solver.spacing),
        "note": "finite differences on the resolved bulk of the field; "
        "tolerance is the discretization bound",
    }
    return [(-float(np.where(mask, rel, 0.0).max()), 5e-2, details)]


def _harnack_rhs(consts, p1, d, t0, t1):
    """Right side of the parabolic Harnack inequality, P_t1 f(y) = p1 at d(x, y) = d."""
    return p1 * (t1 / t0) ** (consts.N / 2.0) * np.exp(consts.D * d**2 / (2.0 * (t1 - t0)))


def _harnack(cfg, seed, name):
    model = _model(name)
    _, consts = _constants_for(name)
    solver, bump = _pde(cfg, name, "bump")
    pairs_t = [(0.3, 0.5), (0.4, 0.8), (0.5, 1.0)]
    rng = np.random.default_rng(derive_seed(seed, "harnack-pts"))
    samples = []
    for t0, t1 in pairs_t:
        for _ in range(7):
            x = _sample_points(rng, 1)[0] * 0.8
            samples.append((t0, t1, x, x + rng.uniform(-0.6, 0.6, 3) * np.array([1, 1, 0.3])))
    _, _, xs, ys = zip(*samples)
    worst = np.inf
    for (t0, t1, x, y), est in zip(samples, distance.cc_distances(model, xs, ys)):
        # conservative: the lower distance bound in the exponent
        lhs = float(solver.interpolate(bump[t0].values, x))
        p1 = float(solver.interpolate(bump[t1].values, y))
        rhs = _harnack_rhs(consts, p1, est.lower, t0, t1)
        worst = min(worst, (rhs - lhs) / abs(rhs))
    details = {
        "samples": 7 * len(pairs_t),
        "note": "conservative direction: lower distance bound in the exponent",
    }
    return [(float(worst), 0.05, details)]


def _harnack_kernel(cfg, seed, name):
    # p_t(0, y_j) at t0 and t1 for each point y_j, read off one evolution
    model = _model(name)
    _, consts = _constants_for(name)
    solver, reading = _pde(cfg, name, "origin-reading")
    t0, t1 = 0.4, 0.8
    pts = [np.array(point) for point in HARNACK_KERNEL_POINTS]
    kernel = []
    for point in pts:
        phi = pde.kernel_source(solver, point)
        kernel.append([float((phi * reading[t].values).sum()) for t in (t0, t1)])
    pairs = [(i, j) for i in range(1, len(pts)) for j in range(len(pts)) if j != i]
    dists = distance.cc_distances(model, [pts[i] for i, _ in pairs], [pts[j] for _, j in pairs])
    worst = np.inf
    for (i, j), est in zip(pairs, dists):
        rhs = _harnack_rhs(consts, kernel[j][1], est.lower, t0, t1)
        worst = min(worst, (rhs - kernel[i][0]) / abs(rhs))
    return [(float(worst), 0.05, {"t0": t0, "t1": t1})]


def _origin_kernel(cfg, name) -> np.ndarray:
    """The on-diagonal kernel p_t(0, 0) at KERNEL_TIMES."""
    solver, kernel = _pde(cfg, name, "origin-kernel")
    return np.array([float(solver.interpolate(kernel[t].values, np.zeros(3))) for t in KERNEL_TIMES])


def _kernel_decay(cfg, seed, name):
    # on-diagonal kernel must decrease along the grid
    vals = _origin_kernel(cfg, name)
    margin = float(np.min(vals[:-1] - vals[1:]) / vals[0])
    return [(margin, 0.0, {"values": {f"{t:g}": float(v) for t, v in zip(KERNEL_TIMES, vals)}})]


def _kernel_dimension_bound(cfg, seed, name):
    # dimensional bound p_t <= t^(-N/2) p_1 for t <= 1
    _, consts = _constants_for(name)
    vals = _origin_kernel(cfg, name)
    tgrid = np.array(KERNEL_TIMES)
    bound = tgrid ** (-consts.N / 2.0) * vals[-1]
    product = vals * tgrid ** (consts.N / 2.0)
    details = {
        "product_nonincreasing_fraction": float((product[1:] <= product[:-1] + 1e-15).mean()),
        "note": "the weighted kernel t^(N/2) p_t increases toward its t=1 bound",
    }
    return [(float(((bound - vals) / bound).min()), 0.05, details)]


def _poincare_decay(cfg, seed, name):
    _, consts = _constants_for(name)
    solver, bump = _pde(cfg, name, "bump")
    times = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    norms = [solver.l1_norm(solver.gamma_h(bump[t].values)) for t in times]
    k = min(consts.rho1, consts.rho21)
    margins = [(np.exp(-k * t) * norms[0] - nv) / norms[0] for t, nv in zip(times[1:], norms[1:])]
    details = {"rate": k, "norms": {f"{t:g}": float(v) for t, v in zip(times, norms)}}
    return [(float(min(margins)), 1e-2, details)]


CHECKS = {
    "validate-models": _rows(("validate-models", "metric-preserving", _any, _validation)),
    "constants": _rows(("constants", "rhoSR2", _declared, _constants)),
    "cd-sharpness": _rows(("cd-sharpness", "CDstar", _heisenberg, _cd_sharpness)),
    "cd-sweep": _rows(("cd-sweep", "CDstar", _step2, _cd_sweep)),
    "double-gamma": _rows(("double-gamma", "DoubleGamma", _parallel, _double_gamma)),
    "condition-b": _rows(
        ("condition-b", "CondB", _step2, _condition_b),
        ("condition-b-violation", "CondB", _beyond_step2, _condition_b_violation),
    ),
    "commutation": _rows(("commutation", "srLDeltaCommute", _parallel, _commutation)),
    "ricci-compare": _rows(("ricci-compare", "RiemannRicci", _parallel, _ricci_compare)),
    "spectral-gap": _rows(
        ("spectral-alpha", "Poincare(c)", _su2_pair_rho1, _spectral("alpha")),
        ("spectral-gap", "SpectralGap", _su2_pair_rho1, _spectral("gap")),
    ),
    "semigroup-identity": _rows(
        ("semigroup-identity", "CondA", _heisenberg, _semigroup_identity),
        ("semigroup-t0", "CondA", _heisenberg, _semigroup_t0),
    ),
    "semigroup-x2": _rows(("semigroup-x2", "LiftedL", _heisenberg, _semigroup_x2)),
    "gradient-bound-a": _rows((
        "gradient-bound-a", "GradBound(a)", _heisenberg,
        _gradient("grad-a", _bound_a_integrands, _bound_a_sides),
    )),
    "gradient-bound-b": _rows((
        "gradient-bound-b", "GradBound(b)", _heisenberg,
        _gradient("grad-b", _bound_b_integrands, _bound_b_sides),
    )),
    "vertical-gradient": _rows((
        "vertical-gradient", "CondARiemann", _heisenberg,
        _gradient("grad-v", _vertical_integrands, _vertical_sides),
    )),
    "li-yau": _rows(
        ("li-yau", "LY2", _heisenberg, _liyau),
        ("li-yau-family", "LY", _heisenberg, _liyau_family),
        ("entropy-bound", "EntropyLY(a)", _heisenberg, _entropy_bound),
        ("log-identity-jet", "partialtL", _heisenberg, _log_identity_jet),
        ("log-identity-grid", "partialtL", _heisenberg, _log_identity_grid),
    ),
    "harnack": _rows(
        ("harnack", "ParabolHarnack", _heisenberg, _harnack),
        ("harnack-kernel", "ParabolHarnack", _heisenberg, _harnack_kernel),
    ),
    "kernel-decay": _rows(
        ("kernel-decay", "pzcknn(b)", _heisenberg, _kernel_decay),
        ("kernel-dimension-bound", "pzcknn(b)", _heisenberg, _kernel_dimension_bound),
    ),
    "poincare-decay": _rows(("poincare-decay", "Poincare(a)", _heisenberg, _poincare_decay)),
    "schedules": _rows(("schedules", "ALambdaC", _parallel_generating, _schedules)),
    "distance": _rows(
        ("distance-triangle", "dcc", _heisenberg, _distance_triangle),
        ("distance-unit", "dcc", _heisenberg, _distance_unit),
    ),
}

CSV_COLUMNS = ["check_id", "anchor", "model", "margin", "tolerance", "std_error", "verdict", "digest"]


def run_suite(config: dict | str | None = None) -> tuple[dict, int]:
    """Run the configured checks in order, in one thread, and assemble the report.

    Returns (report, exit_code) with exit code 0 when everything
    passed, 1 on any failure (inconclusive results are counted but do
    not fail the run), and raises ConfigError for malformed input.
    """
    cfg = load_config(config)
    requested = list(CHECKS) if cfg["checks"] == "all" else cfg["checks"]
    seed = cfg["seed"]
    results: list[CheckResult] = []
    timings: dict[str, float] = {}
    out = cfg["output"]
    # an output directory that cannot be made stops the run before any check
    if out.get("json"):
        Path(out["json"]).parent.mkdir(parents=True, exist_ok=True)
    if out.get("csv_dir"):
        Path(out["csv_dir"]).mkdir(parents=True, exist_ok=True)
    with _memo_scope():
        for cid in requested:
            t0 = time.perf_counter()
            results.extend(CHECKS[cid](cfg, seed))
            timings[cid] = time.perf_counter() - t0

    results.sort(key=lambda r: (r.check_id, r.model, r.digest))
    counts = {v: sum(r.verdict == v for r in results) for v in ("pass", "fail", "inconclusive")}
    cfg_for_digest = json.dumps(
        {k: v for k, v in cfg.items() if k != "output"}, sort_keys=True
    )
    report = {
        "config_digest": hashlib.sha256(cfg_for_digest.encode()).hexdigest()[:16],
        "seed": seed,
        "summary": counts,
        "results": [r.to_json() for r in results],
    }

    if out.get("json"):
        Path(out["json"]).write_text(json.dumps(report, sort_keys=True, indent=1))
    if out.get("csv_dir"):
        tables = {
            "results.csv": [CSV_COLUMNS, *([getattr(r, c) for c in CSV_COLUMNS] for r in results)],
            "timings.csv": [["check_id", "seconds"], *([c, f"{timings[c]:.3f}"] for c in requested)],
        }
        for fname, rows in tables.items():
            with open(Path(out["csv_dir"]) / fname, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)

    exit_code = 1 if counts["fail"] else 0
    return report, exit_code
