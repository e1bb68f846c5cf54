"""Outside-in layer trace of srlab.

``install`` puts a timing wrapper on the name each caller actually
resolves: module attributes for calls through ``module.fn`` and for
names bound by ``from ... import`` (both bindings get the same
wrapper), class attributes for methods.  Every call records a span with
its parent; a layer's self time is its spans' durations minus the time
covered by their child spans.  Counts (work done, cache hits, solver
iterations) and numerical health are recorded at the same boundaries.

The wrappers never change arguments or results, so a traced run returns
the same report as an untraced one.  The layer names below are meant to
stay stable when a trace inside the program takes over.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# The suite checks, in registry order; every one gets a time and a
# covered-share metric on every workload (0 where the workload skips it).
SUITE_CHECKS = [
    "validate-models",
    "constants",
    "cd-sharpness",
    "cd-sweep",
    "double-gamma",
    "condition-b",
    "commutation",
    "ricci-compare",
    "spectral-gap",
    "semigroup-identity",
    "semigroup-x2",
    "gradient-bound-a",
    "gradient-bound-b",
    "vertical-gradient",
    "li-yau",
    "harnack",
    "kernel-decay",
    "poincare-decay",
    "schedules",
    "distance",
]
COMPOSE_MODELS = ["heisenberg", "free-nilpotent-3", "engel", "su2-pair"]
DISTANCE_ROUTES = ["geodesic-shooting", "graph", "bracket"]

# Layers whose self time is reported as "<layer>.s"
_TIMED = [
    "jets.multiply",
    "jets.polynomial_shift_matrix",
    "jets.lift_polynomials",
    "jets.multiplication_matrix",
    "jets.JetSpace",
    "frames.FrameCalc",
    "frames.FrameCalc.apply",
    "frames.get_calc",
    "frames.gamma_numeric",
    "calculus.cd_residual",
    "calculus.cd_residual_sweep",
    "calculus.double_gamma_sweep",
    "calculus.condb_sweep",
    "calculus.commutation_sweep",
    "calculus.log_identity_residuals",
    "models.get_model",
    "models.validate",
    "algebra.bracket",
    "heat.mc",
    "pde.solver_init",
    "pde.sample",
    "pde.evolve",
    "pde.cg",
    "pde.apply_laplacian",
    "pde.gamma_h",
    "pde.interpolate",
    "pde.heat_kernel",
    "distance.cc_distance",
    "spectral",
    "schedules",
    "geometry",
    "suite.self",
]

_COUNTED = [
    ("jets.multiply.calls", "count"),
    ("jets.multiply.elems", "count"),
    ("jets.polynomial_shift_matrix.calls", "count"),
    ("jets.JetSpace.builds", "count"),
    ("frames.FrameCalc.builds", "count"),
    ("frames.FrameCalc.apply.calls", "count"),
    ("frames.get_calc.calls", "count"),
    ("frames.get_calc.hit_ratio", "ratio"),
    ("frames.gamma_numeric.calls", "count"),
    ("algebra.bracket.calls", "count"),
    ("heat.path_steps", "count"),
    ("heat.draws", "count"),
    ("pde.steps", "count"),
    ("pde.cg.iters", "count"),
    ("pde.matvec.flops_computed", "flop"),
    ("pde.matvec.bytes_computed", "B"),
    ("pde.cg.worst_rel_residual", "ratio"),
    ("pde.mass_ratio.min", "ratio"),
    ("pde.boundary_fraction.max", "ratio"),
    ("distance.cc_distance.calls", "count"),
]

LAYER_METRICS: list[tuple[str, str]] = (
    [(f"{layer}.s", "s") for layer in _TIMED]
    + _COUNTED
    + [(f"models.compose.s.{m}", "s") for m in COMPOSE_MODELS]
    + [(f"models.compose.states.{m}", "count") for m in COMPOSE_MODELS]
    + [(f"distance.route.{r}", "count") for r in DISTANCE_ROUTES]
    + [(f"suite.check.s.{c}", "s") for c in SUITE_CHECKS]
    + [(f"suite.check.covered.{c}", "share") for c in SUITE_CHECKS]
    + [("trace.overhead_s", "s")]
)

# Work counts that must repeat exactly between two traced passes.
EXACT_COUNTS = [name for name, unit in LAYER_METRICS if unit in ("count", "flop", "B")]


class Tracer:
    """Spans with parents, plus counters, kept in memory for one pass."""

    def __init__(self):
        # span: [layer, key, parent index, check, t0, t1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._check: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.low: dict[str, float] = {}
        self.high: dict[str, float] = {}

    def enter(self, layer: str, key: str | None = None) -> int:
        if layer == "suite.check":
            self._check = key
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, key, parent, self._check, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, idx: int) -> None:
        self.spans[idx][5] = time.perf_counter()
        self._stack.pop()
        if self.spans[idx][0] == "suite.check":
            self._check = None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def minimum(self, name: str, value: float) -> None:
        self.low[name] = min(self.low.get(name, np.inf), float(value))

    def maximum(self, name: str, value: float) -> None:
        self.high[name] = max(self.high.get(name, -np.inf), float(value))

    def _durations(self) -> tuple[list[float], list[float]]:
        """(duration, self time) of every span."""
        child = [0.0] * len(self.spans)
        dur = [s[5] - s[4] for s in self.spans]
        for i, s in enumerate(self.spans):
            if s[2] >= 0:
                child[s[2]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def check_layers(self) -> dict[str, dict[str, float]]:
        """Per check, the self time of each layer inside it, in seconds."""
        _, own = self._durations()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (layer, _, _, check, _, _) in enumerate(self.spans):
            if check is not None and layer != "suite.check" and not layer.startswith("trace."):
                out[check][layer] += own[i]
        return {cid: dict(layers) for cid, layers in out.items()}

    def summary(self) -> dict:
        """Per-layer metrics: self times, counts, check coverage."""
        dur, self_time = self._durations()
        self_s: dict[str, float] = defaultdict(float)
        check_s: dict[str, float] = defaultdict(float)
        check_self: dict[str, float] = defaultdict(float)
        check_trace: dict[str, float] = defaultdict(float)
        for i, (layer, key, _, check, _, _) in enumerate(self.spans):
            own = self_time[i]
            if layer == "suite.check":
                check_s[key] += dur[i]
                check_self[key] += own
            elif layer == "models.compose":
                self_s[f"models.compose.s.{key}"] += own
            elif layer == "cli.heat":
                continue  # the harness's own root span around an `srlab heat` call
            elif layer.startswith("trace."):
                if check is not None:
                    check_trace[check] += dur[i]
            else:
                self_s[f"{layer}.s"] += own
        out = {name: 0.0 for name, _ in LAYER_METRICS}
        out.update(self_s)
        out.update(self.counts)
        calls = out["frames.get_calc.calls"]
        out["frames.get_calc.hit_ratio"] = (
            self.counts["frames.get_calc.hits"] / calls if calls else 0.0
        )
        out.pop("frames.get_calc.hits", None)
        for name, value in list(self.low.items()) + list(self.high.items()):
            out[name] = value
        for cid, total in check_s.items():
            out[f"suite.check.s.{cid}"] = total
            timed = total - check_trace[cid]
            out[f"suite.check.covered.{cid}"] = (
                (timed - check_self[cid]) / timed if timed > 0 else 0.0
            )
        unknown = set(out) - {name for name, _ in LAYER_METRICS}
        if unknown:
            raise KeyError(f"trace produced unlisted metrics: {sorted(unknown)}")
        return out


def _compose_key(model) -> str:
    for m in COMPOSE_MODELS:
        if model.name == m or model.name.startswith(m + "+") or model.name.startswith(m + "-"):
            return m
    raise KeyError(f"no compose metric for model {model.name!r}")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported srlab package."""
    from srlab import (
        algebra,
        calculus,
        distance,
        frames,
        geometry,
        heat,
        jets,
        models,
        pde,
        schedules,
        spectral,
        suite,
    )

    def timed(fn, layer, key=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(layer, key(*args) if key else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def patch(owners, attr, layer, key=None, after=None):
        owners = owners if isinstance(owners, tuple) else (owners,)
        wrapper = timed(getattr(owners[0], attr), layer, key, after)
        for owner in owners:
            setattr(owner, attr, wrapper)

    def counting(name, n=lambda out, *a, **k: 1):
        return lambda out, *a, **k: tracer.count(name, n(out, *a, **k))

    # jets
    def multiply_after(out, space, a, b, order):
        tracer.count("jets.multiply.calls")
        batch = int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1])))
        tracer.count("jets.multiply.elems", batch * int(space.pairs_at[order + 1]))

    patch(jets.JetSpace, "multiply", "jets.multiply", after=multiply_after)
    patch(jets.JetSpace, "__init__", "jets.JetSpace", after=counting("jets.JetSpace.builds"))
    patch(jets.JetSpace, "multiplication_matrix", "jets.multiplication_matrix")
    patch(jets, "polynomial_shift_matrix", "jets.polynomial_shift_matrix",
          after=counting("jets.polynomial_shift_matrix.calls"))
    patch((jets, calculus), "lift_polynomials", "jets.lift_polynomials")

    # frames
    patch(frames.FrameCalc, "__init__", "frames.FrameCalc",
          after=counting("frames.FrameCalc.builds"))
    patch(frames.FrameCalc, "apply", "frames.FrameCalc.apply",
          after=counting("frames.FrameCalc.apply.calls"))
    patch(frames, "gamma_numeric", "frames.gamma_numeric",
          after=counting("frames.gamma_numeric.calls"))
    get_calc = timed(frames.get_calc, "frames.get_calc")

    def get_calc_counted(*args, **kwargs):
        builds = tracer.counts["frames.FrameCalc.builds"]
        out = get_calc(*args, **kwargs)
        tracer.count("frames.get_calc.calls")
        tracer.count("frames.get_calc.hits", tracer.counts["frames.FrameCalc.builds"] == builds)
        return out

    frames.get_calc = calculus.get_calc = functools.wraps(frames.get_calc)(get_calc_counted)

    # calculus
    for name in ("cd_residual", "cd_residual_sweep", "double_gamma_sweep", "condb_sweep",
                 "commutation_sweep", "log_identity_residuals"):
        patch(calculus, name, f"calculus.{name}")

    # models and algebra
    def compose_after(out, model, u, w):
        tracer.count(f"models.compose.states.{_compose_key(model)}",
                     int(np.size(out) // np.shape(out)[-1]))

    patch(models.LieModel, "compose", "models.compose",
          key=lambda model, *a: _compose_key(model), after=compose_after)
    patch((models, suite), "get_model", "models.get_model")
    patch(suite, "validate", "models.validate")
    patch(algebra, "bracket", "algebra.bracket", after=counting("algebra.bracket.calls"))

    # heat: one layer over the MC entry points and the path engine
    for name in ("mc_semigroup_many", "mc_semigroup", "mc_variance", "mc_gradient",
                 "mc_gamma_mixed"):
        patch(heat, name, "heat.mc")

    def evolve_after(out, model, starts, t, steps, size, rng):
        if t != 0 and steps != 0:
            tracer.count("heat.path_steps", starts.shape[0] * size * steps)
            tracer.count("heat.draws", size * steps * model.dim_h)

    patch(heat, "_evolve", "heat.mc", after=evolve_after)

    # pde
    solver = pde.HeisenbergHeatSolver
    patch(solver, "__init__", "pde.solver_init")
    patch(solver, "sample", "pde.sample")
    patch(solver, "apply_laplacian", "pde.apply_laplacian")
    patch(solver, "gamma_h", "pde.gamma_h")
    patch(solver, "interpolate", "pde.interpolate")
    patch(pde, "heat_kernel", "pde.heat_kernel")

    def evolve_fields(fields, *args, **kwargs):
        for fld in fields:
            tracer.minimum("pde.mass_ratio.min", fld.mass_ratio)
            tracer.maximum("pde.boundary_fraction.max", fld.boundary_fraction)

    patch(solver, "evolve", "pde.evolve", after=evolve_fields)
    cg = pde.cg

    @functools.wraps(cg)
    def traced_cg(A, b, *args, callback=None, **kwargs):
        iters = 0

        def step(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        idx = tracer.enter("pde.cg")
        try:
            x, info = cg(A, b, *args, callback=step, **kwargs)
        finally:
            tracer.exit(idx)
        # computed, not measured: one product per iteration plus the
        # initial residual, over the CSR arrays and two dense vectors
        matvecs = iters + 1
        tracer.count("pde.steps")
        tracer.count("pde.cg.iters", iters)
        tracer.count("pde.matvec.flops_computed", 2 * A.nnz * matvecs)
        tracer.count(
            "pde.matvec.bytes_computed",
            (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 2 * b.nbytes) * matvecs,
        )
        idx = tracer.enter("trace.cg_residual")
        try:
            norm_b = np.linalg.norm(b)
            if norm_b > 0:
                tracer.maximum("pde.cg.worst_rel_residual",
                               np.linalg.norm(b - A @ x) / norm_b)
        finally:
            tracer.exit(idx)
        return x, info

    pde.cg = traced_cg

    # cheap layers
    def route_after(est, *args, **kwargs):
        tracer.count("distance.cc_distance.calls")
        tracer.count(f"distance.route.{est.method}")

    patch(distance, "cc_distance", "distance.cc_distance", after=route_after)
    patch(spectral, "spectral_gap_su2_pair", "spectral")
    for name in ("builtin_schedules", "admissibility_margins", "ratio_monotonicity",
                 "gradient_variance_exponential"):
        patch(schedules, name, "schedules")
    for name in ("normalize_vertical", "assemble_constants", "geometry_report",
                 "riemann_ricci_compare"):
        patch(geometry, name, "geometry")

    # suite: run_suite's own time, and one root span per check
    patch(suite, "run_suite", "suite.self")
    for cid in list(suite.CHECKS):
        suite.CHECKS[cid] = timed(suite.CHECKS[cid], "suite.check", key=lambda *a, c=cid: c)
