"""The three benchmark workloads, one per numerical engine of srlab.

Each workload turns a seed into a ``run_suite`` configuration (plus, for
``mc-paths``, the ``srlab heat`` calls) and names the checks it runs.
Every workload runs as a closed loop with one client: one process runs
the checks in sequence with ``jobs=1``.

BENCHMARK.json gates every end-to-end metric on every workload, so one
slot, ``focus_s``, carries the time of the checks each workload is built
around (``FOCUS``); every check's own time is printed alongside for
reading.  One slot, not one per check: on a shared machine a check of
about 1 s swung by up to 25 % between runs, too much to gate on.
"""

from __future__ import annotations

DEFAULT_SEED = 20260809  # the seed of the shipped suite configuration

ALL_MODELS = ["heisenberg", "free-nilpotent-3", "engel", "su2-pair"]

JET_CHECKS = [
    "validate-models",
    "constants",
    "cd-sharpness",
    "cd-sweep",
    "double-gamma",
    "condition-b",
    "commutation",
    "ricci-compare",
    "spectral-gap",
    "schedules",
    "distance",
]
MC_CHECKS = [
    "semigroup-identity",
    "semigroup-x2",
    "gradient-bound-a",
    "gradient-bound-b",
    "vertical-gradient",
]
PDE_CHECKS = ["li-yau", "harnack", "kernel-decay", "poincare-decay"]

# Models of the ``srlab heat`` calls on mc-paths: step-3 BCH composition
# (engel) and the quaternion product (su2-pair); the suite checks cover
# step-2 BCH on heisenberg.
HEAT_MODELS = ["engel", "su2-pair"]

# Sizes.  cd-sweep has many functions at one point, so the jet product
# takes most of it (52-57 % in JetSpace.multiply in traced runs);
# condition-b, commutation and double-gamma have few functions per
# point, so the per-point set-up bounds them (shift matrix plus frame
# build: 92 % of condition-b, 93 % of commutation).  A pass takes
# 6-9 s, so that a run holds several passes.
#
# The PDE grid is coarser than the shipped one (37x37x31 on a 5.5x5.5x3.3
# box, against 51x51x41 on 5x5x3): one pass of the shipped grid takes
# about 40 s, which does not fit the run budget, and the shipped box
# cannot be coarsened without raising TruncationError.  The wider box
# leaves more room under the 1e-3 boundary limit (9.1e-4 at t=1) than the
# shipped grid does (9.7e-4).  dt stays at the shipped 0.01, so a pass
# makes the shipped number of implicit steps.
_FULL = {
    "jet-calculus": {
        "cd": {"functions": 14000, "points": 1, "l_points": 9},
        "double_gamma": {"functions": 100, "points": 2},
        "condb": {"samples": 100},
        "commutation": {"functions": 10, "points": 2},
    },
    "mc-paths": {
        "mc": {"paths": 15000, "steps": 100},
        "gradient": {"paths": 4000, "steps": 30, "cases": 3},
    },
    "pde-grid": {
        "pde": {"bounds": [5.5, 5.5, 3.3], "shape": [37, 37, 31], "dt": 0.01},
    },
}
_FULL_HEAT = {"paths": 16000, "steps": 60}

# Small sizes that still run every code path and pass every check; for
# the benchmark's own tests, not for timing.  pde-grid has none and runs
# at full size: coarser grids raise TruncationError or fail the grid
# log-identity check.
_TINY = {
    "jet-calculus": {
        "cd": {"functions": 40, "points": 1, "l_points": 3},
        "double_gamma": {"functions": 10, "points": 1},
        "condb": {"samples": 50},
        "commutation": {"functions": 2, "points": 1},
        "ricci": {"directions": 5},
        "schedules": {"horizon": 1.0, "grid": 256},
    },
    "mc-paths": {
        "mc": {"paths": 400, "steps": 10},
        "gradient": {"paths": 300, "steps": 5, "cases": 1},
    },
}
_TINY_HEAT = {"paths": 400, "steps": 10}

CHECKS = {"jet-calculus": JET_CHECKS, "mc-paths": MC_CHECKS, "pde-grid": PDE_CHECKS}

# the checks each workload is built around, timed together as focus_s
FOCUS = {
    "jet-calculus": ["cd-sweep"],
    "mc-paths": list(MC_CHECKS),
    "pde-grid": ["harnack"],
}

NAMES = list(CHECKS)


def has_tiny(name: str) -> bool:
    """Whether the workload has tiny sizes; without them it runs at full size."""
    return name in _TINY


def suite_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The run_suite configuration of a workload at a seed."""
    sizes = (_TINY if tiny and has_tiny(name) else _FULL)[name]
    cfg = {"seed": int(seed), "models": list(ALL_MODELS), "checks": list(CHECKS[name]), "jobs": 1}
    cfg.update({k: dict(v) for k, v in sizes.items()})
    return cfg


def heat_calls(name: str, tiny: bool = False) -> list[dict]:
    """The ``srlab heat`` calls of a workload: x1^2 at t=1 from the identity."""
    if name != "mc-paths":
        return []
    size = _TINY_HEAT if tiny else _FULL_HEAT
    return [{"model": m, "t": 1.0, **size} for m in HEAT_MODELS]
