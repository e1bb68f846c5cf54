"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|trace|setup [--tiny]

Every mode first does srlab's set-up: it imports srlab and builds the
four models and their constants, and notes the CPU time that took;
``setup`` and ``pass`` then build the host-speed probe of ``probe.py``
and note the host's slowdown.  ``setup`` then exits.  ``pass`` runs the workload's checks in sequence
(one ``run_suite`` call with ``jobs=1``, then the ``srlab heat`` calls)
with the probe sampling, and prints one JSON
line with the report, the CPU time of every check, the probe's samples
and the peak resident memory.  ``trace`` does the same without the
probe and with the layer wrappers of ``layers.py`` installed, and adds
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup() -> None:
    sys.path.insert(0, str(SRC))
    import srlab

    if Path(srlab.__file__).resolve().parent != (SRC / "srlab").resolve():
        raise SystemExit(f"imported srlab from {srlab.__file__}, expected {SRC}")


def build_models() -> None:
    """Build the four models and their constants: srlab's own set-up."""
    from srlab import geometry
    from srlab.models import get_model

    import workloads

    for name in workloads.ALL_MODELS:
        model = get_model(name)
        geometry.geometry_report(model)
        try:
            geometry.assemble_constants(model)
        except ValueError:
            pass  # step-3 models have no positive constant set (as in `srlab constants`)


def run_pass(name: str, seed: int, tiny: bool, tracer=None, probe=None) -> dict:
    """One pass of the workload.

    ``times`` holds each check's CPU time (with the probe's own time
    taken out); with a ``probe``, ``probe_samples`` holds its samples,
    each labelled with the check it interrupted.
    """
    import numpy as np
    import scipy
    from srlab import heat, suite
    from srlab.jets import Polynomial
    from srlab.models import get_model

    import workloads

    times: dict[str, float] = {}
    errors: dict[str, str] = {}
    row_checks: dict[str, str] = {}  # row check_id -> the check that emits it

    def begin(key):
        """Label the probe's samples with ``key``; return the CPU time."""
        if probe is not None:
            probe.label = key
        return cpu()

    def cpu():
        return time.process_time() - (probe.spent if probe is not None else 0.0)

    def timed(cid, fn):
        def run(cfg, seed):
            t0 = begin(cid)
            try:
                rows = fn(cfg, seed)
                row_checks.update((row.check_id, cid) for row in rows)
                return rows
            except Exception as err:  # a raising check is a failed row, not a crash
                errors[cid] = f"{type(err).__name__}: {err}"
                return []
            finally:
                times[cid] = cpu() - t0

        return run

    for cid in workloads.CHECKS[name]:
        suite.CHECKS[cid] = timed(cid, suite.CHECKS[cid])
    if probe is not None:
        probe.start()
    report, _ = suite.run_suite(workloads.suite_config(name, seed, tiny))

    heat_rows = []
    for call in workloads.heat_calls(name, tiny):
        model = get_model(call["model"])
        f = Polynomial.monomial(model.dim, tuple([2] + [0] * (model.dim - 1)))
        key = f"heat:{call['model']}"
        t0 = begin(key)
        if tracer is not None:
            idx = tracer.enter("cli.heat", call["model"])
        est = heat.mc_semigroup(
            model, f, np.zeros(model.dim), call["t"], call["paths"], call["steps"],
            suite.derive_seed(seed, key),
        )
        if tracer is not None:
            tracer.exit(idx)
        times[key] = cpu() - t0
        heat_rows.append({"model": call["model"], **est.to_json()})

    if probe is not None:
        probe.stop()

    return {
        "report": {"suite": report, "heat": heat_rows},
        "probe_samples": probe.samples if probe is not None else [],
        "times": times,
        "errors": errors,
        "row_checks": row_checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--mode", required=True, choices=["setup", "pass", "trace"])
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    _setup()
    tracer = None
    if args.mode == "trace":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    build_models()
    # the CPU time of this process so far: interpreter start-up included
    setup = {"setup_cpu": time.process_time()}
    probe = None
    if args.mode != "trace":
        import probe as probe_mod

        probe = probe_mod.Probe()
        setup["setup_slowdown"] = probe.slowdown_now(probe_mod.SETUP_SAMPLES)
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0
    doc = run_pass(args.workload, args.seed, args.tiny, tracer, probe)
    doc.update(setup)
    if tracer is not None:
        doc["layers"] = tracer.summary()
        doc["check_layers"] = tracer.check_layers()
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
