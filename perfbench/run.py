"""srlab benchmark: one workload per numerical engine, timed end to end
from fresh interpreters, plus an outside-in layer trace.

    python3 perfbench/run.py --workload jet-calculus|mc-paths|pde-grid \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports srlab from ``src/``.

``--trace 0`` alternates set-up samples (a fresh interpreter that
imports srlab and builds the models and their constants) with whole
passes of the workload, each in a fresh interpreter that begins with
the same set-up, while another round fits in ``--seconds``, and reports
medians.  Pass times are CPU times rescaled to a nominal host speed by
the probe of ``probe.py``.  ``--trace 1`` runs one untraced pass and two traced passes
and reports the per-layer metrics of ``layers.py``.  Every pass is graded against the suite verdicts and,
at the default seed, against the pinned reference report in
``reference/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

N_SETUP = 15          # least set-up samples per run; setup_s is their median
ROUND_SETUPS = 1      # set-up-only workers spawned before each pass
HARD_LIMIT_S = 170.0  # every run ends before this, whatever --seconds says
# A margin departs from the reference when it moves by more than this
# share of its tolerance (plus a rounding floor for zero tolerances).
MARGIN_SHARE = 1e-3
ROUNDING_FLOOR = 1e-12
HEAT_SIGMAS = 5.0     # heat estimate vs reference estimate, in combined std errors

END_TO_END = [
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("focus_s", "s"),
]
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The environment of every pass: one BLAS thread, within the nproc cap.

    The hot loops hold the interpreter lock, and on a 2-core machine two
    BLAS threads made a pde-grid pass slower (12.4-14.6 s against
    10.7-13.0 s for one thread) and less steady.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Runner:
    """Spawns workers, each a fresh interpreter, within the run's hard limit."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.env = child_env()
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, mode: str) -> tuple[float, dict]:
        """Run one worker; return its wall time and its JSON document.

        The document's ``setup_s`` is the worker's CPU time up to the end
        of its set-up, interpreter start-up included, rescaled to the
        nominal host speed (untraced workers only).
        """
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
        ] + (["--tiny"] if self.tiny else [])
        budget = HARD_LIMIT_S - self.elapsed()
        if budget <= 0:
            raise BenchError(f"out of time before a {mode} worker")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} worker exceeded {budget:.0f} s") from err
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc.pop("setup_cpu") / doc.pop("setup_slowdown", 1.0)
        return wall, doc



# ----------------------------------------------------------------------
# Grading
# ----------------------------------------------------------------------


def reference_path(workload: str, tiny: bool = False) -> Path:
    tiny = tiny and workloads.has_tiny(workload)
    return REFERENCE / f"{workload}{'.tiny' if tiny else ''}.json"


def load_reference(workload: str, tiny: bool = False) -> dict:
    path = reference_path(workload, tiny)
    if not path.is_file():
        raise BenchError(f"missing reference report {path}")
    return json.loads(path.read_text())


def _keyed(rows: list[dict]) -> dict:
    """Suite rows keyed by (check, model, digest, occurrence)."""
    out, seen = {}, {}
    for row in rows:
        base = (row["check_id"], row["model"], row["digest"])
        n = seen.get(base, 0)
        seen[base] = n + 1
        out[base + (n,)] = row
    return out


def _departs(row: dict, ref: dict) -> bool:
    if row["verdict"] != ref["verdict"]:
        return True
    m, r = row["margin"], ref["margin"]
    if m == r:
        return False
    allowed = MARGIN_SHARE * ref["tolerance"] + ROUNDING_FLOOR * (1.0 + abs(r))
    return not abs(m - r) <= allowed


def first_difference(report: dict, ref: dict) -> str | None:
    """Name of the first check (in report order) whose rows differ from ref."""
    dump = lambda doc: json.dumps(doc, sort_keys=True)  # noqa: E731
    if dump(report) == dump(ref):
        return None
    rows = report["suite"]["results"]
    ref_rows = ref["suite"]["results"]
    for a, b in zip(rows, ref_rows):
        if dump(a) != dump(b):
            return a["check_id"]
    if len(rows) != len(ref_rows):
        longer = rows if len(rows) > len(ref_rows) else ref_rows
        return longer[min(len(rows), len(ref_rows))]["check_id"]
    for a, b in zip(report["heat"], ref["heat"]):
        if dump(a) != dump(b):
            return f"heat:{a['model']}"
    return "report header"


def grade(doc: dict, ref: dict, seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one pass.

    A check that raises is one failed row; the reference rows it would
    have emitted are not counted again as missing.
    """
    reasons = [f"{cid} raised {msg}" for cid, msg in sorted(doc["errors"].items())]
    rows = doc["report"]["suite"]["results"]
    attempted = len(rows) + len(doc["errors"])
    failed = len(doc["errors"])
    for row in rows:
        if row["verdict"] == "fail":
            failed += 1
            reasons.append(f"{row['check_id']}/{row['model']} verdict fail")
    if seed == workloads.DEFAULT_SEED:
        ref_rows = _keyed(ref["report"]["suite"]["results"])
        got = _keyed(rows)
        for key, ref_row in ref_rows.items():
            row = got.get(key)
            if row is None:
                if ref["row_checks"][ref_row["check_id"]] not in doc["errors"]:
                    failed += 1
                    attempted += 1
                    reasons.append(f"{key[0]}/{key[1]} missing")
            elif row["verdict"] != "fail" and _departs(row, ref_row):
                failed += 1
                reasons.append(f"{key[0]}/{key[1]} departs from the reference")
    ref_heat = {row["model"]: row for row in ref["report"]["heat"]}
    for row in doc["report"]["heat"]:
        attempted += 1
        r = ref_heat[row["model"]]
        spread = HEAT_SIGMAS * math.hypot(row["std_error"], r["std_error"])
        if not abs(row["value"] - r["value"]) <= spread:
            failed += 1
            reasons.append(f"heat:{row['model']} {row['value']:.4f} vs reference {r['value']:.4f}")
    return attempted, failed, reasons


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run the workload; return (result, human-readable lines)."""
    if not (SRC / "srlab" / "__init__.py").is_file():
        raise BenchError(f"no srlab sources under {SRC}")
    ref = load_reference(workload, tiny)
    runner = Runner(workload, seed, tiny)
    lines = [
        f"# workload {workload} seed {seed} trace {int(trace)}; nproc {nproc()}; "
        f"cpu {cpu_model()}; python {platform.python_version()}"
    ]
    docs: list[dict] = []
    problems: list[str] = []

    if not trace:
        # Set-up samples alternate with passes, so both see the same
        # stretch of machine time.  Every pass begins with the same
        # set-up, so it gives a sample too.
        setups, walls, setup_walls, rounds = [], [], [], []

        def setup_sample():
            wall, doc = runner.spawn("setup")
            setup_walls.append(wall)
            setups.append(doc["setup_s"])

        while True:
            t0 = time.perf_counter()
            for _ in range(ROUND_SETUPS):
                setup_sample()
            wall, doc = runner.spawn("pass")
            setups.append(doc["setup_s"])
            walls.append(wall)
            docs.append(doc)
            rounds.append(time.perf_counter() - t0)
            # another round, as long as the longest so far, must leave
            # time for the set-up samples still owed
            owed = max(0, N_SETUP - len(setups) - ROUND_SETUPS - 1)
            ahead = max(rounds) + owed * statistics.median(setup_walls)
            if runner.elapsed() + ahead > seconds:
                break
        while len(setups) < N_SETUP:
            setup_sample()
        focus = workloads.FOCUS[workload]
        scaled = [probe.rescale(d["times"], d["probe_samples"]) for d in docs]
        samples = {
            "pass_s": [sum(t.values()) for t in scaled],
            "setup_s": setups,
            "peak_rss_mb": [d["peak_rss_mb"] for d in docs],
            "focus_s": [sum(t[i] for i in focus) for t in scaled],
        }
        lines.append(f"focus_s = {' + '.join(focus)}")
        for name, xs in samples.items():
            lines.append(f"samples {name}: " + " ".join(f"{x:.4f}" for x in xs))
        for name, xs in (
            ("wall (s)", walls),
            ("checks cpu (s)", [sum(d["times"].values()) for d in docs]),
            ("host slowdown", [probe.slowdown([x for _, x in d["probe_samples"]]) for d in docs]),
        ):
            lines.append(f"samples {name}: " + " ".join(f"{x:.4f}" for x in xs))
        values = {name: statistics.median(xs) for name, xs in samples.items()}
        for item in docs[0]["times"]:
            t = statistics.median(s[item] for s in scaled)
            label = f"heat_s.{item[5:]}" if item.startswith("heat:") else f"check_s.{item}"
            lines.append(f"{label} {t:.4f} s (median of {len(docs)})")
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    else:
        _, doc0 = runner.spawn("pass")
        cpu0 = sum(doc0["times"].values())
        traced = [runner.spawn("trace") for _ in range(2)]
        docs = [doc0] + [doc for _, doc in traced]
        per_layer = [doc["layers"] for _, doc in traced]
        units = dict(layers.LAYER_METRICS)
        values = {}
        for name, _ in layers.LAYER_METRICS:
            if name in layers.EXACT_COUNTS:
                values[name] = per_layer[0][name]
            else:
                values[name] = statistics.median(p[name] for p in per_layer)
        values["trace.overhead_s"] = (
            statistics.median(sum(doc["times"].values()) for _, doc in traced) - cpu0
        )
        for name in layers.EXACT_COUNTS:
            if per_layer[0][name] != per_layer[1][name]:
                problems.append(f"work count {name} differs between traced passes: "
                                f"{per_layer[0][name]} vs {per_layer[1][name]}")
        for cid in workloads.CHECKS[workload]:
            share = values[f"suite.check.covered.{cid}"]
            t = values[f"suite.check.s.{cid}"]
            flag = "  BELOW 90 %" if t > 1.0 and share < 0.9 else ""
            lines.append(f"covered {cid}: {share:.4f} of {t:.4f} s{flag}")
            first = traced[0][1]
            inside = first["check_layers"].get(cid, {})
            top = sorted(inside.items(), key=lambda kv: -kv[1])[:4]
            total = first["layers"][f"suite.check.s.{cid}"]
            lines.append(f"  layers of {cid}: " + ", ".join(
                f"{layer} {own / total:.0%}" for layer, own in top))
        lines.append(f"tracing overhead {values['trace.overhead_s']:.4f} s "
                     f"over {cpu0:.4f} s of untraced check CPU time")
        metrics = {name: _metric(values[name], units[name]) for name, _ in layers.LAYER_METRICS}

    lines[0] += "; " + "; ".join(f"{k} {v}" for k, v in sorted(docs[0]["versions"].items()))
    dumps = [json.dumps(d["report"], sort_keys=True) for d in docs]
    if len(set(dumps)) != 1:
        problems.append("the report differs between passes" + (" (traced vs untraced)" if trace else ""))
    diff = first_difference(docs[0]["report"], ref["report"])
    lines.append(
        "report byte-identical to the reference"
        if diff is None
        else f"report differs from the reference (seed {workloads.DEFAULT_SEED}) "
        f"first at {diff}" + ("" if seed == workloads.DEFAULT_SEED else "; expected, other seed")
    )
    attempted = failed = 0
    for doc in docs:
        a, f, reasons = grade(doc, ref, seed)
        attempted += a
        failed += f
        problems.extend(reasons)
    lines.append(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} rows)")
    lines.extend(f"PROBLEM {p}" for p in dict.fromkeys(problems))
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
