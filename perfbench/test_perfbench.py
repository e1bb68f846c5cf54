"""The benchmark's own tests: tiny-size runs of every workload, traced and
untraced, plus the metric naming and grading rules.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import probe
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _printed(metrics: dict, lines: list[str]) -> None:
    for name, m in metrics.items():
        assert NAME.match(name), name
        assert UNIT.match(m["unit"]), (name, m["unit"])
        assert isinstance(m["value"], float)
        assert f"{name} {m['value']:.6g} {m['unit']}" in lines


def test_metric_names_and_units_match_benchmark_json():
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert e2e == run.END_TO_END
    assert per_layer == layers.LAYER_METRICS
    names = [n for n, _ in e2e + per_layer]
    assert len(names) == len(set(names))
    for name, unit in e2e + per_layer:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert [w["name"] for w in BENCHMARK["workloads"]] == workloads.NAMES
    for name, focus in workloads.FOCUS.items():
        assert set(focus) <= set(workloads.CHECKS[name])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_untraced(workload):
    result, lines = run.measure(workload, 5, seconds=1, trace=False, tiny=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    _printed(result["metrics"], lines)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_report_is_byte_identical(workload):
    # correct covers: traced and untraced reports identical, work counts
    # repeated exactly between the two traced passes, no failed row
    result, lines = run.measure(workload, workloads.DEFAULT_SEED, seconds=1, trace=True, tiny=True)
    assert result["correct"], lines
    assert "report byte-identical to the reference" in lines
    assert list(result["metrics"]) == [n for n, _ in layers.LAYER_METRICS]
    _printed(result["metrics"], lines)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for cid in workloads.CHECKS[workload]:
        assert values[f"suite.check.s.{cid}"] > 0
    if workload == "pde-grid":
        assert values["pde.steps"] == 830  # dt 0.01 over the checks' horizons
        assert values["pde.cg.worst_rel_residual"] <= 1e-10
    if workload == "mc-paths":
        assert values["heat.draws"] > 0 and values["heat.path_steps"] > 0
    if workload == "jet-calculus":
        assert values["jets.multiply.elems"] > 0


def test_probe_rescales_by_the_samples_of_each_check():
    slow = {k: 2.0 * t for k, t in probe.NOMINAL_S.items()}
    fast = dict(probe.NOMINAL_S)
    n = probe.MIN_SAMPLES
    samples = [["a", slow]] * n + [["b", fast]] * (n - 1) + [[None, fast]] * n
    # "a" holds enough samples of its own; "b" falls back to the whole pass,
    # whose median sample is nominal
    assert probe.rescale({"a": 4.0, "b": 3.0}, samples) == {"a": 2.0, "b": 3.0}


def _pass_doc(workload):
    ref = run.load_reference(workload, tiny=True)
    return {"report": copy.deepcopy(ref["report"]), "errors": {}}, ref


def test_grade_counts_departures_fails_and_raises():
    doc, ref = _pass_doc("jet-calculus")
    seed = workloads.DEFAULT_SEED
    n = len(ref["report"]["suite"]["results"])
    assert run.grade(doc, ref, seed)[:2] == (n, 0)
    rows = doc["report"]["suite"]["results"]
    # a row whose tolerance dominates the rounding floor
    row = next(r for r in rows
               if r["tolerance"] > 1e3 * run.ROUNDING_FLOOR * (1.0 + abs(r["margin"])))
    row["margin"] += 0.5 * run.MARGIN_SHARE * row["tolerance"]
    assert run.grade(doc, ref, seed)[1] == 0  # within a small share of the tolerance
    row["margin"] += 2.0 * run.MARGIN_SHARE * row["tolerance"]
    assert run.grade(doc, ref, seed)[1] == 1
    assert run.grade(doc, ref, seed + 1)[1] == 0  # no reference at other seeds
    rows[0]["verdict"] = "fail"
    assert run.grade(doc, ref, seed + 1)[1] == 1
    doc["errors"] = {"distance": "RuntimeError: x"}
    doc["report"]["suite"]["results"] = [r for r in rows if r["check_id"] != "distance"]
    attempted, failed, _ = run.grade(doc, ref, seed + 1)
    assert failed == 2 and attempted == len(doc["report"]["suite"]["results"]) + 1
    assert run.first_difference(ref["report"], ref["report"]) is None
    assert run.first_difference(doc["report"], ref["report"]) == rows[0]["check_id"]


def test_grade_counts_a_raising_check_once_at_the_default_seed():
    # li-yau emits rows under five ids; when it raises, none of them is
    # counted again as missing
    doc, ref = _pass_doc("pde-grid")
    rows = doc["report"]["suite"]["results"]
    kept = [r for r in rows if ref["row_checks"][r["check_id"]] != "li-yau"]
    assert len(rows) - len(kept) > 1 + len([r for r in rows if r["check_id"] == "li-yau"])
    doc["report"]["suite"]["results"] = kept
    doc["errors"] = {"li-yau": "RuntimeError: x"}
    attempted, failed, _ = run.grade(doc, ref, workloads.DEFAULT_SEED)
    assert (attempted, failed) == (len(kept) + 1, 1)


def test_grade_heat_rows_against_the_reference_estimate():
    doc, ref = _pass_doc("mc-paths")
    heat = doc["report"]["heat"][0]
    assert run.grade(doc, ref, 1)[1] == 0
    heat["value"] += 6.0 * heat["std_error"] * 2**0.5
    assert run.grade(doc, ref, 1)[1] == 1


def test_refuses_without_program_sources(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "mc-paths",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
