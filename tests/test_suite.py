"""Suite orchestration: configuration, verdicts, reports, CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import srlab.models as models
import srlab.pde as pde
import srlab.schedules as schedules
import srlab.suite as su
from srlab.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

LIGHT_CHECKS = [
    "validate-models",
    "constants",
    "cd-sharpness",
    "ricci-compare",
    "schedules",
    "distance",
]


def light_config(tmp_path=None, **overrides):
    cfg = {
        "checks": LIGHT_CHECKS,
        "condb": {"samples": 100},
        "commutation": {"functions": 10, "points": 5},
        "cd": {"functions": 100, "points": 5, "l_points": 5},
    }
    cfg.update(overrides)
    return cfg


def test_verdict_rules():
    assert su.verdict_of(1.0, 0.0) == "pass"
    assert su.verdict_of(-1e-12, 1e-9) == "pass"
    assert su.verdict_of(-1.0, 1e-9) == "fail"
    assert su.verdict_of(-1e-3, 1e-9, std_error=1e-2) == "inconclusive"
    assert su.verdict_of(-1e-3, 1e-9, std_error=1e-5) == "fail"


def test_unknown_config_key_rejected():
    with pytest.raises(su.ConfigError):
        su.load_config({"bogus": 1})
    with pytest.raises(su.ConfigError):
        su.load_config({"cd": {"bogus": 1}})
    with pytest.raises(su.ConfigError):
        su.load_config({"cd": 3})


def test_unknown_check_id_rejected():
    with pytest.raises(su.ConfigError):
        su.run_suite({"checks": ["no-such-check"]})


def test_empty_check_list_is_success():
    report, code = su.run_suite({"checks": []})
    assert code == 0
    assert report["results"] == []
    assert report["summary"] == {"pass": 0, "fail": 0, "inconclusive": 0}


def test_light_run_passes_and_is_deterministic():
    r1, c1 = su.run_suite(light_config())
    r2, c2 = su.run_suite(light_config())
    assert c1 == c2 == 0
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["summary"]["fail"] == 0
    anchors = {row["anchor"] for row in r1["results"]}
    assert "CDstar" in anchors
    assert "RiemannRicci" in anchors


def test_jobs_other_than_one_rejected():
    with pytest.raises(su.ConfigError, match="jobs must be 1"):
        su.run_suite({"checks": [], "jobs": 2})


def test_schedules_row_fails_on_a_wrong_derivative(monkeypatch):
    # a wrong analytic derivative raises the margin here; only the
    # difference cross-check sees it
    linear = schedules.gradient_variance_linear

    def corrupted(*args, **kwargs):
        s = linear(*args, **kwargs)
        return dataclasses.replace(s, da=s.da + 0.5)

    monkeypatch.setattr(schedules, "gradient_variance_linear", corrupted)
    report, code = su.run_suite({"checks": ["schedules"], "models": ["heisenberg"]})
    assert code == 1
    (row,) = report["results"]
    assert row["verdict"] == "fail"
    assert row["margin"] == -1.0
    assert "grad-b" in row["details"]["issues"]


PDE_CHECKS = ["li-yau", "harnack", "kernel-decay", "poincare-decay"]
PDE_GRID = {"bounds": [5.5, 5.5, 3.3], "shape": [37, 37, 31], "dt": 0.01}


def test_pde_checks_share_one_evolution_per_source(monkeypatch):
    solves = 0
    cg = pde.cg

    def counting_cg(*args, **kwargs):
        nonlocal solves
        solves += 1
        return cg(*args, **kwargs)

    monkeypatch.setattr(pde, "cg", counting_cg)
    cfg = su.load_config({"pde": PDE_GRID})
    # the unshared route: each check called on its own, outside a run
    direct = [r.to_json() for cid in PDE_CHECKS for r in su.CHECKS[cid](cfg, cfg["seed"])]
    direct.sort(key=lambda r: (r["check_id"], r["model"], r["digest"]))
    assert solves == 690  # harnack-kernel evolves the origin source to 1.0
    solves = 0
    report, code = su.run_suite({"checks": PDE_CHECKS, "pde": PDE_GRID})
    assert solves == 390
    assert code == 0
    assert json.dumps(report["results"], sort_keys=True) == json.dumps(direct, sort_keys=True)


def test_pde_rows_equal_the_csr_scipy_route():
    # the diagonal operators and pde.cg against the CSR operators and
    # scipy's CG, bit for bit; one BLAS thread, so that both routes sum
    # their dot products in the same order
    cfg = {"models": ["heisenberg"], "checks": PDE_CHECKS, "pde": PDE_GRID}
    script = (
        "import json, sys\n"
        "import scipy.sparse.linalg as sla\n"
        "import srlab.pde as pde\n"
        "from srlab.suite import run_suite\n"
        "cfg = json.loads(sys.argv[1])\n"
        "shipped = run_suite(cfg)\n"
        "pde.row_ordered_dia = lambda a: a\n"
        "pde.cg = lambda a, b, x0, *, rtol, matvec, callback=None: "
        "sla.cg(a, b, x0=x0, rtol=rtol, atol=0.0, callback=callback)\n"
        "print(json.dumps([shipped, run_suite(cfg)]))\n"
    )
    proc = _run(["-c", script, json.dumps(cfg)], ["src"], OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    (shipped, code), (csr, csr_code) = json.loads(proc.stdout)
    assert code == csr_code == 0
    assert len(shipped["results"]) == 14
    assert json.dumps(shipped["results"]) == json.dumps(csr["results"])


def test_pde_source_rejects_undeclared_times():
    solver = pde.HeisenbergHeatSolver(
        models.get_model("heisenberg"), (4.0, 4.0, 4.0), (5, 5, 5), 0.01
    )
    with pytest.raises(ValueError, match="not declared"):
        su._pde_fields(solver, "bump", [0.3, 0.7])
    with pytest.raises(ValueError, match="not declared"):
        su._pde_fields(solver, "origin-kernel", [0.0])


def test_pde_source_times_need_not_be_sorted(monkeypatch):
    solver = pde.HeisenbergHeatSolver(
        models.get_model("heisenberg"), (4.0, 4.0, 4.0), (9, 9, 9), 0.01
    )
    initial, _ = su.PDE_SOURCES["bump"]
    monkeypatch.setitem(su.PDE_SOURCES, "bump", (initial, (0.02, 0.0, 0.01, 0.02)))
    fields = su._pde_fields(solver, "bump", [0.02, 0.0, 0.01])
    assert {t: f.t for t, f in fields.items()} == {0.02: 0.02, 0.0: 0.0, 0.01: 0.01}


def test_report_files(tmp_path):
    out_json = tmp_path / "report.json"
    csv_dir = tmp_path / "csv"
    cfg = light_config(output={"json": str(out_json), "csv_dir": str(csv_dir)})
    su.run_suite(cfg)
    doc = json.loads(out_json.read_text())
    assert doc["summary"]["fail"] == 0
    lines = (csv_dir / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(su.CSV_COLUMNS)
    assert len(lines) == len(doc["results"]) + 1
    assert (csv_dir / "timings.csv").exists()
    # runtimes never enter the JSON payload
    assert "runtime" not in json.dumps(doc)


PER_MODEL_CHECKS = [
    "validate-models",
    "constants",
    "cd-sweep",
    "double-gamma",
    "condition-b",
    "commutation",
    "ricci-compare",
    "schedules",
]


def cheap_per_model_config(models):
    return {
        "models": models,
        "checks": PER_MODEL_CHECKS,
        "cd": {"functions": 20, "points": 1, "l_points": 3},
        "double_gamma": {"functions": 5, "points": 1},
        "condb": {"samples": 20},
        "commutation": {"functions": 2, "points": 1},
        "ricci": {"directions": 3},
        "schedules": {"horizon": 1.0, "grid": 128},
    }


def row_models(report):
    return {(row["check_id"], row["model"]) for row in report["results"]}


def test_per_model_eligibility_comes_from_structure():
    report, code = su.run_suite(cheap_per_model_config(list(su.ALL_MODELS)))
    assert code == 0
    step2 = ("heisenberg", "free-nilpotent-3", "su2-pair")
    expected = {("validate-models", m) for m in su.ALL_MODELS}
    expected.add(("condition-b-violation", "engel"))
    for cid in ("constants", "cd-sweep", "double-gamma", "condition-b", "commutation",
                "ricci-compare", "schedules"):
        expected |= {(cid, m) for m in step2}
    assert row_models(report) == expected

    engel_only, _ = su.run_suite(cheap_per_model_config(["engel"]))
    assert row_models(engel_only) == {
        ("validate-models", "engel"),
        ("condition-b-violation", "engel"),
    }


def test_every_check_runs_on_the_abelian_model():
    # abelian is fully parallel but not bracket generating, so its
    # vertical curvature vanishes and the schedules have nothing to
    # normalize by: they skip it, and no check raises on it
    cfg = cheap_per_model_config(["abelian"])
    cfg["checks"] = list(su.CHECKS)
    report, code = su.run_suite(cfg)
    assert code == 0
    assert {m for cid, m in row_models(report) if not cid.startswith("spectral")} == {"abelian"}
    assert {cid for cid, m in row_models(report) if m == "abelian"} == {
        "validate-models", "double-gamma", "commutation", "ricci-compare",
    }


def test_per_model_rows_ignore_the_model_name(monkeypatch):
    # an Engel group registered under another name gets Engel's rows
    renamed = dataclasses.replace(models.build_engel(), name="step3")
    monkeypatch.setitem(models.MODEL_BUILDERS, "step3", lambda: renamed)
    report, _ = su.run_suite(cheap_per_model_config(["step3"]))
    assert row_models(report) == {
        ("validate-models", "step3"),
        ("condition-b-violation", "step3"),
    }
    # the Heisenberg rows follow the group's structure, under its configured name
    group = dataclasses.replace(models.build_heisenberg(), name="h3")
    monkeypatch.setitem(models.MODEL_BUILDERS, "h3", lambda: group)
    heisenberg_rows = {"checks": ["cd-sharpness", "distance"]}
    report, code = su.run_suite({"models": ["h3"], **heisenberg_rows})
    assert code == 0
    assert row_models(report) == {
        ("cd-sharpness", "h3"),
        ("distance-triangle", "h3"),
        ("distance-unit", "h3"),
    }
    report, code = su.run_suite({"models": ["engel"], **heisenberg_rows})
    assert code == 0
    assert report["results"] == []


def test_check_seed_derivation_is_stable():
    assert su.derive_seed(1, "a") == su.derive_seed(1, "a")
    assert su.derive_seed(1, "a") != su.derive_seed(2, "a")
    assert su.derive_seed(1, "a") != su.derive_seed(1, "b")


def readme_catalog() -> set[str]:
    """The anchors of the README's inequality catalog, with X(a)..(c) spelled out."""
    text = (ROOT / "README.md").read_text()
    table = text.split("## Inequality catalog")[1].split("\n## ")[0]
    anchors = set()
    for line in table.splitlines():
        for name in re.findall(r"`([^`]+)`", line.split("|")[1] if line.startswith("|") else ""):
            span = re.fullmatch(r"(.+)\((\w)\)\.\.\((\w)\)", name)
            if span:
                first, last = ord(span[2]), ord(span[3])
                anchors |= {f"{span[1]}({chr(c)})" for c in range(first, last + 1)}
            else:
                anchors.add(name)
    return anchors


def test_anchor_catalog_is_covered():
    # every row of every registered check names an anchor from the catalog
    catalog = readme_catalog()
    assert {"CDstar", "GradBound(b)", "Poincare(c)"} <= catalog
    for cid, check in su.CHECKS.items():
        for row_id, anchor, _, _ in check.rows:
            assert anchor in catalog, (cid, row_id, anchor)


# -- CLI ------------------------------------------------------------------


def test_cli_models_and_constants(capsys):
    assert cli_main(["models"]) == 0
    assert cli_main(["constants", "heisenberg"]) == 0
    out = capsys.readouterr().out
    assert "rho20" in out


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    assert cli_main(["suite", "run", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli_main(["suite", "run", "--config", str(missing)]) == 2
    # rejected while loading, before any check runs
    for doc in (
        {"models": ["nosuch"]},
        {"models": "heisenberg"},
        {"checks": "distance"},
        # values: types kept, counts and scales positive, no id twice
        {"cd": {"functions": 0}},
        {"cd": {"functions": "10"}},
        {"condb": {"samples": 0}},
        {"mc": {"paths": 0}},
        {"gradient": {"cases": 0}},
        {"ricci": {"directions": 0}},
        {"seed": "x"},
        {"seed": 1.5},
        {"checks": ["cd-sharpness", "cd-sharpness"]},
        # the engines' own minima
        {"pde": {"shape": [3, 3, 3]}},
        {"schedules": {"grid": 2}},
        {"schedules": {"grid": 5}},
        {"spectral": {"j_max": 1.3}},
    ):
        bad.write_text(json.dumps(doc))
        assert cli_main(["suite", "run", "--config", str(bad)]) == 2, doc
        assert capsys.readouterr().err.startswith("configuration error:"), doc


def test_shipped_configs_load_and_quick_passes(capsys):
    for name in ("default", "quick"):
        su.load_config(str(ROOT / "configs" / f"{name}.json"))
    assert cli_main(["suite", "run", "--config", str(ROOT / "configs" / "quick.json")]) == 0
    assert "fail=0 inconclusive=0" in capsys.readouterr().out


def test_cli_suite_subset_runs_and_writes(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["suite", "run", "--checks", "validate-models", "distance", "--seed", "7"]
    assert cli_main(args + ["--json", str(out1)]) == 0
    assert cli_main(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["seed"] == 7
    out = capsys.readouterr().out
    assert "pass=" in out
    # the run options belong to `suite run` only
    with pytest.raises(SystemExit):
        cli_main(["--seed", "7", "suite", "run", "--checks", "validate-models"])


def test_cli_constants_handles_infeasible_models(capsys):
    # step-3 models admit no positive constant set; the command reports
    # the geometry and the infeasibility instead of failing
    assert cli_main(["constants", "engel"]) == 0
    out = capsys.readouterr().out
    assert "constants_error" in out
    assert "M_grad_v" in out


def test_cli_cd_check_reports_infeasible_constants(capsys):
    # exit 2 keeps "no constants to check" apart from 1, a violation found
    assert cli_main(["cd-check", "engel", "--functions", "5", "--points", "1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"model": "engel", "constants_error": doc["constants_error"]}
    assert "empty feasible window" in doc["constants_error"]


def test_cli_spectral_and_distance(capsys):
    assert cli_main(["spectral", "--rho", "1.0", "--jmax", "2"]) == 0
    assert cli_main(["distance", "heisenberg", "--x", "0", "0", "0",
                     "--y", "1", "0", "0"]) == 0
    assert "geodesic-shooting" in capsys.readouterr().out
    # every other model reports the shortest admissible curve found
    for model in ("free-nilpotent-3", "engel", "su2-pair"):
        assert cli_main(["distance", model]) == 0
        est = json.loads(capsys.readouterr().out)["estimate"]
        assert est["method"] == "shooting-upper"
        assert est["lower"] <= est["value"] == est["upper"]
    assert cli_main(["distance", "abelian", "--x", "0", "0", "0", "--y", "0.3", "0.4", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["estimate"]["value"] == 0.5


def _run(args, pythonpath, **env):
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in pythonpath))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize(
    "args",
    [
        ["distance", "engel", "--epsilon", "0.1"],  # unknown option
        ["distance", "abelian"],
        ["constants", "heisenberg", "--objective", "max_rho2"],  # unknown choice
        ["distance", "heisenberg", "--x", "0", "0", "--y", "1", "0", "0"],
        ["constants", "nosuch"],
        ["spectral", "--jmax", "0.5"],
        ["spectral", "--jmax", "1.3"],  # not a multiple of 1/2
        ["spectral", "--rho", "0"],
        ["heat", "heisenberg", "--t", "-1"],
        ["cd-check", "heisenberg", "--points", "0"],
        ["suite", "run", "--jobs", "2"],  # removed option
    ],
)
def test_cli_bad_input_exits_2(args):
    # 2 is bad input; 1 would claim a violation was found
    proc = _run(["-m", "srlab.cli", *args], ["src"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr.splitlines()[-1]


def test_perfbench_tracer_installs():
    # the layer trace patches srlab names by getattr; a deleted name
    # breaks `perfbench/run.py --trace 1` here first
    code = "import layers; layers.install(layers.Tracer())"
    proc = _run(["-c", code], ["src", "perfbench"])
    assert proc.returncode == 0, proc.stderr


def test_su2_pair_jet_margins_at_roundoff():
    # the chart series of su2-pair reads 30 Bernoulli numbers; with each
    # one correctly rounded these identities hold to roundoff at the
    # default sizes (scipy's bernoulli, wrong by 1.7e-12 from B_4 on,
    # left -1.03e-12 and -2.27e-13)
    report, code = su.run_suite({"models": ["su2-pair"], "checks": ["commutation", "condition-b"]})
    assert code == 0
    margins = {row["check_id"]: row["margin"] for row in report["results"]}
    assert set(margins) == {"commutation", "condition-b"}
    assert all(abs(m) < 1e-13 for m in margins.values()), margins


def test_validate_and_constants_run_once_per_configured_model(monkeypatch):
    # selectors and measures share one model object, one validation
    # report and one constant set per configured name, so a Heisenberg
    # group registered as h3 (whose own name is still "heisenberg") keeps
    # its own entry
    monkeypatch.setitem(models.MODEL_BUILDERS, "h3", models.build_heisenberg)
    calls = []
    built = []

    def counted(fn):
        return lambda model: calls.append((fn.__name__, model.name)) or fn(model)

    monkeypatch.setattr(su, "validate", counted(su.validate))
    monkeypatch.setattr(su.geometry, "assemble_constants", counted(su.geometry.assemble_constants))
    monkeypatch.setattr(su, "get_model", lambda name: built.append(name) or models.get_model(name))
    cfg = light_config(
        models=["heisenberg", "h3", "engel"],
        checks=["validate-models", "constants", "cd-sharpness", "condition-b", "schedules"],
    )
    report, code = su.run_suite(cfg)
    assert code == 0
    assert {m for _, m in row_models(report)} == {"heisenberg", "h3", "engel"}
    assert sorted(calls) == [
        ("assemble_constants", "heisenberg"),
        ("assemble_constants", "heisenberg"),
        ("validate", "engel"),
        ("validate", "heisenberg"),
        ("validate", "heisenberg"),
    ]
    assert sorted(built) == ["engel", "h3", "heisenberg"]
    # a check run alone opens a memo of its own, closed when it returns
    calls.clear()
    built.clear()
    for _ in range(2):
        rows = su.CHECKS["condition-b"](su.load_config(cfg), 1)
        assert {row.model for row in rows} == {"heisenberg", "h3", "engel"}
    assert sorted(calls) == [("validate", "engel")] * 2 + [("validate", "heisenberg")] * 4
    assert sorted(built) == ["engel", "engel", "h3", "h3", "heisenberg", "heisenberg"]


def test_import_path_keeps_scipy_linalg_special_optimize_out():
    # srlab loads numpy only, and srlab.cli adds scipy.sparse for the PDE
    # solver; the quick suite runs without the three subpackages
    script = (
        "import sys\n"
        "import srlab, srlab.cli\n"
        "from srlab.suite import run_suite\n"
        "_, code = run_suite('configs/quick.json')\n"
        "print(code, [m for m in ('scipy.linalg', 'scipy.special', 'scipy.optimize')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
