"""Suite orchestration: configuration, verdicts, reports, CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

import srlab.heat as heat
import srlab.models as models
import srlab.pde as pde
import srlab.schedules as schedules
import srlab.suite as su
from srlab.cli import CLOSED_STDOUT
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
    with pytest.raises(su.ConfigError, match="unknown configuration key gradient.delta"):
        su.load_config({"gradient": {"delta": 1e-3}})  # gradients are pathwise, with no step


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
TINY_PDE_GRID = {"bounds": [4.0, 4.0, 4.0], "shape": [9, 9, 9], "dt": 0.01}


def test_cli_suite_run_errors_exit_2(tmp_path, monkeypatch):
    # a grid too small to hold the heat flow, and a report path that cannot be
    # made, are bad input, not violations: one error line and exit 2
    config = tmp_path / "truncating.json"
    config.write_text(json.dumps({"checks": ["li-yau"], "pde": {"shape": [5, 5, 5]}}))
    blocker = tmp_path / "file"
    blocker.write_text("")
    for args in (["--config", str(config)],
                 ["--checks", "validate-models", "--json", str(blocker / "r.json")]):
        proc = _run(["-m", "srlab.cli", "suite", "run", *args], ["src"])
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
    # the report's directory is made, as the CSV directory is
    out = tmp_path / "new" / "dir" / "r.json"
    assert cli_main(["suite", "run", "--checks", "validate-models", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["fail"] == 0
    # an unwritable path stops the run before the first check
    monkeypatch.setitem(su.CHECKS, "validate-models", lambda cfg, seed: pytest.fail("ran"))
    with pytest.raises(OSError):
        su.run_suite({"checks": ["validate-models"], "output": {"json": str(blocker / "r.json")}})


def test_pde_checks_share_one_evolution_per_source(monkeypatch):
    solves = 0
    cg = pde.cg

    def counting_cg(*args, **kwargs):
        nonlocal solves
        solves += 1
        return cg(*args, **kwargs)

    monkeypatch.setattr(pde, "cg", counting_cg)
    reads = set()
    tables = su._pde

    class Recorded(Mapping):
        """A source's snapshot table that records the times read from it."""

        def __init__(self, source, fields):
            self.source, self.fields = source, fields

        def __getitem__(self, t):
            reads.add((self.source, t))
            return self.fields[t]

        def __iter__(self):
            return iter(self.fields)

        def __len__(self):
            return len(self.fields)

    def recording(cfg, name, source):
        solver, fields = tables(cfg, name, source)
        return solver, Recorded(source, fields)

    monkeypatch.setattr(su, "_pde", recording)
    # every declared time of every source is read, so no step evolves an unread snapshot
    declared = {(source, t) for source, (_, times) in su.PDE_SOURCES.items() for t in times}
    cfg = su.load_config({"pde": PDE_GRID})
    # the unshared route: each check called on its own, outside a run
    direct = [r.to_json() for cid in PDE_CHECKS for r in su.CHECKS[cid](cfg, cfg["seed"])]
    direct.sort(key=lambda r: (r["check_id"], r["model"], r["digest"]))
    # li-yau 100 + 30 (bump, entropy), harnack 100 + 80 (bump, origin
    # reading), kernel-decay 100 (origin kernel), poincare-decay 100 (bump)
    assert solves == 510
    assert reads == declared
    solves = 0
    reads.clear()
    report, code = su.run_suite({"checks": PDE_CHECKS, "pde": PDE_GRID})
    assert solves == 310
    assert reads == declared
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


def test_pde_source_rejects_undeclared_times(monkeypatch):
    # a few steps per source; the kernel source is a few cells wide, so it
    # truncates on this grid, and entropy stands in as the second source
    for source in ("bump", "entropy"):
        initial, _ = su.PDE_SOURCES[source]
        monkeypatch.setitem(su.PDE_SOURCES, source, (initial, (0.01, 0.02)))
    cfg = su.load_config({"pde": TINY_PDE_GRID})
    _, bump = su._pde(cfg, "heisenberg", "bump")
    assert bump[0.02].t == 0.02
    with pytest.raises(KeyError):
        bump[0.03]
    _, entropy = su._pde(cfg, "heisenberg", "entropy")
    with pytest.raises(KeyError):
        entropy[0.0]
    # the table is read-only
    with pytest.raises(TypeError):
        bump[0.03] = bump[0.02]


def test_pde_source_times_need_not_be_sorted(monkeypatch):
    initial, _ = su.PDE_SOURCES["bump"]
    monkeypatch.setitem(su.PDE_SOURCES, "bump", (initial, (0.02, 0.0, 0.01, 0.02)))
    _, fields = su._pde(su.load_config({"pde": TINY_PDE_GRID}), "heisenberg", "bump")
    assert {t: f.t for t, f in fields.items()} == {0.02: 0.02, 0.0: 0.0, 0.01: 0.01}


def test_report_files(tmp_path):
    out_json = tmp_path / "report.json"
    csv_dir = tmp_path / "csv"
    cfg = light_config(output={"json": str(out_json), "csv_dir": str(csv_dir)})
    report, _ = su.run_suite(cfg)
    doc = json.loads(out_json.read_text())
    assert doc["summary"]["fail"] == 0
    lines = (csv_dir / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(su.CSV_COLUMNS)
    assert len(lines) == len(doc["results"]) + 1
    # each row as the report holds it: None as an empty field, a number as str prints it
    for line, row in zip(lines[1:], report["results"]):
        assert line == ",".join("" if row[c] is None else str(row[c]) for c in su.CSV_COLUMNS)
    timings = (csv_dir / "timings.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in timings] == ["check_id", *LIGHT_CHECKS]
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
        # a snapshot time off the time grid
        {"checks": ["kernel-decay"], "pde": {"dt": 0.3}},
        {"schedules": {"grid": 2}},
        {"schedules": {"grid": 5}},
        # constants now, not keys: double-gamma reads l = c = 1, the
        # spectral rows rho = 1 and j_max = 2
        {"double_gamma": {"l": 1.0}},
        {"double_gamma": {"c": 1.0}},
        {"spectral": {"rho": 1.0}},
        {"spectral": {"j_max": 2.0}},
    ):
        bad.write_text(json.dumps(doc))
        assert cli_main(["suite", "run", "--config", str(bad)]) == 2, doc
        assert capsys.readouterr().err.startswith("configuration error:"), doc


def test_one_path_is_a_configuration_error(tmp_path, capsys):
    # one path cannot show a violation, so it may not run and read as a fail
    bad = tmp_path / "one-path.json"
    for doc in ({"mc": {"paths": 1}}, {"gradient": {"paths": 1}}):
        with pytest.raises(su.ConfigError, match="paths must be at least 2"):
            su.load_config(doc)
        bad.write_text(json.dumps(doc))
        assert cli_main(["suite", "run", "--config", str(bad)]) == 2, doc
        assert capsys.readouterr().err.startswith("configuration error:"), doc


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_every_shipped_config_loads(path):
    cfg = su.load_config(str(path))
    if path.stem == "default":
        # the shipped sizes live in DEFAULT_CONFIG; the file names the outputs only
        assert {**cfg, "output": su.DEFAULT_CONFIG["output"]} == su.DEFAULT_CONFIG


def test_shipped_configs_load_and_quick_passes(capsys):
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
    # engel's mixed bounds do not vanish, so it has no constant set; the
    # command reports the geometry and the reason instead of failing
    assert cli_main(["constants", "engel"]) == 0
    out = capsys.readouterr().out
    assert "constants_error" in out
    assert "M_grad_v" in out


def test_cli_cd_check_reports_infeasible_constants(capsys):
    # exit 2 keeps "no constants to check" apart from 1, a violation found
    assert cli_main(["cd-check", "engel", "--functions", "5", "--points", "1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"model": "engel", "constants_error": doc["constants_error"]}
    assert "mixed bounds do not vanish" in doc["constants_error"]


def test_cli_cd_check_runs_on_a_flat_model(capsys):
    # abelian has no curvature to normalize; its constants hold on the
    # model as given, as `srlab constants abelian` reports them
    assert cli_main(["cd-check", "abelian", "--functions", "200", "--points", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == 0
    assert cli_main(["constants", "abelian"]) == 0
    constants = json.loads(capsys.readouterr().out)
    assert constants["geometry"]["normalized"] is False
    assert doc["constants"] == constants["constants"]


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
        ["constants", "heisenberg", "--objective", "max_alpha"],  # removed option
        ["distance", "heisenberg", "--x", "0", "0", "--y", "1", "0", "0"],
        ["distance", "heisenberg", "--x", "1", "0", "0"],  # one endpoint alone
        ["distance", "heisenberg", "--y", "1", "0", "0"],
        ["constants", "nosuch"],
        ["spectral", "--jmax", "0.5"],
        ["spectral", "--jmax", "1.3"],  # not a multiple of 1/2
        ["spectral", "--jmax", "4.5"],  # above spectral.J_MAX_LIMIT
        ["spectral", "--rho", "0"],
        ["heat", "heisenberg", "--t", "-1"],
        ["cd-check", "heisenberg", "--points", "0"],
        ["suite", "run", "--jobs", "2"],  # removed option
        ["heat", "heisenberg", "--t", "nan"],
        ["heat", "heisenberg", "--t", "inf"],
        ["heat", "heisenberg", "--t", "1e308"],  # finite, but the estimate is not
        ["distance", "heisenberg", "--x", "0", "0", "0", "--y", "1e200", "0", "1"],  # overflow
        ["distance", "heisenberg", "--x", "nan", "0", "0", "--y", "1", "0", "0"],
        ["distance", "heisenberg", "--x", "0", "0", "0", "--y", "1", "inf", "0"],
        ["spectral", "--rho", "inf"],
        # finite, but numpy overflows or reads an invalid value
        ["spectral", "--rho", "1e308"],
        ["spectral", "--rho", "1e-308"],
        ["distance", "engel", "--x", "0", "0", "0", "0", "--y", "1e200", "0", "1", "0"],
        ["heat", "heisenberg", "--paths", "1"],  # one path has no standard error
        # numpy's generators take no negative seed
        ["cd-check", "heisenberg", "--seed", "-1"],
        ["distance", "engel", "--seed", "-1"],
        ["heat", "heisenberg", "--seed", "-1"],
    ],
)
def test_cli_bad_input_exits_2(args):
    # 2 is bad input; 1 would claim a violation was found.  One line, and
    # no numpy warning or LAPACK message before it
    proc = _run(["-m", "srlab.cli", *args], ["src"])
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "error: " in proc.stderr
    # a Python float overflow is named, not printed as its errno tuple
    assert "Numerical result out of range" not in proc.stderr
    if any(a in ("1e308", "1e-308", "1e200") for a in args):
        # a finite value that numpy cannot carry is named by its option
        option = {"heat": "--t", "distance": "--x/--y", "spectral": "--rho"}[args[0]]
        assert option in proc.stderr, proc.stderr


def test_mc_rows_are_byte_equal_at_one_and_two_blas_threads():
    # each MC estimate sums its own rows of the path table without BLAS;
    # a chunk of paths is long enough for a BLAS product over it to thread
    cfg = {
        "checks": ["semigroup-identity", "semigroup-x2", "gradient-bound-a",
                   "gradient-bound-b", "vertical-gradient"],
        "models": ["heisenberg"],
        "mc": {"paths": heat.CHUNK, "steps": 2},
        "gradient": {"paths": heat.CHUNK, "steps": 2, "cases": 3},
    }
    script = (
        "import json, sys\n"
        "from srlab.suite import run_suite\n"
        "report, code = run_suite(json.loads(sys.argv[1]))\n"
        "print(json.dumps(report['results']))\n"
    )
    rows = []
    for threads in ("1", "2"):
        proc = _run(["-c", script, json.dumps(cfg)], ["src"], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        rows.append(proc.stdout)
    assert len(json.loads(rows[0])) == 12
    assert rows[0] == rows[1]


def test_cli_heat_su2_pair_at_huge_t_prints_an_estimate():
    # unlike heisenberg at --t 1e308 (exit 2 above), the su2-pair walk
    # stays finite: its increments are quaternion angles, and the group
    # is compact, so the estimate is printed as at any other t
    proc = _run(["-m", "srlab.cli", "heat", "su2-pair", "--t", "1e308"], ["src"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    est = json.loads(proc.stdout)
    assert est["t"] == 1e308
    assert math.isfinite(est["value"]) and math.isfinite(est["std_error"])


@pytest.mark.parametrize(
    "args",
    [
        ["heat", "heisenberg", "--paths", "100", "--steps", "2"],
        ["suite", "run", "--checks", "schedules", "--json", "{tmp}/r.json"],
    ],
)
def test_cli_on_a_closed_stdout_exits_without_a_traceback(args, tmp_path):
    # `srlab ... | head -1`, made deterministic: the pipe's read end is
    # closed before the command starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [a.format(tmp=tmp_path) for a in args]
    try:
        proc = subprocess.run([sys.executable, "-m", "srlab.cli", *args], env=env,
                              stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == CLOSED_STDOUT == 141, proc.stderr
    assert proc.stderr == ""
    if args[0] == "suite":
        # the report is written before the verdict lines are printed
        report = json.loads((tmp_path / "r.json").read_text())
        assert {row["check_id"] for row in report["results"]} == {"schedules"}


def test_perfbench_tracer_installs():
    # the layer trace patches srlab names by getattr; a deleted name
    # breaks `perfbench/run.py --trace 1` here first
    code = "import layers; layers.install(layers.Tracer())"
    proc = _run(["-c", code], ["src", "perfbench"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["jet-calculus", "mc-paths"])
def test_perfbench_tiny_pass_grades_against_reference(workload):
    # the benchmark grades every row against perfbench/reference/*.tiny.json;
    # a moved margin or a changed row digest fails here before it runs
    code = (
        "import run, workloads\n"
        f"result, lines = run.measure({workload!r}, workloads.DEFAULT_SEED,"
        " seconds=1, trace=True, tiny=True)\n"
        "assert result['correct'] and result['failed'] == 0, '\\n'.join(lines)\n"
    )
    proc = _run(["-c", code], ["src", "perfbench"], OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr


def test_su2_pair_jet_margins_at_roundoff():
    # the su2-pair chart is closed-form on each su(2) ideal, so these
    # identities hold to roundoff at the default sizes (a 30-term chart
    # series with scipy's Bernoulli numbers, wrong by 1.7e-12 from B_4 on,
    # once left -1.03e-12 and -2.27e-13)
    report, code = su.run_suite({"models": ["su2-pair"], "checks": ["commutation", "condition-b"]})
    assert code == 0
    margins = {row["check_id"]: row["margin"] for row in report["results"]}
    assert set(margins) == {"commutation", "condition-b"}
    assert all(abs(m) < 1e-13 for m in margins.values()), margins


def test_validate_and_constants_run_once_per_configured_model(monkeypatch):
    # selectors and measures share one model object, one validation
    # report and one geometry report and constant set per configured name
    # (the constants rows read the report the constants are made of), so a
    # Heisenberg group registered as h3 (whose own name is still
    # "heisenberg") keeps its own entry
    monkeypatch.setitem(models.MODEL_BUILDERS, "h3", models.build_heisenberg)
    calls = []
    built = []

    def counted(fn):
        return lambda model: calls.append((fn.__name__, model.name)) or fn(model)

    monkeypatch.setattr(su, "validate", counted(su.validate))
    monkeypatch.setattr(su.geometry, "geometry_report", counted(su.geometry.geometry_report))
    monkeypatch.setattr(su, "get_model", lambda name: built.append(name) or models.get_model(name))
    cfg = light_config(
        models=["heisenberg", "h3", "engel"],
        checks=["validate-models", "constants", "cd-sharpness", "condition-b", "schedules"],
    )
    report, code = su.run_suite(cfg)
    assert code == 0
    assert {m for _, m in row_models(report)} == {"heisenberg", "h3", "engel"}
    assert sorted(calls) == [
        ("geometry_report", "heisenberg"),
        ("geometry_report", "heisenberg"),
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


def test_su2_pair_gradients_keep_scipy_linalg_out():
    # the pathwise gradient and the frame-gamma entry on a
    # non-nilpotent model read Ad and the frame from power series
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from srlab import heat\n"
        "from srlab.jets import Polynomial\n"
        "from srlab.models import get_model\n"
        "m = get_model('su2-pair')\n"
        "f = Polynomial.random(6, 3, np.random.default_rng(1))\n"
        "x = np.full(6, 0.2)\n"
        "heat.mc_gradient(m, f, x, 0.5, 'h', 200, 5, 3)\n"
        "heat.mc_semigroup(m, heat.FrameGamma(f, 'hv'), x, 0.5, 200, 5, 3)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    proc = _run(["-c", script], ["src"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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
