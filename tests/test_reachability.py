"""Every function in src/srlab is reached by an entry point, or allowed by name.

The entry points are a suite run and each CLI subcommand.  One
subprocess installs a profile hook before `import srlab`, since some
tables and every check's rows are built at import, and then makes the
CLI calls below, the last of them a suite run of all 20 checks at small
sizes.  The test walks src/srlab with `ast` and asserts that the
functions the subprocess never entered are exactly the allow-list, each
with one reason from a closed set.  A function that no entry point
reaches either earns a place on the list or is deleted.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "srlab"

SECOND_ROUTE = "a second route that a test compares against"
ERROR_PATH = "an error path"
PATCHED = "a name perfbench/layers.py patches"
REASONS = {SECOND_ROUTE, ERROR_PATH, PATCHED}

ALLOWED = {
    "calculus.sublaplacian": SECOND_ROUTE,
    "calculus.gamma": SECOND_ROUTE,
    "calculus.gamma2": SECOND_ROUTE,
    "calculus.double_gamma_residuals": SECOND_ROUTE,
    "calculus.condb_residual": SECOND_ROUTE,
    "calculus.commutation_residual": SECOND_ROUTE,
    "calculus.qform_oracle_residual": SECOND_ROUTE,
    "frames.fd_frame_derivative": SECOND_ROUTE,
    "geometry.sphere_max_curvature": SECOND_ROUTE,
    "geometry.alpha_closed_form": SECOND_ROUTE,
    "cli._bad_input": ERROR_PATH,
    "cli._Parser.error": ERROR_PATH,
    "frames.gamma_numeric": PATCHED,
    "jets.JetSpace.multiplication_matrix": PATCHED,
    "heat.mc_variance": PATCHED,
    "heat.mc_gradient": PATCHED,
    "heat.mc_gamma_mixed": PATCHED,
    "pde.heat_kernel": PATCHED,
}

# small sizes that run every code path; the PDE grid is the coarsest
# that the PDE rows run on (coarser ones raise TruncationError)
SCAN_CONFIG = {
    "cd": {"functions": 20, "points": 1, "l_points": 3},
    "double_gamma": {"functions": 5, "points": 1},
    "condb": {"samples": 20},
    "commutation": {"functions": 2, "points": 1},
    "ricci": {"directions": 3},
    "mc": {"paths": 200, "steps": 5},
    "gradient": {"paths": 100, "steps": 5, "cases": 1},
    "pde": {"bounds": [5.5, 5.5, 3.3], "shape": [37, 37, 31], "dt": 0.01},
    "schedules": {"horizon": 1.0, "grid": 128},
}

SCAN = """
import contextlib, io, json, sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.setprofile(hook)
from srlab.cli import main

tmp = sys.argv[1]
heat = ["--t", "0.5", "--paths", "100", "--steps", "5"]
calls = [
    ["models", "--validate"],
    ["constants", "su2-pair"],
    ["constants", "su2-pair", "--raw"],
    ["cd-check", "heisenberg", "--functions", "5", "--points", "1"],
    ["heat", "heisenberg", *heat],
    ["heat", "engel", *heat],
    ["heat", "su2-pair", *heat],
    ["distance", "heisenberg", "--x", "0", "0", "0", "--y", "0.5", "0", "0.2"],
    ["distance", "engel"],
    ["distance", "free-nilpotent-3"],
    ["distance", "su2-pair"],
    ["spectral"],
    ["suite", "run", "--config", tmp + "/config.json",
     "--json", tmp + "/report.json", "--csv-dir", tmp + "/csv"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(args) for args in calls]
sys.setprofile(None)
json.dump({"codes": codes, "entered": sorted(entered)}, sys.stdout)
"""


def defined_functions() -> dict:
    """{(path, first line, name): module.qualname} of every def in src/srlab.

    The first line is the first decorator's, as in the code object.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = prefix + child.name
                visit(child, path, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return found


def test_every_function_is_reached_or_allowed(tmp_path):
    assert set(ALLOWED.values()) == REASONS
    (tmp_path / "config.json").write_text(json.dumps(SCAN_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCAN, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0] * len(doc["codes"]), doc["codes"]
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in doc["entered"]}
    defined = defined_functions()
    unreached = {name for key, name in defined.items() if key not in entered}
    new = sorted(unreached - set(ALLOWED))
    stale = sorted(set(ALLOWED) - unreached)
    assert not new and not stale, (
        "unreached and not allowed: " + ", ".join(new)
        + "; allowed but reached or gone: " + ", ".join(stale)
    )
