"""Command line interface."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import calculus, distance, geometry, heat, pde, spectral, suite
from .jets import Polynomial
from .models import MODEL_BUILDERS, get_model, validate


def _print(doc):
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))


def _bad_input(message) -> int:
    # exit 2, not 1, which means a violation was found
    print(f"error: {message}", file=sys.stderr)
    return 2


def _finite(text):
    """argparse type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite.__name__ = "float"  # argparse names the kind in its message


def _positive(kind, or_zero=False):
    """argparse type: a number of the given kind that is > 0, or >= 0 with or_zero."""

    def parse(text):
        value = kind(text)
        if not (value > 0 or or_zero and value == 0):
            what = "non-negative" if or_zero else "positive"
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the kind in its message
    return parse


# numpy's overflow, invalid and divide-by-zero stop a command that reads
# numbers from the command line, so a huge input ends in one `error:` line
_raise_fp = np.errstate(over="raise", invalid="raise", divide="raise")


def cmd_models(args):
    for name in sorted(MODEL_BUILDERS):
        model = get_model(name)
        line = f"{name:18s} dim_h={model.dim_h} dim_v={model.dim_v} step={model.step}"
        if args.validate:
            rep = validate(model)
            line += f"  valid={rep.passed}"
            if not rep.passed:
                line += f"  issues={rep.issues}"
        print(line)
    return 0


def cmd_constants(args):
    model = get_model(args.model)
    rep = geometry.geometry_report(model, normalize=not args.raw)
    doc = {"geometry": rep.to_json()}
    if not args.raw:
        try:
            doc["constants"] = geometry.assemble_constants(model).to_json()
        except ValueError as err:
            # engel's mixed bounds do not vanish, so it has no constant set
            doc["constants_error"] = str(err)
    _print(doc)
    return 0


def cmd_cd_check(args):
    try:
        work, consts = suite._constants_for(args.model)
    except ValueError as err:
        # as in `constants`: engel has no constant set;
        # exit 2, not 1, which means a violation was found
        _print({"model": args.model, "constants_error": str(err)})
        return 2
    res, scale = calculus.cd_residual_sweep(
        work,
        consts,
        args.functions,
        args.points,
        suite._l_grid(9),
        seed=args.seed,
    )
    ratio = res / scale
    _print(
        {
            "model": args.model,
            "constants": consts.to_json(),
            "functions": args.functions,
            "points": args.points,
            "min_margin": float(ratio.min()),
            "mean_margin": float(ratio.mean()),
            "violations": int((ratio < -1e-9).sum()),
        }
    )
    return 0 if ratio.min() >= -1e-9 else 1


@_raise_fp
def cmd_heat(args):
    model = get_model(args.model)
    f = Polynomial.monomial(model.dim, tuple([2] + [0] * (model.dim - 1)))
    try:
        est = heat.mc_semigroup(
            model, f, np.zeros(model.dim), args.t, args.paths, args.steps, args.seed
        )
    except FloatingPointError as err:
        return _bad_input(f"--t {args.t:g} is out of numeric range ({err})")
    except (ValueError, ArithmeticError) as err:
        return _bad_input(err)
    if not math.isfinite(est.value):
        return _bad_input(f"the estimate at --t {args.t:g} is {est.value}, not finite")
    _print(est.to_json())
    return 0


@_raise_fp
def cmd_distance(args):
    model = get_model(args.model)
    if (args.x is None) != (args.y is None):
        return _bad_input("give both --x and --y, or neither for two random points")
    if args.x is None:
        rng = np.random.default_rng(args.seed)
        x, y = rng.uniform(-0.5, 0.5, (2, model.dim))
    else:
        x = np.asarray(args.x, dtype=float)
        y = np.asarray(args.y, dtype=float)
        if x.shape != (model.dim,) or y.shape != (model.dim,):
            return _bad_input(f"--x and --y need {model.dim} coordinates on {args.model}")
    try:
        est = distance.cc_distance(model, x, y)
    except OverflowError:
        # a Python float overflow, which the numpy error state does not cover
        return _bad_input(f"--x/--y overflow a float in the {args.model} distance")
    except FloatingPointError as err:
        return _bad_input(f"--x/--y are out of numeric range in the {args.model} distance ({err})")
    except (ValueError, ArithmeticError) as err:
        return _bad_input(err)
    _print({"x": list(x), "y": list(y), "estimate": est.to_json()})
    return 0


@_raise_fp
def cmd_spectral(args):
    try:
        lam1, alpha_chk, gap_chk = spectral.spectral_gap_su2_pair(args.rho, args.jmax)
    except (FloatingPointError, np.linalg.LinAlgError) as err:
        # the model's metric at this rho overflows, or underflows to singular
        return _bad_input(f"--rho {args.rho:g} is out of numeric range ({err})")
    except (ValueError, ArithmeticError) as err:
        return _bad_input(err)
    _print({"lambda1": lam1, "alpha_bound": alpha_chk, "gap_bound": gap_chk})
    ok = alpha_chk["margin"] >= 0 and gap_chk["margin"] >= 0 and alpha_chk["stable"]
    return 0 if ok else 1


def cmd_suite_run(args):
    try:
        cfg = suite.load_config(args.config)
    except (suite.ConfigError, OSError, json.JSONDecodeError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.json is not None:
        cfg["output"]["json"] = args.json
    if args.csv_dir is not None:
        cfg["output"]["csv_dir"] = args.csv_dir
    if args.checks:
        cfg["checks"] = args.checks
    try:
        report, code = suite.run_suite(cfg)
    except suite.ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (pde.TruncationError, OSError) as err:
        return _bad_input(err)
    summary = report["summary"]
    for row in report["results"]:
        print(
            f"[{row['verdict']:>12s}] {row['check_id']:24s} {row['model']:20s} "
            f"margin={row['margin']:.3e} tol={row['tolerance']:.1e}"
        )
    print(
        f"pass={summary['pass']} fail={summary['fail']} "
        f"inconclusive={summary['inconclusive']}"
    )
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `error:` line (`-h` prints the usage)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="srlab",
        description="curvature-dimension verification lab for sub-Riemannian models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("models", help="list and validate the shipped models")
    q.add_argument("--validate", action="store_true")
    q.set_defaults(fn=cmd_models)

    q = sub.add_parser("constants", help="geometry report and derived constants")
    q.add_argument("model", choices=sorted(MODEL_BUILDERS))
    q.add_argument("--raw", action="store_true", help="skip vertical normalization")
    q.set_defaults(fn=cmd_constants)

    q = sub.add_parser("cd-check", help="sampled curvature-dimension residuals")
    q.add_argument("model", choices=sorted(MODEL_BUILDERS))
    q.add_argument("--functions", type=_positive(int), default=1000)
    q.add_argument("--points", type=_positive(int), default=10)
    q.add_argument("--seed", type=_positive(int, or_zero=True), default=0)
    q.set_defaults(fn=cmd_cd_check)

    q = sub.add_parser("heat", help="Monte Carlo semigroup sample")
    q.add_argument("model", choices=sorted(MODEL_BUILDERS))
    q.add_argument("--t", type=_finite, default=1.0)
    q.add_argument("--paths", type=int, default=20000)
    q.add_argument("--steps", type=int, default=100)
    q.add_argument("--seed", type=_positive(int, or_zero=True), default=0)
    q.set_defaults(fn=cmd_heat)

    q = sub.add_parser("distance", help="Carnot-Caratheodory distance estimate")
    q.add_argument("model", choices=sorted(MODEL_BUILDERS))
    q.add_argument("--x", type=_finite, nargs="+", default=None)
    q.add_argument("--y", type=_finite, nargs="+", default=None)
    q.add_argument("--seed", type=_positive(int, or_zero=True), default=0)
    q.set_defaults(fn=cmd_distance)

    q = sub.add_parser("spectral", help="spectral gap oracle on SU(2) x SU(2)")
    q.add_argument("--rho", type=_positive(_finite), default=1.0)
    q.add_argument("--jmax", type=float, default=2.0)
    q.set_defaults(fn=cmd_spectral)

    q = sub.add_parser("suite", help="verification suite")
    qq = q.add_subparsers(dest="suite_command", required=True)
    r = qq.add_parser("run", help="run configured checks")
    r.add_argument("--config", default=None, help="JSON configuration path")
    r.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    r.add_argument("--json", default=None, help="write the JSON report here")
    r.add_argument("--csv-dir", default=None, help="write CSV tables here")
    r.add_argument("--checks", nargs="+", default=None, help="subset of check ids")
    r.set_defaults(fn=cmd_suite_run)
    return p


#: exit status when the reader closes stdout before the output is written
#: (`srlab ... | head`): 128 + SIGPIPE, as a shell reports a process that
#: SIGPIPE ended, apart from 0 (pass), 1 (violation) and 2 (bad input)
CLOSED_STDOUT = 141


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output has nowhere to go; pointing stdout at
        # devnull keeps the flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
