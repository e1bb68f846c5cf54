"""Pin the reference reports that run.py grades against.

    python3 perfbench/pin_reference.py [WORKLOAD ...]

Runs one untraced pass of each workload (at full size, and at tiny size
where the workload has one) at the default seed and writes its report,
and the check that emits each row id, to ``reference/``.  Re-pin only when
a workload's sizes change, or when a change to srlab is meant to change
the report; say which in the change that does it.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for name in argv or workloads.NAMES:
        for tiny in [False] + [True] * workloads.has_tiny(name):
            _, doc = run.Runner(name, workloads.DEFAULT_SEED, tiny).spawn("pass")
            rows = doc["report"]["suite"]["results"]
            bad = sorted(doc["errors"]) + [r["check_id"] for r in rows if r["verdict"] == "fail"]
            if bad and not tiny:
                print(f"{name}: not pinned, failing checks {bad}", file=sys.stderr)
                return 1
            path = run.reference_path(name, tiny)
            ref = {"report": doc["report"], "row_checks": doc["row_checks"]}
            path.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n")
            print(f"pinned {path.name}: {len(rows)} rows, {len(bad)} failing")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
