"""Regenerate perfbench/reference.json from the current privlp sources.

Run from the repository root: ``python3 perfbench/make_reference.py``.

The file stores, for each sweep workload, the draw-independent ``bound``
column of every LP instance the workload can run, and the draw-dependent
aggregates (mean_cop_percent, std_cop, mean_abs_gap) for seeds
0..REFERENCE_SEEDS-1. Regenerate it only in a change that means to move
outputs, and say in that change by how much they moved.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

import inputs
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEEDS = 16


def sweep_rows(workload) -> list[dict]:
    [op] = workload.run_pass(0)
    if op.outcome != 0:
        raise SystemExit(f"{workload.name} seed {workload.seed}: sweep returned {op.outcome!r}")
    return list(csv.DictReader(io.StringIO(workload.csv_text())))


def main() -> int:
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pl = workloads.import_privlp(ROOT / "src")
    reference = {}
    try:
        for cls in (workloads.GridSweep, workloads.LpSweep):
            entry = {"bound": {}, "rows": {}}
            for seed in range(REFERENCE_SEEDS):
                workload = cls(pl, seed, work, ROOT)
                rows = sweep_rows(workload)
                entry["bound"].setdefault(str(workload.instance), [r["bound"] for r in rows])
                entry["rows"][str(seed)] = [[r[c] for c in workloads.DRAW_COLUMNS] for r in rows]
                print(f"{cls.name} seed {seed}: bound {entry['bound'][str(workload.instance)]}",
                      file=sys.stderr)
            reference[cls.name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(map(str, range(inputs.LP_POOL_SIZE))) - set(reference["lp-sweep"]["bound"])
    if missing:
        raise SystemExit(f"REFERENCE_SEEDS leaves LP instances {sorted(missing)} without a bound")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
