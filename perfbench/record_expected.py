"""Regenerate ``expected.json``: the last CSV row of every run of every
workload at the committed seeds.

    python3 perfbench/record_expected.py

Run it only when a change is meant to alter trajectories, and say so in the
change.  The gate compares later runs against these rows within the
tolerances stated in ``gate.py``.
"""

import json
import os
import sys

import run
from workloads import HELD_OUT_SEED, TIER1_SEED, WORKLOADS


def main():
    run.pin_blas_threads()
    if run.import_package() is None:
        print("error: no importable fbsplit package under src/", file=sys.stderr)
        return 2
    import harness

    expected = {}
    work_dir = run.OUT_ROOT / f"record-{os.getpid()}"
    try:
        for workload in WORKLOADS.values():
            for seed in (TIER1_SEED, HELD_OUT_SEED):
                seed_dir = work_dir / f"{workload.name}-{seed}"
                seed_dir.mkdir(parents=True)
                rep = harness.Runner(workload, seed, seed_dir).rep()
                if not rep.outcome.ok:
                    print(f"error: {workload.name} seed {seed}: {rep.outcome.problems}",
                          file=sys.stderr)
                    return 1
                expected.setdefault(workload.name, {})[str(seed)] = rep.outcome.last_rows
    finally:
        run.remove_work_dir(work_dir)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
