"""Record the reference CSVs that the benchmark compares against at the
default seed.

Usage, from the repository root:

    python3 perfbench/record_reference.py

Runs every workload once at DEFAULT_SEED and copies each experiment's CSV
tables into perfbench/reference/<workload>/<tag>/. Run it only when a
change to the program is meant to change its results.
"""

import os
import shutil
import sys

from execute import REFERENCE_DIR, ROOT, execute
from workloads import DEFAULT_SEED, WORKLOADS, make_workload


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(os.path.dirname(REFERENCE_DIR), ".work", "record")
    shutil.rmtree(workdir, ignore_errors=True)
    for workload in WORKLOADS:
        experiments = make_workload(workload, DEFAULT_SEED)
        run_dir = os.path.join(workdir, workload)
        result = execute(experiments, run_dir)
        if result["failed"]:
            print("\n".join(result["problems"]), file=sys.stderr)
            return 1
        for exp in experiments:
            target = os.path.join(REFERENCE_DIR, workload, exp.tag)
            shutil.rmtree(target, ignore_errors=True)
            os.makedirs(target)
            for table in exp.tables:
                shutil.copy(os.path.join(run_dir, exp.tag, f"{table}.csv"), target)
        print(f"{workload}: recorded in {result['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
