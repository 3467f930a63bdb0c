#!/usr/bin/env python3
"""Write bench/reference.json: the results of every workload's operations on
the reference seed's inputs, which each benchmark run checks against.

    python3 bench/record_reference.py

Re-record only when a change is meant to alter the numbers, and say so.
"""

import json
import shutil
import sys

import run  # first, so BLAS threads are pinned before numpy loads
import workloads as wl


def main() -> int:
    reference = {}
    work_dir = run.OUT / "work-reference"
    run.OUT.mkdir(exist_ok=True)
    try:
        for workload in wl.WORKLOADS.values():
            wl.check_data(workload)
            package, ops, _setup_s, _read_s = run.set_up(
                workload, wl.REFERENCE_SEED, work_dir)
            checker = wl.Checker()
            reference[workload.name] = wl.reference_pass(
                workload, ops, checker, package.modules["harness"])
            if checker.failed:
                print("\n".join(checker.errors), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(wl.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
