#!/usr/bin/env python3
"""Pin the final overlap of every workload and input case into references.json.

Runs one untraced unit per (workload, case) through the benchmark's own
runner, with every check except the reference comparison, and refuses to
pin a unit that fails one. Rerun only when a change is meant to alter the
trajectories; from the repository root:

    python3 perfbench/pin_references.py
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    pinned = {}
    for wl in run.WORKLOADS.values():
        pinned[wl.name] = []
        for case in range(run.CASES):
            workdir = os.path.join(run.WORK, f"pin-{wl.name}-{case}")
            try:
                unit = run.Runner(wl, case, workdir, reference=None).run_unit(False)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if unit.failures:
                print(f"{wl.name} case {case}: {unit.failures}", file=sys.stderr)
                return 1
            pinned[wl.name].append(unit.final_overlap)
            print(f"{wl.name} case {case}: {unit.final_overlap!r}")
    with open(run.REFERENCES, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
