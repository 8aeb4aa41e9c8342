"""Regenerate reference.json, the expected outputs of every pool entry.

    python3 perfbench/make_reference.py [WORKLOAD ...]

With no arguments every workload is regenerated (several minutes).  The
benchmark checks each run's outputs against this file within the tolerances
in worker.py, so regenerate it only with a change that is meant to alter
results, and say so in that change.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import worker


def main(argv) -> int:
    names = argv or sorted(worker.WORKLOADS)
    unknown = [name for name in names if name not in worker.WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    gm = worker.load_gmblasso()
    reference = {}
    if os.path.exists(worker.REFERENCE_PATH):
        with open(worker.REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    workdir = os.path.join(worker.ROOT, ".perfbench_out", f"reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in names:
            workload = worker.WORKLOADS[name]
            workload.prepare(gm, workdir)
            entries = {}
            for key in range(workload.pool_size):
                wall, result = workload.run(key)
                entries[str(key)] = workload.summary(result)
                # a reference entry must itself pass every check but the comparison
                failures = [m for m in workload.check(key, result, {name: entries})
                            if m is not None]
                if failures:
                    print(f"{name} {key}: {failures}", file=sys.stderr)
                    return 1
                print(f"{name} {key}: {wall:.2f} s", flush=True)
            reference[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference["environment"] = worker.environment()
    with open(worker.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
