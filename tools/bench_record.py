"""Record the benchmark of this checkout in BENCH_<short-sha>.json.

    python3 tools/bench_record.py

Run from anywhere; it measures the checkout it lives in.  For each seed in
SEEDS and each workload in BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

(seeds outermost, so drift in host speed is spread over all workloads), reads
the JSON object on the last line of each run, and then times one tier-1 run
(the command in ROADMAP.md).  The file holds, per workload, the median and
quartiles of each gated end-to-end metric, failed and attempted summed over
the runs, the seeds, and the `env` line of the first run.

`gmblasso solve` at n = 1e5 is not recorded: perfbench has no workload for
it.  A record takes about ten minutes on a 2-core host.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 15
RUN_TIMEOUT_S = 300
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def bench_run(workload: str, seed: int):
    """One perfbench run: (its last-line JSON object, its env dict)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src " + " ".join(["python3", *TIER1[1:]]),
            "wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = [m["name"] for m in declared["end_to_end"]]

    runs = {w: [] for w in workloads}
    env = None
    for seed in SEEDS:
        for workload in workloads:
            result, run_env = bench_run(workload, seed)
            env = env or {k: v for k, v in run_env.items() if k != "seed"}
            runs[workload].append(result)
            print(f"{workload} seed {seed}: failed {result['failed']}", flush=True)

    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench", "tests")),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "env": env,
        "workloads": {
            w: {
                "failed": sum(r["failed"] for r in runs[w]),
                "attempted": sum(r["attempted"] for r in runs[w]),
                "metrics": {
                    m: {"unit": runs[w][0]["metrics"][m]["unit"],
                        **quartiles([r["metrics"][m]["value"] for r in runs[w]]),
                        "values": [r["metrics"][m]["value"] for r in runs[w]]}
                    for m in metrics
                },
            }
            for w in workloads
        },
        "tier1": tier1(),
    }
    path = os.path.join(ROOT, f"BENCH_{git('rev-parse', '--short=7', 'HEAD')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
