"""Record the benchmark of this checkout in BENCH_<short-sha>.json.

    python3 tools/bench_record.py
    python3 tools/bench_record.py --parent DIR

Run from anywhere; it measures the checkout it lives in.  For each seed in
SEEDS and each workload in BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

(seeds outermost, so drift in host speed is spread over all workloads), reads
the JSON object on the last line of each run, and then times one tier-1 run
(the command in ROADMAP.md).  The file holds, per workload, the median and
quartiles of each gated end-to-end metric, failed and attempted summed over
the runs, the seeds, and the `env` line of the first run.

With --parent DIR, DIR is a git checkout of the commit to compare against,
for example `git clone -q . DIR && git -C DIR checkout -q HEAD~1`.  Give the
two checkouts absolute paths of equal length, such as `/src/gm-this` beside
`/src/gm-base` (clones of each commit): a run may depend on the length of the
path it runs in, and a paired comparison should not measure that.  The
record names both roots, and a warning goes to stderr when their lengths
differ.  Each
(seed, workload) run is then made in both checkouts back to back, the parent
first on odd seeds and this checkout first on even ones, and so is the tier-1
run.  Both records share the host's state at every step, so the comparison
does not measure a change of host speed between two recording sessions.  The
file adds the parent's record under "parent" and, per workload and metric,
the pairs: the ratio this/parent of each seed and how many pairs favour this
checkout.

`gmblasso solve` at n = 1e5 is not recorded: perfbench has no workload for
it.  A record takes about twenty minutes on a 2-core host, twice that with
--parent.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(1, 11))   # ten pairs: the fewest a gain may rest on
SECONDS = 15
RUN_TIMEOUT_S = 300
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def git(root: str, *args) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def bench_run(root: str, workload: str, seed: int):
    """One perfbench run in checkout `root`: (its last-line JSON object, its
    env dict)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, text=True, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with code "
                           f"{proc.returncode}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def tier1(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src " + " ".join(["python3", *TIER1[1:]]),
            "wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def summarize(runs: dict, metrics) -> dict:
    """Per workload: failed, attempted and each metric's quartiles and values."""
    return {
        w: {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {
                m: {"unit": results[0]["metrics"][m]["unit"],
                    **quartiles([r["metrics"][m]["value"] for r in results]),
                    "values": [r["metrics"][m]["value"] for r in results]}
                for m in metrics
            },
        }
        for w, results in runs.items()
    }


def pairs(runs: dict, parent_runs: dict, better: dict) -> dict:
    """Per workload and metric: this/parent per seed, and how many pairs
    favour this checkout in the metric's better direction."""
    out = {}
    for w, results in runs.items():
        out[w] = {}
        for m, direction in better.items():
            mine = [r["metrics"][m]["value"] for r in results]
            theirs = [r["metrics"][m]["value"] for r in parent_runs[w]]
            wins = sum((a < b) if direction == "lower" else (a > b)
                       for a, b in zip(mine, theirs))
            ratios = [a / b if b else None for a, b in zip(mine, theirs)]
            out[w][m] = {"better": direction, "pairs_favouring_this": wins,
                         "pairs": len(mine), "ratios": ratios}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git checkout of the commit to compare "
                        "against, run interleaved with this one")
    args = parser.parse_args(argv)
    parent = os.path.abspath(args.parent) if args.parent else None
    if parent is not None and len(parent) != len(ROOT):
        print(f"warning: checkout paths differ in length: {ROOT} ({len(ROOT)}) "
              f"against {parent} ({len(parent)})", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}

    roots = [ROOT] if parent is None else [ROOT, parent]
    runs = {root: {w: [] for w in workloads} for root in roots}
    env = None
    for seed in SEEDS:
        # the parent runs first on odd seeds, so neither side always runs
        # right after the other
        order = roots[::-1] if seed % 2 else roots
        for workload in workloads:
            for root in order:
                result, run_env = bench_run(root, workload, seed)
                if root == ROOT:
                    env = env or {k: v for k, v in run_env.items() if k != "seed"}
                runs[root][workload].append(result)
                side = "parent" if root == parent else "this"
                print(f"{workload} seed {seed} {side}: failed {result['failed']}",
                      flush=True)
    tier1_runs = {root: tier1(root) for root in roots}

    record = {
        "commit": git(ROOT, "rev-parse", "HEAD"),
        "root": ROOT,
        "dirty": bool(git(ROOT, "status", "--porcelain", "--", "src", "perfbench",
                          "tests")),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "env": env,
        "workloads": summarize(runs[ROOT], better),
        "tier1": tier1_runs[ROOT],
    }
    if parent is not None:
        record["parent"] = {
            "commit": git(parent, "rev-parse", "HEAD"),
            "root": parent,
            "dirty": bool(git(parent, "status", "--porcelain", "--", "src",
                              "perfbench", "tests")),
            "workloads": summarize(runs[parent], better),
            "tier1": tier1_runs[parent],
        }
        record["pairs"] = pairs(runs[ROOT], runs[parent], better)
    path = os.path.join(ROOT, f"BENCH_{git(ROOT, 'rev-parse', '--short=7', 'HEAD')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
