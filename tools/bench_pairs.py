"""Run perfbench in alternating pairs on two checkouts and write a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_22.json

Each checkout runs ``perfbench/run.py --workload W --seed S --trace 0`` from
its own root, one process at a time.  On odd seeds the parent runs first, on
even seeds the change.  For every workload and end-to-end metric the file
holds both sides' runs, medians and quartiles, the number of pairs in which
the change read lower, and the relative change of the medians; then each
side's attempted and failed operations, the revisions and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

WORKLOADS = ("verify-core", "trig-sums", "cli-large")
METRICS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        print(f"{root}: {workload} seed {seed} is not correct", file=sys.stderr)
    return result


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def revision(root: str) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the change's checkout")
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, default=10, help="seeds 1..pairs")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all")
    args = p.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = list(range(1, args.pairs + 1))
    workloads = {}
    for workload in args.workload or WORKLOADS:
        results = {side: [] for side in sides}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                results[side].append(run_once(sides[side], workload, seed, args.seconds))
                wall = results[side][-1]["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.4f}", file=sys.stderr)
        entry = {}
        for metric, unit in METRICS.items():
            runs = {side: [r["metrics"][metric]["value"] for r in rs] for side, rs in results.items()}
            parent, change = summary(runs["parent"]), summary(runs["change"])
            entry[metric] = {
                "unit": unit, "parent": parent, "change": change,
                "change_lower_in_pairs": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
                "median_change": change["median"] / parent["median"] - 1.0,
            }
        entry["operations"] = {side: {"attempted": sum(r["attempted"] for r in rs),
                                      "failed": sum(r["failed"] for r in rs),
                                      "correct": all(r["correct"] for r in rs)}
                               for side, rs in results.items()}
        workloads[workload] = entry

    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S ({args.seconds:g} s per run, --trace 0), "
                   "each side from its own checkout",
        "pairs": {"seeds": seeds, "order": "parent first on odd seeds, change first on even seeds"},
        "parent": {"rev": revision(sides["parent"])},
        "change": {"rev": revision(sides["change"])},
        "machine": machine(),
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
