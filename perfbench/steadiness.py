#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --workloads paper_study,daemon_uptime \\
        --seeds 1,2,3,4,5 --trace 0 [--out perfbench/results/NAME.json]

Runs perfbench/run.py once per (workload, seed) from the checkout root,
with BENCHMARK.json's run_seconds, and prints per metric the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. With --out, every run's metrics and the summary are written
as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {"seed": seed, "wall_s": wall,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"run_seconds": bench["run_seconds"], "seeds": seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], args.trace)
                for s in seeds]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            entry = {"median": statistics.median(values),
                     "min": min(values), "max": max(values)}
            if len(values) >= 2 and entry["median"]:
                entry["spread"] = spread(values)
            if bounds.get(name) is not None:
                entry["bound"] = bounds[name]
            summary[name] = entry
            print(f"{workload:14s} {name:36s} median {entry['median']:<12.6g} "
                  f"spread {entry.get('spread', float('nan')):6.3f} "
                  f"bound {entry.get('bound', '-')}")
        walls = [r["wall_s"] for r in runs]
        print(f"{workload:14s} run wall: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
