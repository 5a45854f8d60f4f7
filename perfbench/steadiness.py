#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

usage: python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                       [--trace 0|1] [--out FILE]

Run from the repository root. For every workload (default: all in
BENCHMARK.json) it runs perfbench/run.py once per seed, one process at
a time, with BENCHMARK.json's run_seconds, and prints per metric the
median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the metric's bound. --out writes
the same figures as JSON; perfbench/baseline.json was made this way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    seeds = seed_list(args.seeds)

    report = {"seconds": bench["run_seconds"], "seeds": seeds,
              "trace": int(args.trace), "workloads": {}}
    ok = True
    for name in names:
        values = {}
        units = {}
        runs = []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  universal_newlines=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d failed (exit %d)" %
                      (name, seed, proc.returncode))
                ok = False
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
            for line in lines:
                if "of each timed run" in line:
                    runs.append([float(x) for x in line.split(":")[1].split()])
        rows = {}
        print("%s (%d seeds)" % (name, len(seeds)))
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"unit": units[metric], "median": med, "q1": q1,
                            "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(metric)
            flag = ""
            if bound and metric != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print("  %-42s %14.6g %-8s spread %.4f (bound %s)%s" %
                  (metric, med, units[metric], spread, bound, flag))
        rows["host_us_per_req_each_run"] = runs
        report["workloads"][name] = rows
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
