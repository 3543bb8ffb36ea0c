#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 --first-seed 101 \
        --out perfbench/steadiness.json [--workloads analyst_row,fleet_live] \
        [--compare earlier.json]

Runs perfbench/run.py --trace 0 once per seed for each workload (one seed
per run, consecutive seeds from --first-seed), then reports per metric the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
steady when its spread is below a third of its BENCHMARK.json bound. Each
run's host CPU steal (the mean over its kept rounds) and host probe times
(see stix_perf) are stored next to its values. With --compare, each median is also
compared with the same metric's median in an earlier output of this tool:
the sets agree when no median moved by more than its bound.
Exits 1 when a spread or a comparison is out of line. Run from the root of
a source checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    # run.py echoes the full stix_perf report, per-round detail included,
    # to stderr.
    host = None
    for line in out.stderr.splitlines():
        if line.startswith('{"workload"'):
            full = json.loads(line)
            kept = [r for r in full["rounds"] if r["kept"]]
            host = (round(statistics.mean(r["steal_pct"] for r in kept), 2),
                    round(full["probe_alu_ms"], 1),
                    round(full["probe_mem_ms"], 1))
    return result, host


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    report = {"runs": args.runs, "first_seed": args.first_seed,
              "seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        steal, alu, mem = [], [], []
        for i in range(args.runs):
            r, host = run_once(w, args.first_seed + i, spec["run_seconds"])
            if not r["correct"] or r["failed"] != 0:
                print(f"{w}: seed {args.first_seed + i} failed its checks",
                      file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
            steal.append(host[0])
            alu.append(host[1])
            mem.append(host[2])
        rows = {"steal_pct": steal, "probe_alu_ms": alu, "probe_mem_ms": mem}
        print(f"{w:15s} host steal per run (%): {steal}", file=sys.stderr)
        print(f"{w:15s} host ALU probe per run (ms): {alu}", file=sys.stderr)
        print(f"{w:15s} host memory probe per run (ms): {mem}",
              file=sys.stderr)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[name] / 3
            steady = steady and ok
            row = {"median": med, "q1": q1, "q3": q3,
                   "spread": round(spread, 4), "bound": bounds[name],
                   "steady": ok, "values": vs}
            line = (f"{w:15s} {name:24s} median={med:12.4f} "
                    f"spread={spread:7.2%} bound={bounds[name]:.2f}"
                    f"{'' if ok else '  <-- above bound/3'}")
            before = earlier.get(w, {}).get(name)
            if before is not None:
                change = med / before["median"] - 1
                agrees = abs(change) <= bounds[name]
                steady = steady and agrees
                row["change_vs_compare"] = round(change, 4)
                row["agrees"] = agrees
                line += (f"  vs earlier {change:+7.2%}"
                         f"{'' if agrees else '  <-- beyond bound'}")
            rows[name] = row
            print(line, file=sys.stderr)
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
