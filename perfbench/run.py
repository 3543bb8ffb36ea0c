#!/usr/bin/env python3
"""Build and run the closed-loop StStore benchmark for one workload.

    python3 perfbench/run.py --workload analyst_row --seed 1 --seconds 15 \
        --trace 0

Run from the root of a source checkout. Builds perfbench/ (which compiles
the stix library from src/) into .bench_build/perfbench, runs stix_perf,
and prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer ones; a traced run also leaves its
spans in .bench_build/perfbench/spans/. Build output and the driver's full
report go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no stix sources (src/CMakeLists.txt) next to perfbench/")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "stix_perf", "-j", "3"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "stix_perf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(out_dir, f"run-{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"stix_perf did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Keep the spans (one file per workload and seed), drop the rest.
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        if os.path.isdir(work_dir):
            for name in os.listdir(work_dir):
                if name.endswith(".tsv"):
                    os.replace(os.path.join(work_dir, name),
                               os.path.join(spans_dir, name))
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"stix_perf exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("stix_perf printed nothing")
    report = json.loads(lines[-1])
    print(json.dumps(report), file=sys.stderr)

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"stix_perf did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
