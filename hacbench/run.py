#!/usr/bin/env python3
"""Runs one workload of HAC's benchmark and prints its result.

    python3 hacbench/run.py --workload browse --seed 7 --seconds 10 --trace 0
    python3 hacbench/run.py --smoke

Run from the repository root. The script builds the benchmark from source
(hacbench/CMakeLists.txt, into .bench_build/hacbench), runs the hacbench binary,
and prints the binary's summary followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with --trace 1
its per_layer metrics. The full report (sample counts, checks, host fingerprint) is
.bench_out/report-<workload>-<seed>-<trace>.json.

--smoke runs every workload briefly on a tiny library, in both modes, and checks that
each metric BENCHMARK.json names is emitted with its unit. It exits non-zero if not.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hacbench")
BINARY = os.path.join(BUILD_DIR, "hacbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DATA_DIR = os.path.join(ROOT, ".bench_data")
WORKLOADS = ("browse", "churn", "durable_ingest")
# A run's fixed work (set-ups, warm-up, cycle tails, checks, the traced run's ladder)
# plus its measured window.
RUN_TIMEOUT_BASE_S = 150


def fail(message):
    print("hacbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; fails with the log's tail on error."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("timed out: " + " ".join(cmd))
    if code != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail("failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("HAC sources (src/) not found next to hacbench/; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(ROOT, ".bench_build", "hacbench-build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 600)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "hacbench", "-j", jobs], log, 900)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, smoke):
    """Runs the binary once; returns its parsed report."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", OUT_DIR, "--data-dir", DATA_DIR]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_BASE_S + seconds)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s seed %d timed out" % (workload, seed))
    sys.stdout.write(output)
    if proc.returncode != 0:
        fail("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    path = os.path.join(OUT_DIR, "report-%s-%d-%d.json" % (workload, seed, 1 if trace else 0))
    with open(path) as f:
        return json.load(f)


def result(report, wanted):
    """The result object: the wanted metrics, checked for presence and unit."""
    have = {m["name"]: m for m in report["metrics"]}
    problems = []
    metrics = {}
    for spec in wanted:
        m = have.get(spec["name"])
        if m is None:
            problems.append("missing metric " + spec["name"])
        elif m["unit"] != spec["unit"]:
            problems.append("%s has unit %s, not %s" % (spec["name"], m["unit"], spec["unit"]))
        else:
            metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    for check in report["checks"]:
        if not check["ok"]:
            problems.append("check %s failed: %s" % (check["name"], check["detail"]))
    return problems, {"correct": bool(report["correct"]) and not problems,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}


def smoke():
    contract = load_contract()
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            report = run_workload(workload, 1, 1, trace, True)
            wanted = contract["per_layer" if trace else "end_to_end"]
            problems, _ = result(report, wanted)
            for p in problems:
                print("SMOKE %s trace=%d: %s" % (workload, trace, p))
            bad += len(problems)
            print("smoke %s trace=%d: %s" % (workload, trace, "ok" if not problems else "FAILED"))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.smoke:
        return smoke()
    contract = load_contract()
    report = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, False)
    problems, line = result(report, contract["per_layer" if args.trace else "end_to_end"])
    for p in problems:
        print("problem: " + p)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
