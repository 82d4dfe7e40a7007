#!/usr/bin/env python3
# Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
# Licensed under the Apache License, Version 2.0.
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload warm-repeat --seed 1 --seconds 10 --trace 0
        [--save DIR]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root: a Release build of the program's libraries plus the
benchmark binary from perfbench/src. Its human-readable lines (starting with
'#') are passed through; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics and
writes a Chrome trace next to the build. --save DIR also stores the result
with its provenance as DIR/<workload>-trace<t>-seed<n>.json, the input of
perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build step failed: %s\n%s" % (" ".join(step), tail))
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the program's sources and build file: identifies the
    code under test even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    expected = expected_metrics(trace)
    if set(result["metrics"]) != set(expected):
        return "metrics %s, expected %s" % (
            sorted(result["metrics"]), sorted(expected))
    for name, unit in expected.items():
        if result["metrics"][name].get("unit") != unit:
            return "metric %s has unit %r, expected %r" % (
                name, result["metrics"][name].get("unit"), unit)
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--save", help="directory to store the result in")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h")):
        fail("no program sources next to perfbench/ (expected src/)", 2)
    out = build_dir()
    binary = build(out)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # The binary forks the workload into a child; its own process group
    # lets a timeout stop both.
    runner = subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, stderr = runner.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.communicate()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = stdout.splitlines()
    if runner.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        fail("benchmark binary exited with %d" % runner.returncode,
             runner.returncode or 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1][:200])
    problem = validate(result, args.trace)
    if problem:
        fail("malformed result: " + problem)

    if args.save:
        provenance = {}
        for line in lines:
            if line.startswith("# provenance "):
                provenance = json.loads(line[len("# provenance "):])
        os.makedirs(args.save, exist_ok=True)
        path = os.path.join(args.save, "%s-trace%d-seed%d.json" % (
            args.workload, args.trace, args.seed))
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "provenance": provenance,
                       "result": result}, f, indent=1)
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
