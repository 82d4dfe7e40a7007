#!/usr/bin/env python3
# Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
# Licensed under the Apache License, Version 2.0.
"""Summarizes one set of benchmark runs, or compares two.

    python3 perfbench/compare.py RUNS_DIR            # spread of one set
    python3 perfbench/compare.py BASE_DIR NEW_DIR    # NEW against BASE

A set of runs is a directory of results saved by `run.py --save DIR`, with
any number of seeds per workload. For each workload and end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, checked against a third of the
metric's bound in BENCHMARK.json. Given two sets, it also prints the
change of each median and a verdict: "worse" when the new median is worse
than the base by more than the bound, else "within". Per-layer metrics
(traced runs) are listed as median deltas, without a verdict. The exit
code is 1 when a run reported correct=false or a metric got worse beyond
its bound.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(workload, trace): [result, ...]} for every saved run."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault((record["workload"], record["trace"]), []).append(
            record["result"])
    return runs


def summary(values):
    """(median, q1, q3, spread) of the values."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = load_runs(sys.argv[1])
    new = load_runs(sys.argv[2]) if len(sys.argv) == 3 else None
    failed = False

    for label, runs in (("base", base), ("new", new)):
        if runs is None:
            continue
        for (workload, trace), results in sorted(runs.items()):
            wrong = sum(1 for r in results if not r["correct"])
            errors = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print("%s %s trace=%d: %d runs, %d incorrect, error_rate %.3g"
                  % (label, workload, trace, len(results), wrong,
                     errors / attempted if attempted else 0.0))
            failed |= wrong > 0

    print()
    print("%-16s %-15s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = metric_values(base.get((workload, 0), []), name)
            if not values:
                continue
            median, q1, q3, spread = summary(values)
            verdict = "steady" if spread <= bound / 3 else (
                "noisy" if spread <= bound else "too noisy")
            if new is not None:
                new_values = metric_values(new.get((workload, 0), []), name)
                if new_values:
                    new_median = statistics.median(new_values)
                    worse = (new_median - median) / median
                    if metric["better"] == "higher":
                        worse = -worse
                    verdict = "%s, %+.1f%% %s" % (
                        verdict, 100 * (new_median / median - 1),
                        "worse" if worse > bound else "within")
                    failed |= worse > bound
            print("%-16s %-15s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%  %s" % (
                workload, name, median, q1, q3, 100 * spread, 100 * bound,
                verdict))

    print()
    for workload in workloads:
        base_traced = base.get((workload, 1), [])
        if not base_traced:
            continue
        new_traced = new.get((workload, 1), []) if new is not None else []
        print("per-layer, %s (medians of %d traced run(s))" % (
            workload, len(base_traced)))
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = metric_values(base_traced, name)
            if not values:
                continue
            median = statistics.median(values)
            line = "  %-36s %14.6g %s" % (name, median, metric["unit"])
            new_values = metric_values(new_traced, name)
            if new_values:
                new_median = statistics.median(new_values)
                line += "  -> %14.6g (%s)" % (
                    new_median,
                    "%+.1f%%" % (100 * (new_median / median - 1))
                    if median else "n/a")
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
