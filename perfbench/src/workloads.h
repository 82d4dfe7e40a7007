// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// One run of one workload over its generated inputs: set up (timed),
// drive the program for the timed window, check every answer, and
// report either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). See perfbench/README.md for what each workload
// and metric is for.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats.h"
#include "stream.h"

namespace perfbench {

struct RunConfig {
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 10.0;
  /// false: end-to-end metrics, nothing traced. true: per-layer metrics
  /// from a traced run, plus the Chrome trace at `trace_path`.
  bool trace = false;
  std::string trace_path;
  /// How long GenerateInputs took (reported, not a metric).
  double generate_seconds = 0.0;
};

struct RunReport {
  size_t attempted = 0;
  size_t failed = 0;
  /// Every answer passed the check (failed == 0 and the references and
  /// residuals could be computed).
  bool correct = false;
  std::vector<Metric> metrics;
  /// Human-readable lines: error rate, sample counts, the workload's
  /// defining share, check margins.
  std::vector<std::string> notes;
  std::string stream_digest;
};

pme::Result<RunReport> RunWorkload(const RunConfig& config,
                                   const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
