// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Sample statistics, host provenance and result rendering of the
// repository benchmark. Every percentile the benchmark reports is
// computed here from its own raw samples — never read back from the
// program's metrics::Histogram, whose bucket-interpolated quantiles are
// not clamped to the observed [min, max].

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the ceil(q·n)-th smallest sample (1-based),
/// so the result is always one of the samples. q <= 0 gives the minimum,
/// q >= 1 the maximum. NaN for an empty sample set.
double NearestRank(std::vector<double> samples, double q);

/// Arithmetic mean; 0 for an empty sample set.
double Mean(const std::vector<double>& samples);

/// Where and how a result was measured.
struct Provenance {
  size_t nproc = 0;
  std::string cpu_model;
  std::string isa;         // kernels::SimdModeName() of the active tier
  std::string build_type;  // CMAKE_BUILD_TYPE the benchmark was built with
  std::string compiler;
};
Provenance CollectProvenance();

/// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMb();

/// One reported metric: name, value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered single-line JSON object writer (keys are plain identifiers;
/// string values are escaped).
class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value);
  JsonObject& Integer(const std::string& key, long long value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& String(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// {"name": {"value": v, "unit": u}, ...}
std::string RenderMetrics(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
