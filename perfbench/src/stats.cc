// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "stats.h"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common/vec_math.h"
#include "serve/json.h"

namespace perfbench {

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

namespace {

// The CPUID brand string (leaves 0x80000002..4), spaces trimmed.
std::string CpuBrand() {
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof(regs));
  }
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  const size_t last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
}

}  // namespace

Provenance CollectProvenance() {
  Provenance p;
  p.nproc = std::max(1u, std::thread::hardware_concurrency());
  p.cpu_model = CpuBrand();
  p.isa = pme::kernels::SimdModeName();
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.compiler = PERFBENCH_COMPILER;
  return p;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

JsonObject& JsonObject::Number(const std::string& key, double value) {
  fields_.emplace_back(key, pme::serve::JsonNumber(value));
  return *this;
}

JsonObject& JsonObject::Integer(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::String(const std::string& key,
                               const std::string& value) {
  fields_.emplace_back(key, "\"" + pme::serve::EscapeJson(value) + "\"");
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

std::string RenderMetrics(const std::vector<Metric>& metrics) {
  JsonObject object;
  for (const Metric& m : metrics) {
    object.Raw(m.name,
               JsonObject().Number("value", m.value).String("unit", m.unit)
                   .Render());
  }
  return object.Render();
}

}  // namespace perfbench
