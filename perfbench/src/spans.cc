// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_tid{1};

// Innermost open span of this thread (the parent of the next one).
thread_local uint64_t t_open_span = 0;

uint32_t ThreadId() {
  thread_local const uint32_t tid = g_next_tid.fetch_add(1);
  return tid;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           uint64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.id = g_next_span_id.fetch_add(1);
  span_.parent = t_open_span;
  span_.request = request;
  span_.tid = ThreadId();
  t_open_span = span_.id;
  span_.start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.dur_ns = NowNs() - span_.start_ns;
  t_open_span = span_.parent;
  recorder_->Record(span_);
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::map<std::string, size_t> SpanRecorder::Counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, size_t> counts;
  for (const Span& s : spans_) ++counts[s.name];
  return counts;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t first = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) first = s.start_ns < first ? s.start_ns : first;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, static_cast<double>(s.start_ns - first) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
