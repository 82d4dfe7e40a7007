// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The benchmark's own span recorder. In a traced run the benchmark
// wraps each call it makes into a public function of the program
// (ParseKnowledge, CompileKnowledge, ComponentAnalysis::Extend,
// AnalysisSession::Run, ServeClient::Call, TableArtifact::Build,
// TermIndex::Build, DualFunction::Evaluate) in a span: name, start,
// duration, thread, the enclosing span and the request it belongs to.
// Spans stay in memory and are written out as one Chrome trace when
// the run ends. The program's own tracing is left at its defaults.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // request the span serves (0 = none)
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    uint32_t tid = 0;
  };

  /// Records the lifetime of a scope as one span; nests under the
  /// innermost open Scope of the same thread. A null recorder makes
  /// the scope a no-op, so untraced runs pay nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

  /// Span count per name.
  std::map<std::string, size_t> Counts() const;

  /// Writes every span as a Chrome trace-event JSON file
  /// (chrome://tracing, Perfetto). False when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Record(const Span& span);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
