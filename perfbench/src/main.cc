// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The benchmark binary. perfbench/run.py builds and runs it:
//
//   perfbench --workload warm-repeat --seed 7 --seconds 10 --trace 0
//             [--trace-out PATH] [--git-sha SHA] [--source-digest HEX]
//
// Human-readable lines start with '#'. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}, the
// metrics being the end-to-end set (--trace 0) or the per-layer set
// (--trace 1).

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/timer.h"

#include "stats.h"
#include "stream.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--git-sha SHA] "
               "[--source-digest HEX]\nworkloads:",
               why);
  for (const auto& spec : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string seed = "0";
  std::string seconds = "10";
  std::string trace = "0";
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = value;
    } else if (flag == "--seconds") {
      seconds = value;
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  auto spec = perfbench::FindWorkload(workload);
  if (!spec.ok()) return Usage(spec.status().ToString().c_str());
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");

  const perfbench::Provenance provenance = perfbench::CollectProvenance();
  if (provenance.build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 provenance.build_type.c_str());
    return 3;
  }

  perfbench::RunConfig config;
  config.spec = spec.value();
  config.seed = std::strtoull(seed.c_str(), nullptr, 10);
  config.seconds = std::strtod(seconds.c_str(), nullptr);
  config.trace = trace == "1";
  config.trace_path = trace_out;
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  pme::Timer generate_timer;
  auto inputs = perfbench::GenerateInputs(config.spec);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: generating %s inputs failed: %s\n",
                 workload.c_str(), inputs.status().ToString().c_str());
    return 1;
  }
  config.generate_seconds = generate_timer.ElapsedSeconds();

  // The workload runs in a child process, so that its peak resident set
  // starts from the generated inputs rather than from the generator's
  // own high-water mark (rule mining peaks well above what serving the
  // table needs). The parent only waits.
  malloc_trim(0);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t child = fork();
  if (child < 0) {
    std::perror("perfbench: fork");
    return 1;
  }
  if (child > 0) {
    int status = 0;
    while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  }
  // The child must not outlive a parent that was stopped.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) return 1;

  auto report = perfbench::RunWorkload(config, inputs.value());
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  const perfbench::RunReport& r = report.value();

  std::printf("# provenance %s\n",
              perfbench::JsonObject()
                  .String("workload", workload)
                  .Integer("seed", static_cast<long long>(config.seed))
                  .Number("seconds", config.seconds)
                  .Bool("trace", config.trace)
                  .Integer("nproc", static_cast<long long>(provenance.nproc))
                  .String("cpu_model", provenance.cpu_model)
                  .String("isa", provenance.isa)
                  .String("build_type", provenance.build_type)
                  .String("compiler", provenance.compiler)
                  .String("git_sha", git_sha)
                  .String("source_digest", source_digest)
                  .String("stream_digest", r.stream_digest)
                  .Render()
                  .c_str());
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n",
              perfbench::JsonObject()
                  .Bool("correct", r.correct)
                  .Integer("attempted", static_cast<long long>(r.attempted))
                  .Integer("failed", static_cast<long long>(r.failed))
                  .Raw("metrics", perfbench::RenderMetrics(r.metrics))
                  .Render()
                  .c_str());
  return 0;
}
