// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "checks.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "constraints/bk_compiler.h"
#include "constraints/component_analysis.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "core/analysis_session.h"
#include "core/table_artifact.h"
#include "knowledge/parser.h"
#include "maxent/dual.h"
#include "maxent/problem.h"
#include "maxent/solution_cache.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "spans.h"

namespace perfbench {

namespace {

using pme::serve::JsonValue;

// Set-ups per run; setup_s is their median.
constexpr size_t kSetupRepeats = 21;
// Closed-loop client connections of the serve workloads.
constexpr size_t kClients = 4;
// edit-resolve requests re-analysed by the answer check (every request
// is a distinct knowledge set, so the check samples them evenly).
constexpr size_t kEditChecks = 24;
// Requests replayed stage by stage in a traced run of a serve workload.
constexpr size_t kReplayRequests = 128;
// Repeats of the TermIndex builds and the dual evaluation (median).
constexpr size_t kBuildRepeats = 5;
constexpr size_t kDualEvalRepeats = 15;

std::string Printf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));
std::string Printf(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

size_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(const std::vector<double>& samples) {
  return NearestRank(samples, 0.5);
}

bool IsServe(WorkloadKind kind) { return kind != WorkloadKind::kKnowledgeSweep; }

// ------------------------------------------------------------- set-up

struct Setup {
  std::shared_ptr<const pme::core::TableArtifact> artifact;
  std::unique_ptr<pme::serve::AnalysisServer> server;
  std::vector<double> setup_s;  // table in memory → ready to answer
  std::vector<double> build_s;  // TableArtifact::Build alone
};

// Builds the artifact (and starts a server at its defaults) kSetupRepeats
// times, keeping the last. The artifact uses every core for its
// TermIndex, as `pme serve` does at its default --threads=0.
pme::Result<Setup> SetUp(const Inputs& inputs, bool serve,
                         SpanRecorder* spans) {
  const auto& bz = inputs.bucketization;
  std::shared_ptr<const pme::anonymize::BucketizedTable> table(bz, &bz->table);
  std::shared_ptr<const pme::data::TupleEncoder> encoder(bz, &bz->qi_encoder);
  pme::core::TableArtifactOptions artifact_options;
  artifact_options.threads = 0;

  Setup setup;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    setup.server.reset();
    setup.artifact.reset();
    pme::Timer timer;
    {
      SpanRecorder::Scope span(spans, "TableArtifact::Build");
      PME_ASSIGN_OR_RETURN(setup.artifact,
                           pme::core::TableArtifact::Build(table, encoder,
                                                           artifact_options));
    }
    setup.build_s.push_back(timer.ElapsedSeconds());
    if (serve) {
      SpanRecorder::Scope span(spans, "AnalysisServer::Start");
      setup.server = std::make_unique<pme::serve::AnalysisServer>(
          setup.artifact, inputs.dataset, pme::serve::ServeOptions{});
      PME_RETURN_IF_ERROR(setup.server->Start());
    }
    setup.setup_s.push_back(timer.ElapsedSeconds());
  }
  return setup;
}

// The options requests run with: what AnalysisServer installs for the
// serve workloads (shared pool, shared solution cache, warm mode), and
// for the in-process sweep the solver on every core with the cache off.
pme::core::AnalysisOptions SessionOptions(WorkloadKind kind,
                                          pme::ThreadPool* pool,
                                          pme::maxent::SolutionCache* cache) {
  pme::core::AnalysisOptions options;
  if (IsServe(kind)) {
    options.solver_options.pool = pool;
    options.solver_options.solution_cache = cache;
    options.solver_options.cache_mode = pme::maxent::CacheMode::kWarm;
  } else {
    options.solver_options.threads = Nproc();
    options.solver_options.cache_mode = pme::maxent::CacheMode::kOff;
  }
  return options;
}

// ----------------------------------------------------------- outcomes

// One answered (or failed) request of a timed window.
struct Outcome {
  size_t request = 0;
  double done_s = 0.0;     // completion, seconds into the window
  double latency_s = 0.0;  // client-observed
  double server_s = 0.0;   // the response's total_seconds (serve only)
  bool ok = false;         // answered, converged, not degraded
  std::string error;
  Answer answer;
  double iterations = 0.0;
  double exact_hits = 0.0;
  double warm_hits = 0.0;  // a subset of the misses
  double misses = 0.0;     // blocks solved (cold or warm-started)
  double blocks = 0.0;     // coupled blocks
  bool monolithic = false;
};

void FillFromAnalysis(const pme::core::Analysis& analysis, Outcome* out) {
  const auto& solver = analysis.solver;
  out->answer = AnswerOf(analysis);
  out->iterations = static_cast<double>(solver.iterations);
  out->exact_hits = static_cast<double>(solver.cache_exact_hits);
  out->warm_hits = static_cast<double>(solver.cache_warm_hits);
  out->misses = static_cast<double>(solver.cache_misses);
  out->blocks =
      static_cast<double>(analysis.decomposition.num_coupled_components);
  out->monolithic = solver.used_monolithic_fallback;
  if (!solver.converged) {
    out->error = "unconverged";
  } else if (solver.degraded) {
    out->error = "degraded";
  } else if (solver.termination != pme::StatusCode::kOk) {
    out->error = "terminated early";
  } else {
    out->ok = true;
  }
}

// Decodes one analyze response line into `out`.
void FillFromResponse(const std::string& line, Outcome* out) {
  auto doc = pme::serve::ParseJson(line);
  if (!doc.ok()) {
    out->error = "unparseable response: " + doc.status().ToString();
    return;
  }
  const JsonValue& v = doc.value();
  const auto flag = [&v](const char* key) {
    const JsonValue* f = v.Find(key);
    return f != nullptr && f->is_bool() && f->bool_value;
  };
  const auto number = [&v](const char* key) {
    const JsonValue* f = v.Find(key);
    return f != nullptr && f->is_number() ? f->number_value : 0.0;
  };
  if (!flag("ok")) {
    const JsonValue* e = v.Find("error");
    out->error = e != nullptr && e->is_string() ? e->string_value : "ok:false";
    return;
  }
  auto answer = AnswerOf(v);
  if (!answer.ok()) {
    out->error = answer.status().ToString();
    return;
  }
  out->answer = answer.value();
  out->server_s = number("total_seconds");
  out->iterations = number("iterations");
  out->exact_hits = number("cache_exact_hits");
  out->warm_hits = number("cache_warm_hits");
  out->misses = number("cache_misses");
  // Every coupled block is an exact hit or a miss; warm starts are the
  // misses that found a cached dual.
  out->blocks = out->exact_hits + out->misses;
  const JsonValue* termination = v.Find("termination");
  if (!flag("converged")) {
    out->error = "unconverged";
  } else if (flag("degraded")) {
    out->error = "degraded";
  } else if (termination == nullptr || !termination->is_string() ||
             termination->string_value != "ok") {
    out->error = "terminated early";
  } else {
    out->ok = true;
  }
}

// ------------------------------------------------------ serve driving

// One analyze request line; `cache` is the mode to ask for, or null for
// the server's default.
std::string RequestLine(const std::string& id,
                        const std::vector<std::string>& knowledge,
                        const char* cache) {
  std::string line = "{\"id\":\"" + id + "\",\"knowledge\":[";
  for (size_t k = 0; k < knowledge.size(); ++k) {
    if (k > 0) line += ",";
    line += "\"" + pme::serve::EscapeJson(knowledge[k]) + "\"";
  }
  line += "]";
  if (cache != nullptr) line += std::string(",\"cache\":\"") + cache + "\"";
  return line + "}";
}

struct Window {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  std::vector<double> round_s;  // knowledge-sweep: one entry per round
};

// Closed loop: `clients` connections, each sending its next request only
// after the previous reply, until `seconds` have passed (or `limit`
// requests, when nonzero). Request indices come from `next`, so every
// request of the stream is sent at most once. Replies are decoded after
// the window so the clients spend their time waiting on the server.
pme::Result<Window> ClosedLoop(uint16_t port, const RequestStream& stream,
                               const char* cache, size_t clients,
                               double seconds, size_t limit,
                               std::atomic<size_t>* next, SpanRecorder* spans) {
  std::vector<pme::serve::ServeClient> connections;
  for (size_t c = 0; c < clients; ++c) {
    PME_ASSIGN_OR_RETURN(auto client,
                         pme::serve::ServeClient::Connect("127.0.0.1", port));
    connections.push_back(std::move(client));
  }
  struct Raw {
    size_t request;
    uint64_t done_ns;
    double latency_s;
    bool sent;
    std::string reply;
  };
  std::vector<std::vector<Raw>> raw(clients);
  const size_t first = next->load();
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<uint64_t> finished(clients, start);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < end) {
        const size_t i = next->fetch_add(1);
        if (limit != 0 && i >= first + limit) break;
        const std::string line =
            RequestLine(std::to_string(i), stream.Knowledge(i), cache);
        const uint64_t t0 = NowNs();
        auto reply = [&] {
          SpanRecorder::Scope span(spans, "ServeClient::Call", i + 1);
          return connections[c].Call(line);
        }();
        const uint64_t done = NowNs();
        const double latency = static_cast<double>(done - t0) * 1e-9;
        const bool sent = reply.ok();
        raw[c].push_back({i, done, latency, sent,
                          sent ? std::move(reply).value()
                               : reply.status().ToString()});
        if (!sent) break;  // the connection is gone
      }
      finished[c] = NowNs();
    });
  }
  for (auto& t : threads) t.join();

  Window window;
  window.wall_s =
      static_cast<double>(*std::max_element(finished.begin(), finished.end()) -
                          start) * 1e-9;
  for (auto& per_client : raw) {
    for (Raw& r : per_client) {
      Outcome o;
      o.request = r.request;
      o.done_s = static_cast<double>(r.done_ns - start) * 1e-9;
      o.latency_s = r.latency_s;
      if (r.sent) {
        FillFromResponse(r.reply, &o);
      } else {
        o.error = "transport: " + r.reply;
      }
      window.outcomes.push_back(std::move(o));
    }
  }
  std::sort(window.outcomes.begin(), window.outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.request < b.request;
            });
  return window;
}

// Sends one request per line in `lines` on a fresh connection, untimed.
pme::Status WarmUp(uint16_t port, const std::vector<std::string>& lines) {
  PME_ASSIGN_OR_RETURN(auto client,
                       pme::serve::ServeClient::Connect("127.0.0.1", port));
  for (const std::string& line : lines) {
    PME_ASSIGN_OR_RETURN(auto reply, client.Call(line));
    Outcome o;
    FillFromResponse(reply, &o);
    if (!o.ok) return pme::Status::Internal("warm-up request: " + o.error);
  }
  return pme::Status::Ok();
}

// count/sum of pool.queue_wait_seconds and the cache.evictions counter,
// read through the `stats` verb. Only count, sum, min and max of a
// registry histogram are exact, so nothing else is read.
struct ServerCensus {
  double queue_wait_count = 0.0;
  double queue_wait_sum = 0.0;
  double evictions = 0.0;
};

pme::Result<ServerCensus> QueryCensus(uint16_t port) {
  PME_ASSIGN_OR_RETURN(auto client,
                       pme::serve::ServeClient::Connect("127.0.0.1", port));
  PME_ASSIGN_OR_RETURN(auto reply,
                       client.Call(R"({"id":"census","verb":"stats"})"));
  PME_ASSIGN_OR_RETURN(auto doc, pme::serve::ParseJson(reply));
  const JsonValue* stats = doc.Find("stats");
  if (stats == nullptr) return pme::Status::Internal("stats reply lacks stats");
  const auto number = [](const JsonValue* object, const char* key) {
    const JsonValue* v = object != nullptr ? object->Find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->number_value : 0.0;
  };
  const JsonValue* histograms = stats->Find("histograms");
  const JsonValue* wait = histograms != nullptr
                              ? histograms->Find("pool.queue_wait_seconds")
                              : nullptr;
  ServerCensus census;
  census.queue_wait_count = number(wait, "count");
  census.queue_wait_sum = number(wait, "sum");
  census.evictions = number(stats->Find("counters"), "cache.evictions");
  return census;
}

// The same census read in-process from the global registry.
ServerCensus LocalCensus() {
  auto& registry = pme::metrics::Registry::Global();
  const auto wait =
      registry.GetHistogram("pool.queue_wait_seconds").TakeSnapshot();
  ServerCensus census;
  census.queue_wait_count = static_cast<double>(wait.count);
  census.queue_wait_sum = wait.sum;
  census.evictions =
      static_cast<double>(registry.CounterValue("cache.evictions"));
  return census;
}

// ------------------------------------------------- in-process driving

// Runs whole sweep rounds (one analysis per K) until `seconds` have
// passed, at least one round. Request indices continue from `*next`.
Window SweepRounds(const pme::core::AnalysisSession& session,
                   const Inputs& inputs, const RequestStream& stream,
                   double seconds, size_t* next, SpanRecorder* spans) {
  const size_t period = stream.period();
  std::vector<std::string> texts;
  for (size_t i = 0; i < period; ++i) {
    texts.push_back(JoinLines(stream.Knowledge(i)));
  }
  pme::knowledge::ParserContext context;
  context.dataset = inputs.dataset.get();
  Window window;
  pme::Timer wall;
  do {
    const uint64_t round_start = NowNs();
    for (size_t k = 0; k < std::size(RequestStream::kSweepK); ++k) {
      Outcome o;
      o.request = (*next)++;
      const uint64_t t0 = NowNs();
      pme::knowledge::KnowledgeBase kb;
      pme::Status parsed;
      {
        SpanRecorder::Scope span(spans, "ParseKnowledge", o.request + 1);
        parsed = pme::knowledge::ParseKnowledge(texts[o.request % period],
                                                context, &kb);
      }
      if (parsed.ok()) {
        SpanRecorder::Scope span(spans, "AnalysisSession::Run", o.request + 1);
        auto analysis = session.Run(kb);
        if (analysis.ok()) {
          FillFromAnalysis(analysis.value(), &o);
        } else {
          o.error = analysis.status().ToString();
        }
      } else {
        o.error = parsed.ToString();
      }
      o.latency_s = static_cast<double>(NowNs() - t0) * 1e-9;
      o.done_s = wall.ElapsedSeconds();
      window.outcomes.push_back(std::move(o));
    }
    window.round_s.push_back(static_cast<double>(NowNs() - round_start) *
                             1e-9);
  } while (wall.ElapsedSeconds() < seconds);
  window.wall_s = wall.ElapsedSeconds();
  return window;
}

// Per-analysis stage costs of a stage-by-stage replay.
struct StageSamples {
  std::vector<double> parse_s, compile_s, extend_s, session_s, solve_s,
      non_solve_s, coupled_vars;
  size_t monolithic = 0;
  size_t failed = 0;
  std::string first_error;
};

// Replays requests of the stream in-process on `artifact`, timing each
// public stage call separately: ParseKnowledge, CompileKnowledge,
// ComponentAnalysis::Extend (the session repeats the last two inside
// Run; here they are called on their own to time them), then
// AnalysisSession::Run. The session is configured like the workload's
// and its cache is brought to the state the timed window starts from.
pme::Result<StageSamples> ReplayStages(
    WorkloadKind kind, const Inputs& inputs,
    const std::shared_ptr<const pme::core::TableArtifact>& artifact,
    const RequestStream& stream, SpanRecorder* spans) {
  pme::ThreadPool pool(0);
  pme::maxent::SolutionCache cache;
  const pme::core::AnalysisSession session(
      artifact, SessionOptions(kind, &pool, &cache));
  pme::knowledge::ParserContext context;
  context.dataset = inputs.dataset.get();
  const auto parse = [&](const std::vector<std::string>& knowledge)
      -> pme::Result<pme::knowledge::KnowledgeBase> {
    pme::knowledge::KnowledgeBase kb;
    PME_RETURN_IF_ERROR(
        pme::knowledge::ParseKnowledge(JoinLines(knowledge), context, &kb));
    return kb;
  };

  std::vector<std::vector<std::string>> warm;
  size_t replayed = kReplayRequests;
  switch (kind) {
    case WorkloadKind::kWarmRepeat:
      for (size_t i = 0; i < stream.period(); ++i) {
        warm.push_back(stream.Knowledge(i));
      }
      break;
    case WorkloadKind::kEditResolve:
      warm.push_back(stream.statements());
      break;
    case WorkloadKind::kKnowledgeSweep:
      replayed = 2 * std::size(RequestStream::kSweepK);
      break;
  }
  for (const auto& knowledge : warm) {
    PME_ASSIGN_OR_RETURN(auto kb, parse(knowledge));
    PME_RETURN_IF_ERROR(session.Run(kb).status());
  }

  const auto& index = artifact->index();
  StageSamples out;
  for (size_t i = 0; i < replayed; ++i) {
    const std::string text = JoinLines(stream.Knowledge(i));
    pme::knowledge::KnowledgeBase kb;
    pme::Timer timer;
    {
      SpanRecorder::Scope span(spans, "ParseKnowledge", i + 1);
      PME_RETURN_IF_ERROR(pme::knowledge::ParseKnowledge(text, context, &kb));
    }
    out.parse_s.push_back(timer.ElapsedSeconds());
    timer.Reset();
    pme::Result<pme::constraints::CompiledKnowledge> compiled = [&] {
      SpanRecorder::Scope span(spans, "CompileKnowledge", i + 1);
      return pme::constraints::CompileKnowledge(kb, artifact->table(), index,
                                                artifact->qi_encoder());
    }();
    PME_RETURN_IF_ERROR(compiled.status());
    out.compile_s.push_back(timer.ElapsedSeconds());
    timer.Reset();
    const pme::constraints::ComponentAnalysis components = [&] {
      SpanRecorder::Scope span(spans, "ComponentAnalysis::Extend", i + 1);
      return pme::constraints::ComponentAnalysis::Extend(
          artifact->base_components(), index, compiled.value().constraints);
    }();
    out.extend_s.push_back(timer.ElapsedSeconds());
    double coupled = 0.0;
    for (const auto& component : components.components()) {
      if (component.coupled) {
        coupled += static_cast<double>(component.num_variables);
      }
    }
    out.coupled_vars.push_back(coupled);
    timer.Reset();
    auto analysis = [&] {
      SpanRecorder::Scope span(spans, "AnalysisSession::Run", i + 1);
      return session.Run(kb);
    }();
    const double session_s = timer.ElapsedSeconds();
    Outcome o;
    if (analysis.ok()) {
      FillFromAnalysis(analysis.value(), &o);
    } else {
      o.error = analysis.status().ToString();
    }
    if (!o.ok) {
      if (out.failed++ == 0) {
        out.first_error = Printf("request %zu: %s", i, o.error.c_str());
      }
      continue;
    }
    out.session_s.push_back(session_s);
    out.solve_s.push_back(analysis.value().solver.seconds);
    out.non_solve_s.push_back(session_s - analysis.value().solver.seconds);
    if (o.monolithic) ++out.monolithic;
  }
  return out;
}

// Median seconds of TermIndex::Build over the table at `threads`.
double TermIndexSeconds(const Inputs& inputs, size_t threads,
                        SpanRecorder* spans) {
  std::vector<double> seconds;
  for (size_t r = 0; r < kBuildRepeats; ++r) {
    pme::Timer timer;
    SpanRecorder::Scope span(spans, "TermIndex::Build");
    const auto index =
        pme::constraints::TermIndex::Build(inputs.bucketization->table, threads);
    seconds.push_back(timer.ElapsedSeconds());
  }
  return Median(seconds);
}

struct DualEval {
  double seconds = 0.0;
  double bytes = 0.0;  // computed, not measured
};

// One DualFunction::Evaluate (value and gradient) on the full problem
// BuildProblem makes from `knowledge`: the artifact's invariant rows plus
// the compiled knowledge rows. Median of kDualEvalRepeats after one
// untimed call.
pme::Result<DualEval> MeasureDualEvaluate(
    const pme::core::TableArtifact& artifact, const Inputs& inputs,
    const std::vector<std::string>& knowledge, SpanRecorder* spans) {
  pme::knowledge::KnowledgeBase kb;
  pme::knowledge::ParserContext context;
  context.dataset = inputs.dataset.get();
  PME_RETURN_IF_ERROR(
      pme::knowledge::ParseKnowledge(JoinLines(knowledge), context, &kb));
  PME_ASSIGN_OR_RETURN(
      auto compiled,
      pme::constraints::CompileKnowledge(kb, artifact.table(), artifact.index(),
                                         artifact.qi_encoder()));
  pme::constraints::ConstraintSystem system(artifact.index().num_variables());
  system.AddAll(artifact.invariants());
  system.AddAll(std::move(compiled.constraints));
  PME_ASSIGN_OR_RETURN(auto problem, pme::maxent::BuildProblem(system));
  const pme::maxent::DualFunction dual(
      &problem.eq, pme::kernels::ConstSpan(problem.eq_rhs));
  std::vector<double> lambda(dual.dim());
  for (size_t j = 0; j < lambda.size(); ++j) {
    lambda[j] = 1e-3 * (static_cast<double>(j % 7) - 3.0);
  }
  std::vector<double> grad;
  dual.Evaluate(lambda, &grad, nullptr);
  std::vector<double> seconds;
  for (size_t r = 0; r < kDualEvalRepeats; ++r) {
    pme::Timer timer;
    SpanRecorder::Scope span(spans, "DualFunction::Evaluate");
    dual.Evaluate(lambda, &grad, nullptr);
    seconds.push_back(timer.ElapsedSeconds());
  }
  // Compulsory traffic of one evaluation: two CSR sweeps (Aᵀλ, then
  // A p − b; 8-byte values, 4-byte column indices, 8-byte row offsets),
  // λ and b read twice each, p written, exponentiated in place and read
  // back, and the gradient written.
  const double m = static_cast<double>(problem.eq.rows());
  const double n = static_cast<double>(problem.eq.cols());
  const double nnz = static_cast<double>(problem.eq.nnz());
  DualEval eval;
  eval.seconds = Median(seconds);
  eval.bytes = 2.0 * (12.0 * nnz + 8.0 * (m + 1.0)) + 8.0 * (5.0 * m + 4.0 * n);
  return eval;
}

// ----------------------------------------------------------- checking

// Compares outcomes with references from core::Analyze: every knowledge
// set of a periodic stream, kEditChecks evenly spaced requests of an
// aperiodic one. Failed or mismatching outcomes count in report->failed.
pme::Status CheckAnswers(const Inputs& inputs, const RequestStream& stream,
                         const std::vector<Outcome>& outcomes,
                         RunReport* report) {
  std::map<size_t, Answer> references;  // knowledge-set key → answer
  const size_t period = stream.period();
  const auto key_of = [period](size_t request) {
    return period != 0 ? request % period : request;
  };
  if (period != 0) {
    for (const Outcome& o : outcomes) references.emplace(key_of(o.request), Answer{});
  } else if (!outcomes.empty()) {
    const size_t checks = std::min(kEditChecks, outcomes.size());
    for (size_t c = 0; c < checks; ++c) {
      references.emplace(outcomes[c * outcomes.size() / checks].request,
                         Answer{});
    }
  }
  for (auto& [key, answer] : references) {
    PME_ASSIGN_OR_RETURN(auto analysis,
                         ReferenceAnalysis(inputs, stream.Knowledge(key)));
    answer = AnswerOf(analysis);
  }

  // [0]: cached or cold answers, [1]: answers with a warm-started block.
  double max_distance[2] = {0.0, 0.0};
  size_t checked[2] = {0, 0};
  std::string first_error;
  for (const Outcome& o : outcomes) {
    std::string error = o.error;
    const auto it = references.find(key_of(o.request));
    if (o.ok && it != references.end()) {
      const int tier = o.warm_hits > 0 ? 1 : 0;
      const double tolerance = tier == 1 ? kWarmStartTolerance
                                         : kAnswerTolerance;
      const double d = AnswerDistance(o.answer, it->second);
      max_distance[tier] = std::max(max_distance[tier], d);
      ++checked[tier];
      if (d > tolerance) {
        error = Printf("answer differs from reference by %.3g", d);
      }
    }
    if (!error.empty()) {
      ++report->failed;
      if (first_error.empty()) {
        first_error = Printf("request %zu: %s", o.request, error.c_str());
      }
    }
  }
  report->attempted += outcomes.size();
  report->notes.push_back(Printf(
      "answer check: %zu of %zu answers compared with core::Analyze over %zu "
      "knowledge sets; cached/cold: %zu, max |diff| %.3g (tolerance %.0e); "
      "warm-started: %zu, max |diff| %.3g (tolerance %.0e)",
      checked[0] + checked[1], outcomes.size(), references.size(), checked[0],
      max_distance[0], kAnswerTolerance, checked[1], max_distance[1],
      kWarmStartTolerance));
  if (!first_error.empty()) {
    report->notes.push_back("first failure: " + first_error);
  }
  return pme::Status::Ok();
}

// ------------------------------------------------------------ metrics

std::vector<double> Field(const std::vector<Outcome>& outcomes,
                          double Outcome::*field, double scale = 1.0) {
  std::vector<double> out;
  for (const Outcome& o : outcomes) out.push_back(o.*field * scale);
  return out;
}

double Sum(const std::vector<Outcome>& outcomes, double Outcome::*field) {
  double sum = 0.0;
  for (const Outcome& o : outcomes) sum += o.*field;
  return sum;
}

// The share that defines each workload: exact cache hits per coupled
// block (warm-repeat), warm starts per solved block (edit-resolve),
// analyses routed monolithic (knowledge-sweep).
double DefiningShare(WorkloadKind kind, const std::vector<Outcome>& outcomes) {
  const double exact = Sum(outcomes, &Outcome::exact_hits);
  const double warm = Sum(outcomes, &Outcome::warm_hits);
  const double misses = Sum(outcomes, &Outcome::misses);
  switch (kind) {
    case WorkloadKind::kWarmRepeat:
      return Ratio(exact, exact + misses);
    case WorkloadKind::kEditResolve:
      return Ratio(warm, misses);
    case WorkloadKind::kKnowledgeSweep: {
      double monolithic = 0.0;
      for (const Outcome& o : outcomes) monolithic += o.monolithic ? 1.0 : 0.0;
      return Ratio(monolithic, static_cast<double>(outcomes.size()));
    }
  }
  return 0.0;
}

// Completed analyses per second, as a median so that a burst of load
// from outside the benchmark moves it less than it moves a plain mean:
// on the serve workloads the median rate over ten consecutive slices
// holding equal numbers of completions, on the sweep the analyses of
// one round over the median round.
double Throughput(const Window& window, std::vector<double>* slices) {
  if (!window.round_s.empty()) {
    const double per_round = static_cast<double>(window.outcomes.size()) /
                             static_cast<double>(window.round_s.size());
    return per_round / Median(window.round_s);
  }
  constexpr size_t kSlices = 10;
  std::vector<double> done;
  for (const Outcome& o : window.outcomes) done.push_back(o.done_s);
  std::sort(done.begin(), done.end());
  const size_t per_slice = done.size() / kSlices;
  if (per_slice == 0) {
    return static_cast<double>(done.size()) / window.wall_s;
  }
  std::vector<double> rates;
  double slice_start = 0.0;
  for (size_t k = 1; k <= kSlices; ++k) {
    const double slice_end = done[k * per_slice - 1];
    rates.push_back(static_cast<double>(per_slice) / (slice_end - slice_start));
    slice_start = slice_end;
  }
  if (slices != nullptr) *slices = rates;
  return Median(rates);
}

// Completed analyses over the window's wall time (for windows made of
// several parts, where the slices of Throughput do not apply).
double MeanRate(const Window& window) {
  return Ratio(static_cast<double>(window.outcomes.size()), window.wall_s);
}

// Adds the outcomes, rounds and wall time of `part` to `into`.
void Append(Window part, Window* into) {
  for (Outcome& o : part.outcomes) into->outcomes.push_back(std::move(o));
  into->round_s.insert(into->round_s.end(), part.round_s.begin(),
                       part.round_s.end());
  into->wall_s += part.wall_s;
}

}  // namespace

// ---------------------------------------------------------------- run

pme::Result<RunReport> RunWorkload(const RunConfig& config,
                                   const Inputs& inputs) {
  const WorkloadKind kind = config.spec.kind;
  const bool serve = IsServe(kind);
  pme::Timer phase;
  std::string phases = Printf(" generate %.2f s", config.generate_seconds);
  const auto end_phase = [&](const char* name) {
    phases += Printf(" %s %.2f s", name, phase.ElapsedSeconds());
    phase.Reset();
  };
  const RequestStream stream(config.spec, inputs, config.seed);

  RunReport report;
  report.stream_digest = stream.Digest();
  SpanRecorder recorder;
  SpanRecorder* spans = config.trace ? &recorder : nullptr;

  PME_ASSIGN_OR_RETURN(Setup setup, SetUp(inputs, serve, spans));
  const auto& artifact = setup.artifact;
  end_phase("set-up");

  // Untimed warm-up, so lazy set-up and the cache state the workload is
  // defined by are in place before the window opens. The sweep keeps its
  // warm-up round's solutions for the residual check.
  const char* cache = kind == WorkloadKind::kEditResolve ? "warm" : nullptr;
  std::unique_ptr<pme::core::AnalysisSession> session;
  std::vector<pme::core::Analysis> sweep_warm;
  if (serve) {
    std::vector<std::string> lines;
    if (kind == WorkloadKind::kWarmRepeat) {
      for (size_t i = 0; i < stream.period(); ++i) {
        lines.push_back(RequestLine("warm", stream.Knowledge(i), cache));
      }
    } else {
      lines.push_back(RequestLine("base", stream.statements(), cache));
    }
    PME_RETURN_IF_ERROR(WarmUp(setup.server->port(), lines));
  } else {
    session = std::make_unique<pme::core::AnalysisSession>(
        artifact, SessionOptions(kind, nullptr, nullptr));
    pme::knowledge::ParserContext context;
    context.dataset = inputs.dataset.get();
    for (size_t k = 0; k < std::size(RequestStream::kSweepK); ++k) {
      pme::knowledge::KnowledgeBase kb;
      PME_RETURN_IF_ERROR(pme::knowledge::ParseKnowledge(
          JoinLines(stream.Knowledge(k)), context, &kb));
      PME_ASSIGN_OR_RETURN(auto analysis, session->Run(kb));
      sweep_warm.push_back(std::move(analysis));
    }
  }

  // The timed window. A traced run splits it into quarters run untraced,
  // traced, traced, untraced, so that a steady drift in the host's speed
  // cancels out of the tracing overhead (the throughput ratio of the
  // untraced and traced halves).
  std::atomic<size_t> next_request{0};
  size_t next_sweep_request = 0;
  const auto window = [&](double seconds,
                          SpanRecorder* window_spans) -> pme::Result<Window> {
    if (serve) {
      return ClosedLoop(setup.server->port(), stream, cache, kClients, seconds,
                        0, &next_request, window_spans);
    }
    return SweepRounds(*session, inputs, stream, seconds, &next_sweep_request,
                       window_spans);
  };
  const auto census = [&]() -> pme::Result<ServerCensus> {
    return serve ? QueryCensus(setup.server->port())
                 : pme::Result<ServerCensus>(LocalCensus());
  };
  PME_ASSIGN_OR_RETURN(const ServerCensus census_start, census());
  end_phase("warm-up");

  Window timed;
  Window untraced;
  ServerCensus traced_start;
  ServerCensus traced_end;
  if (!config.trace) {
    PME_ASSIGN_OR_RETURN(timed, window(config.seconds, nullptr));
  } else {
    for (int quarter = 0; quarter < 4; ++quarter) {
      const bool traced = quarter == 1 || quarter == 2;
      if (quarter == 1) {
        PME_ASSIGN_OR_RETURN(traced_start, census());
      }
      PME_ASSIGN_OR_RETURN(Window part, window(config.seconds / 4,
                                               traced ? spans : nullptr));
      if (quarter == 2) {
        PME_ASSIGN_OR_RETURN(traced_end, census());
      }
      Append(std::move(part), traced ? &timed : &untraced);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  PME_ASSIGN_OR_RETURN(const ServerCensus census_end, census());
  end_phase("window");

  // Every answer of the window(s) is checked; on knowledge-sweep the
  // warm-up round's solutions also get their constraint residual.
  std::vector<Outcome> all = untraced.outcomes;
  all.insert(all.end(), timed.outcomes.begin(), timed.outcomes.end());
  PME_RETURN_IF_ERROR(CheckAnswers(inputs, stream, all, &report));
  bool residual_ok = true;
  if (!serve) {
    double residual = 0.0;
    for (size_t k = 0; k < sweep_warm.size(); ++k) {
      PME_ASSIGN_OR_RETURN(
          const double r,
          ConstraintResidual(*artifact, inputs, stream.Knowledge(k),
                             sweep_warm[k].solver.p));
      residual = std::max(residual, r);
    }
    residual_ok = residual <= kResidualTolerance;
    report.notes.push_back(Printf(
        "residual check: max ||Ap - b||inf over invariant + knowledge rows "
        "%.3g (tolerance %.0e)", residual, kResidualTolerance));
  }
  report.correct = report.failed == 0 && residual_ok;
  end_phase("check");

  const double share = DefiningShare(kind, timed.outcomes);
  report.notes.push_back(Printf(
      "error_rate %.6g (%zu failed of %zu attempted)",
      Ratio(static_cast<double>(report.failed),
            static_cast<double>(report.attempted)),
      report.failed, report.attempted));
  report.notes.push_back(Printf(
      "defining share: %s = %.4f",
      kind == WorkloadKind::kWarmRepeat    ? "exact cache hits per block"
      : kind == WorkloadKind::kEditResolve ? "warm starts per solved block"
                                           : "analyses routed monolithic",
      share));

  if (!config.trace) {
    std::vector<double> slice_rates;
    const double rps = Throughput(timed, &slice_rates);
    std::vector<double> latency_ms;
    if (serve) {
      latency_ms = Field(timed.outcomes, &Outcome::latency_s, 1e3);
      std::string rates;
      for (const double r : slice_rates) rates += Printf(" %.0f", r);
      report.notes.push_back("throughput per slice (1/s):" + rates);
    } else {
      for (const double s : timed.round_s) latency_ms.push_back(s * 1e3);
    }
    report.notes.push_back(Printf(
        "%zu latency samples in %.3f s, one per %s", latency_ms.size(),
        timed.wall_s, serve ? "request" : "sweep round (one analysis per K)"));
    report.notes.push_back("phases:" + phases);
    report.metrics = {
        {"requests_per_s", rps, "1/s"},
        {"latency_p50_ms", NearestRank(latency_ms, 0.50), "ms"},
        {"latency_p99_ms", NearestRank(latency_ms, 0.99), "ms"},
        {"setup_s", Median(setup.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    return report;
  }

  // ---- traced run: per-layer metrics.
  const double overhead_pct =
      (Ratio(MeanRate(untraced), MeanRate(timed)) - 1.0) * 100.0;
  std::vector<double> server_ms;
  std::vector<double> wire_ms;
  if (serve) {
    for (const Outcome& o : timed.outcomes) {
      server_ms.push_back(o.server_s * 1e3);
      wire_ms.push_back((o.latency_s - o.server_s) * 1e3);
    }
  } else {
    // The sweep has no sockets; its serve-layer figures come from one
    // extra round sent through a server on the same artifact.
    pme::serve::ServeOptions options;
    options.cache_mb = 0;
    pme::serve::AnalysisServer server(artifact, inputs.dataset, options);
    PME_RETURN_IF_ERROR(server.Start());
    std::atomic<size_t> next{0};
    PME_ASSIGN_OR_RETURN(
        Window leg, ClosedLoop(server.port(), stream, nullptr, 1, 1e9,
                               std::size(RequestStream::kSweepK), &next,
                               spans));
    server.Shutdown();
    PME_RETURN_IF_ERROR(CheckAnswers(inputs, stream, leg.outcomes, &report));
    report.correct = report.correct && report.failed == 0;
    for (const Outcome& o : leg.outcomes) {
      server_ms.push_back(o.server_s * 1e3);
      wire_ms.push_back((o.latency_s - o.server_s) * 1e3);
    }
  }

  PME_ASSIGN_OR_RETURN(StageSamples stages,
                       ReplayStages(kind, inputs, artifact, stream, spans));
  if (stages.failed > 0 || stages.session_s.empty()) {
    return pme::Status::Internal(
        Printf("%zu replayed analyses failed, first %s", stages.failed,
               stages.first_error.c_str()));
  }
  // The dual evaluation runs on the stream's largest problem.
  size_t largest = 0;
  for (size_t i = 0; i < stages.coupled_vars.size(); ++i) {
    if (stages.coupled_vars[i] > stages.coupled_vars[largest]) largest = i;
  }
  PME_ASSIGN_OR_RETURN(
      DualEval dual,
      MeasureDualEvaluate(*artifact, inputs, stream.Knowledge(largest), spans));
  const double term_serial_ms = TermIndexSeconds(inputs, 1, spans) * 1e3;
  const double term_parallel_ms =
      TermIndexSeconds(inputs, Nproc(), spans) * 1e3;

  // Stage times are medians on the homogeneous serve streams and means
  // over the sweep, whose median would sit between two K sizes.
  const auto stage = [serve](const std::vector<double>& seconds) {
    return (serve ? Median(seconds) : Mean(seconds)) * 1e6;
  };
  const auto& out = timed.outcomes;
  const double exact = Sum(out, &Outcome::exact_hits);
  const double warm = Sum(out, &Outcome::warm_hits);
  const double misses = Sum(out, &Outcome::misses);
  const double n = static_cast<double>(out.size());
  const double monolithic_share =
      serve ? Ratio(static_cast<double>(stages.monolithic),
                    static_cast<double>(stages.session_s.size()))
            : DefiningShare(kind, out);
  const double waits = traced_end.queue_wait_count -
                       traced_start.queue_wait_count;
  const double wait_sum = traced_end.queue_wait_sum -
                          traced_start.queue_wait_sum;
  report.metrics = {
      {"serve.server_ms", Median(server_ms), "ms"},
      {"serve.wire_ms", Median(wire_ms), "ms"},
      {"common.pool_queue_wait_us", Ratio(wait_sum, waits) * 1e6, "us"},
      {"knowledge.parse_us", stage(stages.parse_s), "us"},
      {"constraints.compile_us", stage(stages.compile_s), "us"},
      {"constraints.extend_us", stage(stages.extend_s), "us"},
      {"constraints.coupled_vars", Mean(stages.coupled_vars), "count"},
      {"constraints.term_index_serial_ms", term_serial_ms, "ms"},
      {"constraints.term_index_parallel_ms", term_parallel_ms, "ms"},
      {"core.artifact_build_ms", Median(setup.build_s) * 1e3, "ms"},
      {"core.session_us", stage(stages.session_s), "us"},
      {"core.non_solve_us", stage(stages.non_solve_s), "us"},
      {"maxent.solve_us", stage(stages.solve_s), "us"},
      {"maxent.iterations", Ratio(Sum(out, &Outcome::iterations), n), "count"},
      {"maxent.blocks", Ratio(Sum(out, &Outcome::blocks), n), "count"},
      {"maxent.cache_exact_ratio", Ratio(exact, exact + misses), "ratio"},
      {"maxent.cache_warm_ratio", Ratio(warm, misses), "ratio"},
      {"maxent.cache_evictions",
       census_end.evictions - census_start.evictions, "count"},
      {"maxent.monolithic_share", monolithic_share, "ratio"},
      {"maxent.dual_eval_us", dual.seconds * 1e6, "us"},
      {"maxent.dual_eval_bytes", dual.bytes, "bytes"},
      {"workload.defining_share", share, "ratio"},
      {"bench.trace_overhead_pct", overhead_pct, "%"},
  };
  end_phase("layers");
  report.notes.push_back("phases:" + phases);
  report.notes.push_back(Printf(
      "traced run: %zu pool tasks waited, %zu analyses replayed stage by "
      "stage, dual evaluated on request %zu (%.0f coupled vars)",
      static_cast<size_t>(waits), stages.session_s.size(), largest,
      stages.coupled_vars[largest]));
  for (const auto& [name, count] : recorder.Counts()) {
    report.notes.push_back(Printf("spans: %-28s %zu", name.c_str(), count));
  }
  if (!config.trace_path.empty()) {
    if (!recorder.WriteChromeTrace(config.trace_path)) {
      return pme::Status::IoError("cannot write " + config.trace_path);
    }
    report.notes.push_back("chrome trace: " + config.trace_path);
  }
  return report;
}

}  // namespace perfbench
