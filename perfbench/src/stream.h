// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Workload definitions and their inputs: one fixed Adult-like table per
// workload (like the paper's fixed Adult extract), its ℓ=5 Anatomy
// bucketization, a fixed set of informative mined rules, and a request
// stream over those rules drawn by the workload seed. Generation is
// deterministic and never timed — it only makes the inputs the program
// sees.
//
// The table and the rules do not change with the seed on purpose: what
// a request costs depends mostly on the table and on which rules couple
// which buckets, so per-seed tables or rule sets would make the
// run-to-run spread a property of the seeds rather than of the program.
// The seed draws what varies between streams of requests over one
// table: the order requests arrive in, and on edit-resolve the edits.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/status.h"
#include "data/dataset.h"
#include "knowledge/rule.h"

namespace perfbench {

enum class WorkloadKind { kWarmRepeat, kEditResolve, kKnowledgeSweep };

/// The fixed shape of one workload.
struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  size_t records;    // synthetic table size
  size_t max_attrs;  // widest QI subset in a mined rule
  size_t num_rules;  // informative rules the stream draws from
};

/// The three workloads, in documentation order.
const std::vector<WorkloadSpec>& Workloads();

/// The spec called `name`; kInvalidArgument for an unknown name.
pme::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// The inputs of a workload.
struct Inputs {
  std::shared_ptr<const pme::data::Dataset> dataset;
  std::shared_ptr<const pme::anonymize::DatasetBucketization> bucketization;
  /// Informative rules (conditional strictly inside (0.02, 0.98)),
  /// spread evenly across the miner's ranking.
  std::vector<pme::knowledge::AssociationRule> rules;
};

/// Largest edit RequestStream applies to a statement's probability.
constexpr double kMaxNudge = 5e-4;

/// Synthesizes, bucketizes and mines the workload's table and picks its
/// rules. `records` overrides the spec's table size when nonzero (the
/// unit tests use small tables). On edit-resolve every rule is checked
/// to stay feasible under any edit up to ±kMaxNudge; an infeasible edit
/// would make every solve of it fail to converge.
pme::Result<Inputs> GenerateInputs(const WorkloadSpec& spec,
                                   size_t records = 0);

/// The request stream of a workload: request i carries the knowledge
/// statements Knowledge(i).
///   warm-repeat:     one rule statement, cycling through all rules in
///                    an order the seed shuffles;
///   edit-resolve:    all rules, one statement edited by an amount in
///                    ±kMaxNudge unique to request i; the seed sets the
///                    order statements are edited in and the amounts;
///   knowledge-sweep: the first K rules, K cycling through kSweepK, in
///                    a statement order the seed shuffles; rounds cycle
///                    through kSweepOrders orders. The order moves the
///                    solver's iteration count (by up to a third at
///                    K = 512), so each run averages over several.
class RequestStream {
 public:
  static constexpr size_t kSweepK[4] = {64, 128, 256, 512};
  static constexpr size_t kSweepOrders = 8;

  RequestStream(const WorkloadSpec& spec, const Inputs& inputs,
                uint64_t seed);

  std::vector<std::string> Knowledge(size_t i) const;

  /// Every rule's statement, unedited.
  const std::vector<std::string>& statements() const { return statements_; }

  /// Number of distinct knowledge sets (the stream repeats with this
  /// period), or 0 when every request is distinct.
  size_t period() const { return period_; }

  /// The edit applied to request i's statement (edit-resolve).
  double Nudge(size_t i) const;

  /// Hex digest of the workload name, seed and the knowledge of one
  /// period of requests (the first 1024 of an aperiodic stream): equal
  /// digests mean the program was given the same inputs.
  std::string Digest() const;

 private:
  WorkloadKind kind_;
  std::string name_;
  uint64_t seed_;
  const pme::data::Dataset* dataset_;
  std::vector<pme::knowledge::AssociationRule> rules_;
  std::vector<std::string> statements_;
  // warm-repeat: request i asks about statement order_[i % n];
  // edit-resolve: it edits that statement, by
  // 2·kMaxNudge·(frac(i·φ + nudge_phase_) − 0.5).
  std::vector<size_t> order_;
  double nudge_phase_ = 0.0;
  // knowledge-sweep: the statement order of request i is
  // sweep_orders_[i % period_], K = kSweepK[i % 4].
  std::vector<std::vector<size_t>> sweep_orders_;
  size_t period_ = 0;
};

/// Joins statements one per line, as ParseKnowledge reads them.
std::string JoinLines(const std::vector<std::string>& statements);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
