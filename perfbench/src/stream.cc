// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "stream.h"

#include <algorithm>
#include <cmath>

#include "anonymize/anatomy.h"
#include "common/hash.h"
#include "common/prng.h"
#include "core/privacy_maxent.h"
#include "data/adult_synth.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/miner.h"

namespace perfbench {

namespace {

// Informative rules: those asserting a conditional away from 0 and 1.
// Hard-zero rules are left out on purpose: presolve resolves them
// without iterating, so they would measure the presolver instead of the
// solver.
std::vector<pme::knowledge::AssociationRule> Informative(
    const std::vector<pme::knowledge::AssociationRule>& rules) {
  std::vector<pme::knowledge::AssociationRule> out;
  for (const auto& r : rules) {
    if (r.conditional > 0.02 && r.conditional < 0.98) out.push_back(r);
  }
  return out;
}

// Indices of `n` of `size` items spread evenly across the ranking.
std::vector<size_t> EvenlySpaced(size_t size, size_t n) {
  std::vector<size_t> out;
  if (size == 0 || n == 0) return out;
  const double stride =
      std::max(1.0, static_cast<double>(size) / static_cast<double>(n));
  for (double i = 0; i < static_cast<double>(size) && out.size() < n;
       i += stride) {
    out.push_back(static_cast<size_t>(i));
  }
  return out;
}

// The first rule in `rules` whose probability cannot be edited by
// ±kMaxNudge (the others unchanged) without the analysis failing to
// converge, or rules.size() when every edit converges. The feasible
// values of one statement form an interval, so the two extremes cover
// every edit in between.
pme::Result<size_t> FirstInfeasibleEdit(
    const pme::anonymize::DatasetBucketization& bz,
    const std::vector<pme::knowledge::AssociationRule>& rules) {
  for (size_t j = 0; j < rules.size(); ++j) {
    for (const double sign : {-1.0, 1.0}) {
      std::vector<pme::knowledge::AssociationRule> edited = rules;
      edited[j].conditional += sign * kMaxNudge;
      pme::knowledge::KnowledgeBase kb;
      kb.AddRules(edited);
      PME_ASSIGN_OR_RETURN(auto analysis,
                           pme::core::Analyze(bz.table, kb, {}, &bz.qi_encoder));
      if (!analysis.solver.converged || analysis.solver.degraded) return j;
    }
  }
  return rules.size();
}

// `n` evenly spread informative rules, each swapped for its next-ranked
// unused neighbour until every one of them can take any edit.
pme::Result<std::vector<pme::knowledge::AssociationRule>> EditableRules(
    const pme::anonymize::DatasetBucketization& bz,
    const std::vector<pme::knowledge::AssociationRule>& informative,
    size_t n) {
  std::vector<size_t> chosen = EvenlySpaced(informative.size(), n);
  std::vector<bool> used(informative.size(), false);
  for (const size_t i : chosen) used[i] = true;
  while (true) {
    std::vector<pme::knowledge::AssociationRule> rules;
    for (const size_t i : chosen) rules.push_back(informative[i]);
    PME_ASSIGN_OR_RETURN(const size_t bad, FirstInfeasibleEdit(bz, rules));
    if (bad == rules.size()) return rules;
    size_t next = chosen[bad];
    while (next < informative.size() && used[next]) ++next;
    if (next == informative.size()) {
      return pme::Status::InvalidArgument(
          "too few informative rules stay feasible under edits");
    }
    used[next] = true;
    chosen[bad] = next;
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {WorkloadKind::kWarmRepeat, "warm-repeat", 40000, 2, 64},
      {WorkloadKind::kEditResolve, "edit-resolve", 14210, 3, 16},
      {WorkloadKind::kKnowledgeSweep, "knowledge-sweep", 14210, 3, 512},
  };
  return specs;
}

pme::Result<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return spec;
  }
  return pme::Status::InvalidArgument("unknown workload '" + name + "'");
}

pme::Result<Inputs> GenerateInputs(const WorkloadSpec& spec, size_t records) {
  // The repository's standard synthetic-Adult seed; Anatomy and the miner
  // run at their defaults apart from the paper's ℓ = 5 and 3-record
  // support floor.
  pme::data::AdultSynthOptions synth;
  synth.num_records = records != 0 ? records : spec.records;
  synth.seed = 20080612;
  PME_ASSIGN_OR_RETURN(pme::data::Dataset dataset,
                       pme::data::GenerateAdultLike(synth));
  pme::anonymize::AnatomyOptions anatomy;
  anatomy.ell = 5;
  PME_ASSIGN_OR_RETURN(auto partition,
                       pme::anonymize::AnatomyPartition(dataset, anatomy));
  PME_ASSIGN_OR_RETURN(auto bucketization,
                       pme::anonymize::BucketizeDataset(dataset, partition));
  pme::knowledge::MinerOptions miner;
  miner.min_support_records = 3;
  miner.max_attrs = spec.max_attrs;
  PME_ASSIGN_OR_RETURN(auto mined,
                       pme::knowledge::MineAssociationRules(dataset, miner));
  const std::vector<pme::knowledge::AssociationRule> informative =
      Informative(mined);
  if (informative.size() < spec.num_rules) {
    return pme::Status::InvalidArgument(
        "only " + std::to_string(informative.size()) +
        " informative rules mined; the workload needs " +
        std::to_string(spec.num_rules));
  }

  Inputs inputs;
  if (spec.kind == WorkloadKind::kEditResolve) {
    PME_ASSIGN_OR_RETURN(inputs.rules, EditableRules(bucketization, informative,
                                                     spec.num_rules));
  } else {
    for (const size_t i : EvenlySpaced(informative.size(), spec.num_rules)) {
      inputs.rules.push_back(informative[i]);
    }
  }
  inputs.dataset =
      std::make_shared<const pme::data::Dataset>(std::move(dataset));
  inputs.bucketization =
      std::make_shared<const pme::anonymize::DatasetBucketization>(
          std::move(bucketization));
  return inputs;
}

RequestStream::RequestStream(const WorkloadSpec& spec, const Inputs& inputs,
                             uint64_t seed)
    : kind_(spec.kind),
      name_(spec.name),
      seed_(seed),
      dataset_(inputs.dataset.get()),
      rules_(inputs.rules) {
  for (const auto& rule : rules_) {
    statements_.push_back(rule.ToStatement(*dataset_));
  }
  pme::Prng prng(seed);
  switch (kind_) {
    case WorkloadKind::kWarmRepeat:
      period_ = statements_.size();
      for (size_t i = 0; i < rules_.size(); ++i) order_.push_back(i);
      prng.Shuffle(order_);
      break;
    case WorkloadKind::kEditResolve:
      period_ = 0;
      for (size_t i = 0; i < rules_.size(); ++i) order_.push_back(i);
      prng.Shuffle(order_);
      nudge_phase_ = prng.NextDouble();
      break;
    case WorkloadKind::kKnowledgeSweep:
      for (size_t round = 0; round < kSweepOrders; ++round) {
        for (const size_t k : kSweepK) {
          std::vector<size_t> order;
          for (size_t i = 0; i < std::min(k, statements_.size()); ++i) {
            order.push_back(i);
          }
          prng.Shuffle(order);
          sweep_orders_.push_back(std::move(order));
        }
      }
      period_ = sweep_orders_.size();
      break;
  }
}

double RequestStream::Nudge(size_t i) const {
  // frac(i·φ + phase) never repeats for distinct i (φ is badly
  // approximable), so every request edits by a distinct amount.
  constexpr double kGolden = 0.6180339887498949;
  const double x = static_cast<double>(i) * kGolden + nudge_phase_;
  return 2.0 * kMaxNudge * ((x - std::floor(x)) - 0.5);
}

std::vector<std::string> RequestStream::Knowledge(size_t i) const {
  switch (kind_) {
    case WorkloadKind::kWarmRepeat:
      return {statements_[order_[i % order_.size()]]};
    case WorkloadKind::kEditResolve: {
      std::vector<std::string> out = statements_;
      const size_t edited = order_[i % order_.size()];
      pme::knowledge::AssociationRule rule = rules_[edited];
      rule.conditional += Nudge(i);
      out[edited] = rule.ToStatement(*dataset_);
      return out;
    }
    case WorkloadKind::kKnowledgeSweep: {
      std::vector<std::string> out;
      for (const size_t r : sweep_orders_[i % sweep_orders_.size()]) {
        out.push_back(statements_[r]);
      }
      return out;
    }
  }
  return {};
}

std::string RequestStream::Digest() const {
  pme::Hasher128 hasher;
  hasher.Update(std::string_view(name_));
  hasher.Update(seed_);
  const size_t n = period_ != 0 ? period_ : 1024;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& statement : Knowledge(i)) {
      hasher.Update(std::string_view(statement));
    }
  }
  return hasher.Finish().ToHex();
}

std::string JoinLines(const std::vector<std::string>& statements) {
  std::string text;
  for (const std::string& s : statements) {
    text += s;
    text += '\n';
  }
  return text;
}

}  // namespace perfbench
