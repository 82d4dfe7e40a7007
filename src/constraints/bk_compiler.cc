#include "constraints/bk_compiler.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace pme::constraints {
namespace {

constexpr double kZeroTol = 1e-12;

}  // namespace

Result<std::vector<uint32_t>> MatchQiInstances(
    const knowledge::ConditionalStatement& stmt,
    const data::TupleEncoder& qi_encoder) {
  if (stmt.attrs.size() != stmt.values.size()) {
    return Status::InvalidArgument(
        "statement attrs/values arity mismatch");
  }
  // Position of each statement attribute inside the encoder's tuple.
  const auto& enc_attrs = qi_encoder.attrs();
  std::vector<size_t> positions(stmt.attrs.size());
  for (size_t i = 0; i < stmt.attrs.size(); ++i) {
    auto it = std::find(enc_attrs.begin(), enc_attrs.end(), stmt.attrs[i]);
    if (it == enc_attrs.end()) {
      return Status::InvalidArgument(
          "statement references attribute " + std::to_string(stmt.attrs[i]) +
          " which is not a quasi-identifier");
    }
    positions[i] = static_cast<size_t>(it - enc_attrs.begin());
  }
  std::vector<uint32_t> matches;
  if (positions.empty()) {
    // No condition: every interned tuple matches.
    matches.resize(qi_encoder.size());
    std::iota(matches.begin(), matches.end(), 0u);
    return matches;
  }
  // Walk the shortest posting list and check the other attributes on the
  // decoded tuple: cost O(shortest list), not O(tuples).
  size_t pivot = 0;
  for (size_t i = 1; i < positions.size(); ++i) {
    if (qi_encoder.Postings(positions[i], stmt.values[i]).size() <
        qi_encoder.Postings(positions[pivot], stmt.values[pivot]).size()) {
      pivot = i;
    }
  }
  for (const uint32_t q :
       qi_encoder.Postings(positions[pivot], stmt.values[pivot])) {
    const auto& tuple = qi_encoder.Decode(q);
    bool match = true;
    for (size_t i = 0; i < positions.size(); ++i) {
      if (tuple[positions[i]] != stmt.values[i]) {
        match = false;
        break;
      }
    }
    if (match) matches.push_back(q);
  }
  return matches;
}

Result<CompiledKnowledge> CompileKnowledge(
    const knowledge::KnowledgeBase& kb,
    const anonymize::BucketizedTable& table, const TermIndex& index,
    const data::TupleEncoder* qi_encoder) {
  CompiledKnowledge out;
  size_t stmt_no = 0;
  for (const auto& stmt : kb.conditionals()) {
    ++stmt_no;
    if (stmt.probability < 0.0 || stmt.probability > 1.0 + kZeroTol) {
      return Status::InvalidArgument(
          "statement " + std::to_string(stmt_no) +
          ": probability outside [0, 1]");
    }
    // Resolve Qv to abstract QI instances.
    std::vector<uint32_t> qi_ids;
    if (stmt.abstract_qi.has_value()) {
      if (*stmt.abstract_qi >= table.num_qi_values()) {
        return Status::InvalidArgument(
            "statement " + std::to_string(stmt_no) +
            ": abstract QI instance out of range");
      }
      qi_ids.push_back(*stmt.abstract_qi);
    } else {
      if (qi_encoder == nullptr) {
        return Status::InvalidArgument(
            "statement " + std::to_string(stmt_no) +
            " is in dataset mode but no QI encoder was provided");
      }
      PME_ASSIGN_OR_RETURN(qi_ids, MatchQiInstances(stmt, *qi_encoder));
    }

    // P(Qv) from the published table.
    double prob_qv = 0.0;
    for (uint32_t q : qi_ids) prob_qv += table.ProbQ(q);
    if (prob_qv <= kZeroTol) {
      ++out.num_vacuous;  // zero support: statement constrains nothing
      continue;
    }

    // Dedupe the S-set (a repeated code must not double its coefficient).
    std::set<uint32_t> sa_set(stmt.sa_codes.begin(), stmt.sa_codes.end());

    LinearConstraint c;
    c.source = ConstraintSource::kBackground;
    c.rel = stmt.rel;
    c.rhs = stmt.probability * prob_qv;
    c.label = stmt.label.empty()
                  ? "bk#" + std::to_string(stmt_no)
                  : stmt.label;
    for (uint32_t q : qi_ids) {
      for (uint32_t b : table.BucketsWithQi(q)) {
        for (uint32_t s : sa_set) {
          const auto var = index.FindVariable(q, s, b);
          if (!var) continue;  // Zero-invariant: structurally zero
          c.vars.push_back(*var);
          c.coefs.push_back(1.0);
        }
      }
    }
    if (c.vars.empty()) {
      // All terms are structurally zero, so the LHS is identically 0.
      if (c.rel != Relation::kLe && c.rhs > kZeroTol) {
        return Status::Infeasible(
            "statement '" + c.label +
            "' asserts positive probability over term combinations that "
            "never co-occur in any bucket");
      }
      continue;  // 0 = 0 (or 0 <= rhs): trivially satisfied
    }
    out.constraints.push_back(std::move(c));
  }
  return out;
}

}  // namespace pme::constraints
