// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Unit tests of the benchmark's own helpers: the nearest-rank percentile
// every reported percentile comes from, and the determinism of the
// generated request stream. Build and run:
//
//   cmake -S perfbench -B /tmp/pb -DCMAKE_BUILD_TYPE=Release
//   cmake --build /tmp/pb -j && ctest --test-dir /tmp/pb

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "stats.h"
#include "stream.h"

namespace perfbench {
namespace {

TEST(NearestRankTest, FixedVectors) {
  // The textbook example: ranks ceil(q·n) of {15, 20, 35, 40, 50}.
  const std::vector<double> v = {50, 15, 40, 20, 35};  // unsorted on purpose
  EXPECT_EQ(NearestRank(v, 0.05), 15);
  EXPECT_EQ(NearestRank(v, 0.30), 20);
  EXPECT_EQ(NearestRank(v, 0.40), 20);
  EXPECT_EQ(NearestRank(v, 0.50), 35);
  EXPECT_EQ(NearestRank(v, 1.00), 50);

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(NearestRank(hundred, 0.50), 50);
  EXPECT_EQ(NearestRank(hundred, 0.99), 99);
  EXPECT_EQ(NearestRank(hundred, 0.991), 100);
}

TEST(NearestRankTest, AlwaysReturnsASample) {
  const std::vector<double> v = {3.5, 1.25, 9.0, 7.75};
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double r = NearestRank(v, q);
    EXPECT_TRUE(r == 3.5 || r == 1.25 || r == 9.0 || r == 7.75) << q;
    EXPECT_GE(r, 1.25);
    EXPECT_LE(r, 9.0);
  }
}

TEST(NearestRankTest, EdgeCases) {
  EXPECT_TRUE(std::isnan(NearestRank({}, 0.5)));
  EXPECT_EQ(NearestRank({4.0}, 0.0), 4.0);
  EXPECT_EQ(NearestRank({4.0}, 0.99), 4.0);
  EXPECT_EQ(NearestRank({2.0, 1.0}, -1.0), 1.0);  // q clamped to [0, 1]
  EXPECT_EQ(NearestRank({2.0, 1.0}, 2.0), 2.0);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

// Small tables keep generation fast; the stream logic is the same.
constexpr size_t kRecords = 3000;

std::string DigestOf(const WorkloadSpec& spec, uint64_t seed) {
  auto inputs = GenerateInputs(spec, kRecords);
  EXPECT_TRUE(inputs.ok()) << inputs.status().ToString();
  if (!inputs.ok()) return "";
  return RequestStream(spec, inputs.value(), seed).Digest();
}

TEST(RequestStreamTest, SameSeedSameDigestOtherSeedOtherDigest) {
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    const std::string a = DigestOf(spec, 7);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, DigestOf(spec, 7));
    EXPECT_NE(a, DigestOf(spec, 8));
  }
}

TEST(RequestStreamTest, EditNudgesAreDistinctAndBounded) {
  auto spec = FindWorkload("edit-resolve");
  ASSERT_TRUE(spec.ok());
  auto inputs = GenerateInputs(spec.value(), kRecords);
  ASSERT_TRUE(inputs.ok()) << inputs.status().ToString();
  const RequestStream stream(spec.value(), inputs.value(), 3);
  EXPECT_EQ(stream.period(), 0u);
  std::set<double> seen;
  for (size_t i = 0; i < 20000; ++i) {
    const double nudge = stream.Nudge(i);
    EXPECT_LE(std::fabs(nudge), kMaxNudge);
    EXPECT_TRUE(seen.insert(nudge).second) << "repeated at request " << i;
  }
}

TEST(RequestStreamTest, SweepCarriesTheFirstKRules) {
  auto spec = FindWorkload("knowledge-sweep");
  ASSERT_TRUE(spec.ok());
  auto inputs = GenerateInputs(spec.value(), kRecords);
  ASSERT_TRUE(inputs.ok()) << inputs.status().ToString();
  const RequestStream stream(spec.value(), inputs.value(), 5);
  ASSERT_EQ(stream.period(), 4 * RequestStream::kSweepOrders);
  for (size_t i = 0; i < stream.period(); ++i) {
    const size_t k = RequestStream::kSweepK[i % 4];
    const auto knowledge = stream.Knowledge(i);
    ASSERT_EQ(knowledge.size(), k);
    // A permutation of the first k statements.
    const std::set<std::string> got(knowledge.begin(), knowledge.end());
    const std::set<std::string> want(stream.statements().begin(),
                                     stream.statements().begin() + k);
    EXPECT_EQ(got, want);
  }
}

TEST(WorkloadTest, UnknownNameIsRejected) {
  EXPECT_FALSE(FindWorkload("no-such-workload").ok());
  for (const WorkloadSpec& spec : Workloads()) {
    EXPECT_TRUE(FindWorkload(spec.name).ok());
  }
}

}  // namespace
}  // namespace perfbench
