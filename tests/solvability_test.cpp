// Tests for the iterative-deepening solvability checker against the
// literature oracles: the complete lossy-link table (Section 6.1), the
// Santoro-Widmayer omission threshold, and the checker's behaviour on
// non-compact adversaries (closure analysis, Section 6.3).
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "adversary/finite_loss.hpp"
#include "adversary/lossy_link.hpp"
#include "adversary/oblivious.hpp"
#include "adversary/omission.hpp"
#include "adversary/vssc.hpp"
#include "analysis/oracles.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

SolvabilityOptions capped(int max_depth) {
  SolvabilityOptions o;
  o.max_depth = max_depth;
  return o;
}

// The full lossy-link solvability table: every nonempty subset of
// {<-, ->, <->}; the checker must agree with the Santoro-Widmayer / CGP /
// Fevat-Godard ground truth (impossible iff the full set).
class LossyLinkTable : public ::testing::TestWithParam<unsigned> {};

TEST_P(LossyLinkTable, MatchesOracle) {
  const unsigned mask = GetParam();
  const auto ma = make_lossy_link(mask);
  const SolvabilityResult result = check_solvability(*ma, capped(6));
  if (lossy_link_solvable(mask)) {
    EXPECT_EQ(result.verdict, SolvabilityVerdict::kSolvable)
        << lossy_link_subset_name(mask);
    EXPECT_GE(result.certified_depth, 1);
    ASSERT_TRUE(result.table.has_value());
  } else {
    EXPECT_EQ(result.verdict, SolvabilityVerdict::kNotSeparated)
        << lossy_link_subset_name(mask);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, LossyLinkTable,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u));

TEST(LossyLink, SolvablePairCertifiesAtDepthOne) {
  const auto ma = make_lossy_link(0b011);
  const SolvabilityResult result = check_solvability(*ma, capped(4));
  EXPECT_EQ(result.certified_depth, 1);
}

// Santoro-Widmayer: n = 2, 3 with f = 0..n(n-1); solvable iff f <= n-2.
TEST(Omission, MatchesSantoroWidmayerN2) {
  for (int f = 0; f <= 2; ++f) {
    const auto ma = make_omission_adversary(2, f);
    const SolvabilityResult result = check_solvability(*ma, capped(5));
    if (omission_solvable(2, f)) {
      EXPECT_EQ(result.verdict, SolvabilityVerdict::kSolvable) << "f=" << f;
    } else {
      EXPECT_EQ(result.verdict, SolvabilityVerdict::kNotSeparated)
          << "f=" << f;
    }
  }
}

TEST(Omission, MatchesSantoroWidmayerN3) {
  for (int f = 0; f <= 3; ++f) {
    const auto ma = make_omission_adversary(3, f);
    SolvabilityOptions o = capped(3);
    o.max_states = 5'000'000;
    const SolvabilityResult result = check_solvability(*ma, o);
    if (omission_solvable(3, f)) {
      EXPECT_EQ(result.verdict, SolvabilityVerdict::kSolvable) << "f=" << f;
    } else {
      EXPECT_NE(result.verdict, SolvabilityVerdict::kSolvable) << "f=" << f;
    }
  }
}

TEST(Solvability, RequireBroadcastableAlsoCertifies) {
  SolvabilityOptions o = capped(6);
  o.require_broadcastable = true;
  const auto ma = make_lossy_link(0b011);
  const SolvabilityResult result = check_solvability(*ma, o);
  EXPECT_EQ(result.verdict, SolvabilityVerdict::kSolvable);
  ASSERT_TRUE(result.analysis.has_value());
  EXPECT_TRUE(result.analysis->valent_broadcastable);
}

TEST(Solvability, PerDepthStatsAreRecorded) {
  const auto ma = make_lossy_link(0b111);
  const SolvabilityResult result = check_solvability(*ma, capped(4));
  ASSERT_EQ(result.per_depth.size(), 4u);
  for (std::size_t i = 0; i < result.per_depth.size(); ++i) {
    EXPECT_EQ(result.per_depth[i].depth, static_cast<int>(i) + 1);
    EXPECT_FALSE(result.per_depth[i].separated);
    EXPECT_GE(result.per_depth[i].merged_components, 1);
  }
}

TEST(Solvability, ResourceLimitVerdict) {
  const auto ma = make_omission_adversary(3, 6);
  SolvabilityOptions o = capped(6);
  o.max_states = 50;
  const SolvabilityResult result = check_solvability(*ma, o);
  EXPECT_EQ(result.verdict, SolvabilityVerdict::kResourceLimit);
}

// Non-compact adversaries: the checker analyzes the closure and reports so.
// For the finite-loss adversary the closure is the full oblivious
// adversary, which never separates -- the Section 6.3 phenomenon: the
// epsilon-approximation cannot certify a solvable non-compact adversary.
TEST(Solvability, FiniteLossClosureNeverSeparates) {
  const FiniteLossAdversary ma(2);
  const SolvabilityResult result = check_solvability(ma, capped(5));
  EXPECT_TRUE(result.closure_only);
  EXPECT_EQ(result.verdict, SolvabilityVerdict::kNotSeparated);
}

TEST(Solvability, VsscClosureNeverSeparates) {
  const VsscAdversary ma(2, 8);
  const SolvabilityResult result = check_solvability(ma, capped(5));
  EXPECT_TRUE(result.closure_only);
  // The closure (all rooted graphs, obliviously) is the n = 2 lossy link
  // full set: never separated.
  EXPECT_EQ(result.verdict, SolvabilityVerdict::kNotSeparated);
}

// n = 6 exceeds StateVector::kInline, so every state column of these
// checks lives on the heap: commit, assembly copies, the table fold and
// teardown all run the heap path, against the single-scan oracle.
TEST(Solvability, HeapColumnsMatchOracleAtSixProcesses) {
  constexpr int n = 6;
  const ObliviousAdversary broadcast(
      n,
      {Digraph::complete(n),
       Digraph::from_edges(n, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})},
      "complete-or-star");
  const ObliviousAdversary isolated(
      n, {Digraph::from_edges(n, {{0, 1}}), Digraph::from_edges(n, {{1, 0}})},
      "one-link");
  const auto saved = [](const SolvabilityResult& result) {
    std::ostringstream out;
    if (result.table) result.table->save(out);
    return out.str();
  };
  sweep::ThreadPool pool(2);
  const MessageAdversary* const adversaries[] = {&broadcast, &isolated};
  for (const MessageAdversary* adversary : adversaries) {
    const SolvabilityResult oracle =
        check_solvability_oracle(*adversary, capped(3));
    ShardingOptions finest;
    finest.chunk_states = 1;
    for (const SolvabilityResult& got :
         {check_solvability(*adversary, capped(3)),
          check_solvability(*adversary, capped(3), pool.as_parallel_for(), {},
                            finest)}) {
      EXPECT_EQ(got.verdict, oracle.verdict) << adversary->name();
      EXPECT_EQ(got.certified_depth, oracle.certified_depth);
      EXPECT_EQ(got.per_depth, oracle.per_depth) << adversary->name();
      EXPECT_EQ(saved(got), saved(oracle)) << adversary->name();
      ASSERT_TRUE(got.analysis.has_value());
      ASSERT_TRUE(oracle.analysis.has_value());
      const Level& leaves = got.analysis->leaves();
      const Level& expected = oracle.analysis->leaves();
      ASSERT_EQ(leaves.size(), expected.size());
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        ASSERT_EQ(leaves[i].inputs, expected[i].inputs) << i;
        ASSERT_EQ(leaves[i].views, expected[i].views) << i;
        ASSERT_EQ(leaves[i].reach, expected[i].reach) << i;
      }
    }
  }
  EXPECT_EQ(check_solvability(broadcast, capped(3)).verdict,
            SolvabilityVerdict::kSolvable);
  EXPECT_EQ(check_solvability(isolated, capped(3)).verdict,
            SolvabilityVerdict::kNotSeparated);
}

TEST(Solvability, VerdictNames) {
  EXPECT_STREQ(to_string(SolvabilityVerdict::kSolvable), "SOLVABLE");
  EXPECT_STREQ(to_string(SolvabilityVerdict::kNotSeparated),
               "NOT-SEPARATED");
  EXPECT_STREQ(to_string(SolvabilityVerdict::kResourceLimit),
               "RESOURCE-LIMIT");
}

}  // namespace
}  // namespace topocon
