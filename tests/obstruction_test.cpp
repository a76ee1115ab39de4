// Tests for obstruction extraction: bivalence survival series (Section
// 6.1), merged epsilon-chains, and fair-sequence prefixes (Definition
// 5.16) on the touchstone adversaries.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "core/metrics.hpp"
#include "core/obstruction.hpp"

namespace topocon {
namespace {

TEST(Bivalence, DiesAtDepthOneForSolvablePair) {
  const auto ma = make_lossy_link(0b011);
  const auto series = bivalence_series(*ma, 4);
  ASSERT_EQ(series.size(), 4u);
  for (const BivalencePoint& point : series) {
    EXPECT_EQ(point.merged_components, 0) << "depth " << point.depth;
  }
}

TEST(Bivalence, SurvivesForeverForFullLossyLink) {
  const auto ma = make_lossy_link(0b111);
  const auto series = bivalence_series(*ma, 6);
  ASSERT_EQ(series.size(), 6u);
  for (const BivalencePoint& point : series) {
    EXPECT_GE(point.merged_components, 1) << "depth " << point.depth;
  }
}

TEST(Bivalence, SurvivesForOmissionNMinusOne) {
  const auto ma = make_omission_adversary(2, 1);
  const auto series = bivalence_series(*ma, 5);
  for (const BivalencePoint& point : series) {
    EXPECT_GE(point.merged_components, 1);
  }
}

// bivalence_series keeps one shard set across its depths; each point
// must equal a fresh one-shot analysis of that depth.
TEST(Bivalence, SeriesMatchesPerDepthAnalyses) {
  const auto solvable = make_lossy_link(0b011);
  const auto full = make_lossy_link(0b111);
  const auto omission = make_omission_adversary(2, 1);
  const MessageAdversary* const adversaries[] = {solvable.get(), full.get(),
                                                 omission.get()};
  for (const MessageAdversary* adversary : adversaries) {
    std::vector<BivalencePoint> expected;
    auto interner = std::make_shared<ViewInterner>();
    for (int depth = 1; depth <= 5; ++depth) {
      AnalysisOptions options;
      options.depth = depth;
      options.keep_levels = false;
      const DepthAnalysis analysis =
          analyze_depth(*adversary, options, interner);
      if (analysis.truncated) break;
      expected.push_back(BivalencePoint{
          depth, analysis.leaves().size(),
          static_cast<int>(analysis.components.size()),
          analysis.merged_components});
    }
    const std::vector<BivalencePoint> series = bivalence_series(*adversary, 5);
    ASSERT_EQ(series.size(), expected.size()) << adversary->name();
    for (std::size_t k = 0; k < series.size(); ++k) {
      EXPECT_EQ(series[k].depth, expected[k].depth) << adversary->name();
      EXPECT_EQ(series[k].num_leaf_classes, expected[k].num_leaf_classes)
          << adversary->name() << " depth " << expected[k].depth;
      EXPECT_EQ(series[k].num_components, expected[k].num_components)
          << adversary->name() << " depth " << expected[k].depth;
      EXPECT_EQ(series[k].merged_components, expected[k].merged_components)
          << adversary->name() << " depth " << expected[k].depth;
    }
  }
}

TEST(MergedChain, ExistsForFullLossyLinkAndIsValid) {
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 4;
  const DepthAnalysis analysis = analyze_depth(*ma, options);
  const auto chain = find_merged_chain(*ma, analysis, 0, 1);
  ASSERT_TRUE(chain.has_value());
  ASSERT_GE(chain->chain.size(), 2u);
  EXPECT_EQ(chain->witness.size(), chain->chain.size() - 1);
  // Endpoints are valent.
  EXPECT_EQ(uniform_value(chain->chain.front().inputs), 0);
  EXPECT_EQ(uniform_value(chain->chain.back().inputs), 1);
  // Every hop is an epsilon-step: the witnessing process has identical
  // views through the full depth, i.e. d_min < 2^-depth.
  ViewInterner interner;
  for (std::size_t i = 0; i + 1 < chain->chain.size(); ++i) {
    const ProcessId p = chain->witness[i];
    EXPECT_EQ(
        divergence_time(interner, chain->chain[i], chain->chain[i + 1], p),
        kNoDivergence)
        << "hop " << i;
  }
}

TEST(MergedChain, AbsentForSolvablePair) {
  const auto ma = make_lossy_link(0b011);
  AnalysisOptions options;
  options.depth = 3;
  const DepthAnalysis analysis = analyze_depth(*ma, options);
  EXPECT_FALSE(find_merged_chain(*ma, analysis, 0, 1).has_value());
}

TEST(FairSequence, ExistsForFullLossyLink) {
  const auto ma = make_lossy_link(0b111);
  for (int depth = 1; depth <= 5; ++depth) {
    const auto prefix = fair_sequence_prefix(*ma, depth);
    ASSERT_TRUE(prefix.has_value()) << "depth " << depth;
    EXPECT_EQ(prefix->length(), depth);
    // The classic forever-bivalent run starts from a mixed input vector.
    EXPECT_EQ(uniform_value(prefix->inputs), -1);
  }
}

TEST(FairSequence, AbsentForSolvableSubsets) {
  for (unsigned mask : {0b001u, 0b010u, 0b011u, 0b100u, 0b101u, 0b110u}) {
    EXPECT_FALSE(fair_sequence_prefix(*make_lossy_link(mask), 3).has_value())
        << mask;
  }
}

}  // namespace
}  // namespace topocon
