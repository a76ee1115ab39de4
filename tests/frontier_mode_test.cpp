// The adaptive frontier representation (core/frontier.cpp): forcing the
// dense direct-indexed view dedup table, forcing the sparse open-addressed
// one, and letting the per-chunk heuristic choose must all produce the
// IDENTICAL DepthAnalysis -- every level, link, component, and even the
// interner's id assignment order. The representation is an
// execution detail like chunk size and thread count; these tests are the
// unit-level enforcement of the golden --frontier=dense/sparse CI lanes.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "adversary/omission.hpp"
#include "core/epsilon_approx.hpp"
#include "core/frontier.hpp"
#include "scenario/fuzz.hpp"

namespace topocon {
namespace {

/// Restores the process-wide default on scope exit, so tests that pin it
/// cannot leak the pin into later suites of the same binary.
class DefaultModeGuard {
 public:
  DefaultModeGuard() : saved_(default_frontier_mode()) {}
  ~DefaultModeGuard() { set_default_frontier_mode(saved_); }

 private:
  FrontierMode saved_;
};

DepthAnalysis run_with(const MessageAdversary& adversary,
                       AnalysisOptions options, FrontierMode mode) {
  options.frontier = mode;
  return analyze_depth(adversary, options);
}

void expect_analyses_identical(const DepthAnalysis& a, const DepthAnalysis& b,
                               const char* what) {
  EXPECT_EQ(a.depth, b.depth) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
  ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
  for (std::size_t s = 0; s < a.levels.size(); ++s) {
    ASSERT_EQ(a.levels[s].size(), b.levels[s].size()) << what << " level "
                                                      << s;
    for (std::size_t i = 0; i < a.levels[s].size(); ++i) {
      EXPECT_EQ(a.levels[s][i].inputs, b.levels[s][i].inputs)
          << what << " level " << s << " state " << i;
      // Identical interner insertion order => identical view ids, not
      // merely isomorphic ones: the strongest determinism contract.
      EXPECT_EQ(a.levels[s][i].views, b.levels[s][i].views)
          << what << " level " << s << " state " << i;
      EXPECT_EQ(a.levels[s][i].reach, b.levels[s][i].reach)
          << what << " level " << s << " state " << i;
      EXPECT_EQ(a.levels[s][i].adv_state, b.levels[s][i].adv_state)
          << what << " level " << s << " state " << i;
    }
  }
  EXPECT_EQ(a.children, b.children) << what;
  EXPECT_EQ(a.first_parent, b.first_parent) << what;
  EXPECT_EQ(a.leaf_component, b.leaf_component) << what;
  EXPECT_EQ(a.components, b.components) << what;
  EXPECT_EQ(a.valence_separated, b.valence_separated) << what;
  EXPECT_EQ(a.merged_components, b.merged_components) << what;
  EXPECT_EQ(a.valent_broadcastable, b.valent_broadcastable) << what;
  EXPECT_EQ(a.strong_assignable, b.strong_assignable) << what;
  ASSERT_NE(a.interner, nullptr) << what;
  ASSERT_NE(b.interner, nullptr) << what;
  EXPECT_EQ(a.interner->size(), b.interner->size()) << what;
}

TEST(FrontierModeNames, ParseAndPrintRoundTrip) {
  EXPECT_EQ(frontier_mode_from_name("auto"), FrontierMode::kAuto);
  EXPECT_EQ(frontier_mode_from_name("dense"), FrontierMode::kDense);
  EXPECT_EQ(frontier_mode_from_name("sparse"), FrontierMode::kSparse);
  EXPECT_FALSE(frontier_mode_from_name("bitset").has_value());
  EXPECT_FALSE(frontier_mode_from_name("").has_value());
  EXPECT_FALSE(frontier_mode_from_name("Dense").has_value());
  EXPECT_STREQ(to_string(FrontierMode::kAuto), "auto");
  EXPECT_STREQ(to_string(FrontierMode::kDense), "dense");
  EXPECT_STREQ(to_string(FrontierMode::kSparse), "sparse");
}

TEST(FrontierMode, OmissionAnalysisIsIdenticalAcrossRepresentations) {
  // The tentpole workload shape: omission n=3 has the 22-letter alphabet
  // and the frontier growth the dense path is built for.
  const auto ma = make_omission_adversary(3, 2);
  AnalysisOptions options;
  options.depth = 3;
  options.max_states = 6'000'000;
  const DepthAnalysis sparse = run_with(*ma, options, FrontierMode::kSparse);
  const DepthAnalysis dense = run_with(*ma, options, FrontierMode::kDense);
  const DepthAnalysis adaptive = run_with(*ma, options, FrontierMode::kAuto);
  expect_analyses_identical(sparse, dense, "dense vs sparse");
  expect_analyses_identical(sparse, adaptive, "auto vs sparse");
  EXPECT_GT(sparse.leaves().size(), 10'000u);  // non-trivial workload
}

TEST(FrontierMode, ComposedFuzzPointsAreIdenticalAcrossRepresentations) {
  // Two seeded composed adversaries: product/union/window compositions
  // exercise virtual transitions and non-trivial safety automata, i.e.
  // the dense state table's adversary prescan.
  scenario::FuzzSpec spec;
  spec.seed = 6;
  spec.count = 2;
  for (const FamilyPoint& point : scenario::fuzz_points(spec)) {
    const auto ma = make_family_adversary(point);
    AnalysisOptions options;
    options.depth = 3;
    const DepthAnalysis sparse =
        run_with(*ma, options, FrontierMode::kSparse);
    const DepthAnalysis dense = run_with(*ma, options, FrontierMode::kDense);
    const DepthAnalysis adaptive =
        run_with(*ma, options, FrontierMode::kAuto);
    expect_analyses_identical(sparse, dense, point.family.c_str());
    expect_analyses_identical(sparse, adaptive, point.family.c_str());
  }
}

TEST(FrontierMode, ProcessDefaultResolvesKDefault) {
  // AnalysisOptions::kDefault defers to the process-wide default (what
  // `topocon run --frontier=...` pins); whatever it is pinned to, the
  // analysis bytes cannot change.
  const auto ma = make_omission_adversary(2, 1);
  AnalysisOptions options;
  options.depth = 4;
  const DepthAnalysis sparse = run_with(*ma, options, FrontierMode::kSparse);
  DefaultModeGuard guard;
  for (const FrontierMode pinned :
       {FrontierMode::kDense, FrontierMode::kSparse, FrontierMode::kAuto}) {
    set_default_frontier_mode(pinned);
    const DepthAnalysis via_default =
        run_with(*ma, options, FrontierMode::kDefault);
    expect_analyses_identical(sparse, via_default, to_string(pinned));
  }
}

}  // namespace
}  // namespace topocon
