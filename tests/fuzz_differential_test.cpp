// Differential harness over the seeded composed-adversary fuzzer
// (scenario/fuzz.hpp): every fuzzed point is run through the oracle
// checker (check_solvability_oracle -- the single-scan reference
// expansion) and through check_solvability on one lane (the calling
// thread) and on pools at several chunk sizes and thread counts, and ALL
// of them must agree bit for bit on the verdict, the certified depth, and
// every per-depth statistic including the interned-view counts. Failure
// messages carry the seed and the point's replayable spec label, so any
// divergence reproduces with
//   topocon fuzz --seed=SEED --count=COUNT --n=N
// independently of this binary.
//
// Coverage: 40 points at n = 2 (seed 6) and 10 points at n = 3 (seed 7)
// -- at least 50 composed points in total, per the harness's acceptance
// bar -- plus the fuzzer's own determinism and validation contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/compose.hpp"
#include "adversary/family.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "scenario/fuzz.hpp"

namespace topocon {
namespace {

std::string replay_hint(const scenario::FuzzSpec& spec) {
  return "replay: topocon fuzz --seed=" + std::to_string(spec.seed) +
         " --count=" + std::to_string(spec.count) +
         " --n=" + std::to_string(spec.n) +
         " --depth=" + std::to_string(spec.depth);
}

/// Asserts result equality on every field of the determinism contract.
void expect_same_result(const SolvabilityResult& oracle,
                        const SolvabilityResult& candidate,
                        const std::string& context) {
  EXPECT_EQ(candidate.verdict, oracle.verdict) << context;
  EXPECT_EQ(candidate.certified_depth, oracle.certified_depth) << context;
  EXPECT_EQ(candidate.closure_only, oracle.closure_only) << context;
  ASSERT_EQ(candidate.per_depth.size(), oracle.per_depth.size()) << context;
  for (std::size_t d = 0; d < oracle.per_depth.size(); ++d) {
    const DepthStats& expected = oracle.per_depth[d];
    const DepthStats& got = candidate.per_depth[d];
    EXPECT_EQ(got, expected)
        << context << " depth " << expected.depth << ": "
        << got.num_leaf_classes << " classes/" << got.num_components
        << " components/" << got.interner_views << " views vs oracle "
        << expected.num_leaf_classes << "/" << expected.num_components
        << "/" << expected.interner_views;
  }
}

/// The harness: fuzz `spec`, then demand oracle == 1 lane == parallel at
/// threads x chunk in {1, 2, 8} x {1, default} for every point.
void run_differential(const scenario::FuzzSpec& spec) {
  const std::vector<FamilyPoint> points = scenario::fuzz_points(spec);
  ASSERT_EQ(points.size(), static_cast<std::size_t>(spec.count));
  const SolvabilityOptions options = scenario::fuzz_solve_options(spec.n);
  sweep::ThreadPool pool1(1);
  sweep::ThreadPool pool2(2);
  sweep::ThreadPool pool8(8);
  sweep::ThreadPool* const pools[] = {&pool1, &pool2, &pool8};

  for (std::size_t i = 0; i < points.size(); ++i) {
    const FamilyPoint& point = points[i];
    const std::string context = "seed " + std::to_string(spec.seed) +
                                " point " + std::to_string(i) + " [" +
                                family_point_label(point) + "] -- " +
                                replay_hint(spec);
    const auto adversary = make_family_adversary(point);
    const SolvabilityResult oracle =
        check_solvability_oracle(*adversary, options);

    expect_same_result(oracle, check_solvability(*adversary, options),
                       context + " (1 lane)");
    for (sweep::ThreadPool* const pool : pools) {
      for (const std::size_t chunk_states : {std::size_t{1}, std::size_t{0}}) {
        ShardingOptions sharding;
        sharding.chunk_states = chunk_states;
        expect_same_result(
            oracle,
            check_solvability(*adversary, options, pool->as_parallel_for(),
                              {}, sharding),
            context + " (parallel threads=" +
                std::to_string(pool->num_threads()) +
                " chunk=" + std::to_string(chunk_states) + ")");
      }
    }
  }
}

TEST(FuzzDifferential, FortyComposedPointsAtTwoProcesses) {
  run_differential({.seed = 6, .n = 2, .depth = 2, .count = 40});
}

TEST(FuzzDifferential, TenComposedPointsAtThreeProcesses) {
  run_differential({.seed = 7, .n = 3, .depth = 2, .count = 10});
}

TEST(FuzzPoints, ExpansionIsDeterministicAndReplayable) {
  const scenario::FuzzSpec spec{.seed = 6, .n = 2, .depth = 2, .count = 8};
  const std::vector<FamilyPoint> first = scenario::fuzz_points(spec);
  const std::vector<FamilyPoint> second = scenario::fuzz_points(spec);
  ASSERT_EQ(first.size(), 8u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    // Same spec -> byte-identical points...
    EXPECT_EQ(first[i].family, second[i].family) << i;
    EXPECT_EQ(first[i].n, 2) << i;
    EXPECT_EQ(first[i].param, 0) << i;
    // ...each replayable from its label alone: "composed:" + label is a
    // valid FamilyPoint naming the same adversary.
    const FamilyPoint replayed{
        std::string(kComposedPrefix) + family_point_label(first[i]),
        first[i].n, 0};
    EXPECT_EQ(replayed.family, first[i].family) << i;
    EXPECT_NO_THROW(make_family_adversary(replayed)) << i;
  }
}

TEST(FuzzPoints, DistinctSeedsDiverge) {
  const std::vector<FamilyPoint> a =
      scenario::fuzz_points({.seed = 6, .n = 2, .depth = 2, .count = 8});
  const std::vector<FamilyPoint> b =
      scenario::fuzz_points({.seed = 7, .n = 2, .depth = 2, .count = 8});
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_difference = any_difference || a[i].family != b[i].family;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FuzzPoints, PointsAreDistinctAndTopLevelComposed) {
  const std::vector<FamilyPoint> points =
      scenario::fuzz_points({.seed = 11, .n = 2, .depth = 3, .count = 16});
  std::vector<std::string> families;
  for (const FamilyPoint& point : points) {
    EXPECT_TRUE(is_composed_family(point.family));
    // Top-level nodes are combinators, never bare grid leaves.
    const ComposeSpec spec =
        parse_compose_spec(composed_spec_of(point.family));
    EXPECT_NE(spec.kind, ComposeSpec::Kind::kLeaf);
    families.push_back(point.family);
  }
  std::sort(families.begin(), families.end());
  EXPECT_EQ(std::adjacent_find(families.begin(), families.end()),
            families.end())
      << "duplicate fuzzed point";
}

TEST(FuzzPoints, RejectsInvalidSpecs) {
  EXPECT_THROW(scenario::fuzz_points({.seed = 1, .n = 2, .count = 0}),
               std::invalid_argument);
  EXPECT_THROW(scenario::fuzz_points({.seed = 1, .n = 1, .count = 4}),
               std::invalid_argument);
  EXPECT_THROW(
      scenario::fuzz_points({.seed = 1, .n = 2, .depth = -1, .count = 4}),
      std::invalid_argument);
}

}  // namespace
}  // namespace topocon
