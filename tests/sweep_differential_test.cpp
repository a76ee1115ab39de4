// Randomized differential test of the parallel sweep engine: ~200 random
// compact (oblivious) adversaries with n <= 3 and depth <= 4, each checked
// by the single-scan reference checker (check_solvability_oracle) and by
// check_solvability on a pool of rotating size. Verdicts, per-depth statistics, leaf partitions,
// and component structures must agree exactly (the engine's contract is
// bit-identical results, not just equal verdicts).
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/oblivious.hpp"
#include "core/solvability.hpp"
#include "graph/enumerate.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

std::unique_ptr<ObliviousAdversary> random_oblivious(std::mt19937& rng,
                                                     int n) {
  const std::vector<Digraph> universe = all_graphs(n);
  std::uniform_int_distribution<std::size_t> graph_count(1, 5);
  std::uniform_int_distribution<std::size_t> pick(0, universe.size() - 1);
  const std::size_t count = graph_count(rng);
  std::vector<Digraph> alphabet;
  for (std::size_t i = 0; i < count; ++i) {
    const Digraph& g = universe[pick(rng)];
    bool duplicate = false;
    for (const Digraph& have : alphabet) {
      if (have == g) duplicate = true;
    }
    if (!duplicate) alphabet.push_back(g);
  }
  return std::make_unique<ObliviousAdversary>(n, std::move(alphabet),
                                              "random-oblivious");
}

void expect_equal_results(const SolvabilityResult& serial,
                          const SolvabilityResult& parallel,
                          int case_index) {
  ASSERT_EQ(parallel.verdict, serial.verdict) << "case " << case_index;
  EXPECT_EQ(parallel.certified_depth, serial.certified_depth)
      << "case " << case_index;
  ASSERT_EQ(parallel.per_depth.size(), serial.per_depth.size());
  for (std::size_t d = 0; d < serial.per_depth.size(); ++d) {
    const DepthStats& a = serial.per_depth[d];
    const DepthStats& b = parallel.per_depth[d];
    EXPECT_EQ(a.num_leaf_classes, b.num_leaf_classes)
        << "case " << case_index << " depth " << a.depth;
    EXPECT_EQ(a.num_components, b.num_components);
    EXPECT_EQ(a.merged_components, b.merged_components);
    EXPECT_EQ(a.separated, b.separated);
    EXPECT_EQ(a.valent_broadcastable, b.valent_broadcastable);
    EXPECT_EQ(a.strong_assignable, b.strong_assignable);
    EXPECT_EQ(a.interner_views, b.interner_views);
  }
  ASSERT_EQ(parallel.analysis.has_value(), serial.analysis.has_value());
  if (serial.analysis.has_value()) {
    const DepthAnalysis& sa = *serial.analysis;
    const DepthAnalysis& pa = *parallel.analysis;
    EXPECT_EQ(pa.depth, sa.depth);
    EXPECT_EQ(pa.truncated, sa.truncated);
    EXPECT_EQ(pa.leaf_component, sa.leaf_component) << "case " << case_index;
    ASSERT_EQ(pa.components.size(), sa.components.size());
    for (std::size_t c = 0; c < sa.components.size(); ++c) {
      const ComponentInfo& x = sa.components[c];
      const ComponentInfo& y = pa.components[c];
      EXPECT_EQ(x.num_leaves, y.num_leaves);
      EXPECT_EQ(x.valence_mask, y.valence_mask);
      EXPECT_EQ(x.common_broadcast, y.common_broadcast);
      EXPECT_EQ(x.broadcasters, y.broadcasters);
      EXPECT_EQ(x.common_input_values, y.common_input_values);
      EXPECT_EQ(x.assigned_value, y.assigned_value);
      EXPECT_EQ(x.assigned_value_strong, y.assigned_value_strong);
    }
  }
  ASSERT_EQ(parallel.table.has_value(), serial.table.has_value());
  if (serial.table.has_value()) {
    EXPECT_EQ(parallel.table->size(), serial.table->size());
    EXPECT_EQ(parallel.table->worst_case_decision_round(),
              serial.table->worst_case_decision_round());
    EXPECT_EQ(parallel.table->depth(), serial.table->depth());
  }
}

TEST(SweepDifferential, RandomCompactAdversaries) {
  std::mt19937 rng(20250729);
  const int cases = 200;
  for (int i = 0; i < cases; ++i) {
    const int n = 2 + static_cast<int>(rng() % 2);
    const auto ma = random_oblivious(rng, n);
    SolvabilityOptions options;
    options.max_depth = 1 + static_cast<int>(rng() % 4);
    options.num_values = 2 + static_cast<int>(rng() % 2);
    options.max_states = 500'000;
    options.build_table = (rng() % 2) == 0;
    options.strong_validity = (rng() % 4) == 0;

    const SolvabilityResult serial = check_solvability_oracle(*ma, options);
    sweep::ThreadPool pool(2 + static_cast<int>(i % 3));
    const SolvabilityResult parallel =
        check_solvability(*ma, options, pool.as_parallel_for());
    expect_equal_results(serial, parallel, i);
  }
}

}  // namespace
}  // namespace topocon
