// Equivalence of the parallel shard assembly with the serial reference:
// the parallel absorb, the range assembly, and the array-indexed
// components must reproduce analyze_depth_oracle / check_solvability_oracle
// field for field -- leaf order, links, labels, component summaries, and
// the shared interner node by node -- at threads {1, 4} x chunk {1,
// default}, for one-shot, iterative, keep_levels, and truncated passes
// under the min and a P-view topology.
#include <cstddef>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "core/epsilon_approx.hpp"
#include "core/solvability.hpp"
#include "graph/enumerate.hpp"
#include "runtime/sweep/parallel_solver.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

// `prefix_only`: the oracle interns an overflowing level's views before
// it notices the overflow, while the engine budgets a level before
// interning it, so after a truncation the engine's ids are a prefix.
void expect_same_interner(const ViewInterner& expected,
                          const ViewInterner& got, const std::string& ctx,
                          bool prefix_only = false) {
  if (prefix_only) {
    ASSERT_LE(got.size(), expected.size()) << ctx;
  } else {
    ASSERT_EQ(got.size(), expected.size()) << ctx;
  }
  for (std::size_t id = 0; id < got.size(); ++id) {
    const ViewInterner::Node& a = expected.node(static_cast<ViewId>(id));
    const ViewInterner::Node& b = got.node(static_cast<ViewId>(id));
    ASSERT_EQ(b.process, a.process) << ctx << " view " << id;
    ASSERT_EQ(b.depth, a.depth) << ctx << " view " << id;
    ASSERT_EQ(b.input, a.input) << ctx << " view " << id;
    ASSERT_EQ(b.mask, a.mask) << ctx << " view " << id;
    ASSERT_EQ(b.senders, a.senders) << ctx << " view " << id;
  }
}

void expect_same_analysis(const DepthAnalysis& expected,
                          const DepthAnalysis& got, const std::string& ctx) {
  EXPECT_EQ(got.depth, expected.depth) << ctx;
  EXPECT_EQ(got.truncated, expected.truncated) << ctx;
  ASSERT_EQ(got.levels.size(), expected.levels.size()) << ctx;
  for (std::size_t s = 0; s < expected.levels.size(); ++s) {
    ASSERT_EQ(got.levels[s].size(), expected.levels[s].size())
        << ctx << " level " << s;
    for (std::size_t i = 0; i < expected.levels[s].size(); ++i) {
      const PrefixState& a = expected.levels[s][i];
      const PrefixState& b = got.levels[s][i];
      ASSERT_EQ(b.inputs, a.inputs) << ctx << " level " << s << " state " << i;
      ASSERT_EQ(b.views, a.views) << ctx << " level " << s << " state " << i;
      ASSERT_EQ(b.reach, a.reach) << ctx << " level " << s << " state " << i;
      ASSERT_EQ(b.adv_state, a.adv_state) << ctx << " level " << s;
    }
  }
  EXPECT_EQ(got.first_parent, expected.first_parent) << ctx;
  EXPECT_EQ(got.children, expected.children) << ctx;
  EXPECT_EQ(got.leaf_component, expected.leaf_component) << ctx;
  EXPECT_EQ(got.components, expected.components) << ctx;
  EXPECT_EQ(got.valence_separated, expected.valence_separated) << ctx;
  EXPECT_EQ(got.merged_components, expected.merged_components) << ctx;
  EXPECT_EQ(got.valent_broadcastable, expected.valent_broadcastable) << ctx;
  EXPECT_EQ(got.strong_assignable, expected.strong_assignable) << ctx;
  expect_same_interner(*expected.interner, *got.interner, ctx,
                       expected.truncated);
}

struct Lane {
  int threads;
  std::size_t chunk_states;  // 0 = the default chunk size
};

const Lane kLanes[] = {{1, 0}, {1, 1}, {4, 0}, {4, 1}};

std::string describe(const Lane& lane, const std::string& what) {
  return what + " threads=" + std::to_string(lane.threads) +
         " chunk=" + std::to_string(lane.chunk_states);
}

void expect_one_shot_matches_oracle(const MessageAdversary& adversary,
                                    const AnalysisOptions& options,
                                    const std::string& what) {
  const DepthAnalysis oracle = analyze_depth_oracle(adversary, options);
  for (const Lane& lane : kLanes) {
    sweep::ThreadPool pool(lane.threads);
    sweep::ShardingOptions sharding;
    sharding.chunk_states = lane.chunk_states;
    const DepthAnalysis got = sweep::parallel_analyze_depth(
        adversary, options, pool, nullptr, sharding);
    expect_same_analysis(oracle, got, describe(lane, what));
  }
}

TEST(ParallelAssembly, OneShotMatchesOracleUnderMinTopology) {
  const auto omission = make_omission_adversary(3, 1);
  const auto lossy = make_lossy_link(0b111);
  for (const bool keep_levels : {false, true}) {
    AnalysisOptions options;
    options.keep_levels = keep_levels;
    options.depth = 3;
    expect_one_shot_matches_oracle(*omission, options,
                                   "omission(3,1) keep=" +
                                       std::to_string(keep_levels));
    options.depth = 5;
    expect_one_shot_matches_oracle(*lossy, options,
                                   "lossy_link keep=" +
                                       std::to_string(keep_levels));
  }
}

TEST(ParallelAssembly, OneShotMatchesOracleUnderPViewTopology) {
  const auto omission = make_omission_adversary(3, 1);
  for (const NodeMask pview : {NodeMask{0b001}, NodeMask{0b011},
                               NodeMask{0b111}}) {
    AnalysisOptions options;
    options.depth = 3;
    options.topology = AdjacencyTopology::kPView;
    options.pview_set = pview;
    expect_one_shot_matches_oracle(*omission, options,
                                   "pview=" + std::to_string(pview));
  }
}

TEST(ParallelAssembly, TruncatedLevelMatchesOracle) {
  const auto omission = make_omission_adversary(3, 1);
  for (const bool keep_levels : {false, true}) {
    AnalysisOptions options;
    options.keep_levels = keep_levels;
    options.depth = 4;
    options.max_states = 5000;  // level 3 holds 2744 states, level 4 19208
    expect_one_shot_matches_oracle(*omission, options,
                                   "truncated keep=" +
                                       std::to_string(keep_levels));
  }
}

// The deepening drivers keep one shard set across depths 1..k, absorbing
// one level per depth. The final analysis of an unsolvable run is the
// iterative set's last cheap pass; a solvable run's is the keep_levels
// certificate, assembled against the interner the cheap passes filled.
TEST(ParallelAssembly, IterativeAndCertifyPassesMatchOracle) {
  const auto unsolvable = make_lossy_link(0b111);
  const auto solvable = make_lossy_link(0b011);
  const auto omission = make_omission_adversary(3, 1);
  const auto unsolvable_omission = make_omission_adversary(3, 2);
  struct Case {
    const MessageAdversary* adversary;
    int max_depth;
    std::size_t max_states;
    std::string what;
  };
  const Case cases[] = {
      {unsolvable.get(), 6, 2'000'000, "lossy_link(lrb)"},
      {solvable.get(), 6, 2'000'000, "lossy_link(lr)"},
      {omission.get(), 3, 2'000'000, "omission(3,1)"},
      // Levels of 8, 176, 3872, and 85184 states: depth 4 truncates.
      {unsolvable_omission.get(), 4, 5000, "omission(3,2) truncated"},
  };
  for (const Case& c : cases) {
    SolvabilityOptions options;
    options.max_depth = c.max_depth;
    options.max_states = c.max_states;
    const SolvabilityResult oracle =
        check_solvability_oracle(*c.adversary, options);
    ASSERT_TRUE(oracle.analysis.has_value()) << c.what;
    for (const Lane& lane : kLanes) {
      sweep::ThreadPool pool(lane.threads);
      sweep::ShardingOptions sharding;
      sharding.chunk_states = lane.chunk_states;
      const SolvabilityResult got = sweep::parallel_check_solvability(
          *c.adversary, options, pool, {}, sharding);
      const std::string ctx = describe(lane, c.what);
      EXPECT_EQ(got.verdict, oracle.verdict) << ctx;
      EXPECT_EQ(got.per_depth, oracle.per_depth) << ctx;
      ASSERT_TRUE(got.analysis.has_value()) << ctx;
      expect_same_analysis(*oracle.analysis, *got.analysis, ctx);
      ASSERT_EQ(got.table.has_value(), oracle.table.has_value()) << ctx;
      if (oracle.table.has_value()) {
        EXPECT_EQ(got.table->size(), oracle.table->size()) << ctx;
      }
    }
  }
}

// The two-phase absorb of several shards, one view depth at a time,
// assigns exactly the ids (and remaps) that absorb_from applied shard by
// shard assigns, at every pool size.
TEST(ParallelAssembly, TwoPhaseAbsorbMatchesAbsorbFrom) {
  const auto graphs = all_graphs(3);
  constexpr std::size_t kShards = 3;
  for (const int threads : {1, 4}) {
    std::mt19937_64 rng(7);
    std::vector<ViewInterner> shards(kShards);
    std::vector<std::vector<ViewVector>> runs(kShards);
    for (std::size_t r = 0; r < kShards; ++r) {
      for (int run = 0; run < 6; ++run) {
        runs[r].push_back(shards[r].initial(
            {static_cast<Value>(rng() % 2), static_cast<Value>(rng() % 2),
             static_cast<Value>(rng() % 2)}));
      }
    }
    sweep::ThreadPool pool(threads);
    ViewInterner two_phase;
    ViewInterner serial;
    std::vector<std::vector<ViewId>> two_phase_remaps(kShards);
    std::vector<std::vector<ViewId>> serial_remaps(kShards);
    std::vector<sweep::AbsorbSource> sources;
    for (std::size_t r = 0; r < kShards; ++r) {
      sources.push_back({&shards[r], &two_phase_remaps[r]});
    }
    for (int depth = 0; depth < 4; ++depth) {
      sweep::absorb_depth(two_phase, sources, depth, pool);
      for (std::size_t r = 0; r < kShards; ++r) {
        serial.absorb_from(shards[r], serial_remaps[r]);
      }
      const std::string ctx = "threads=" + std::to_string(threads) +
                              " depth=" + std::to_string(depth);
      EXPECT_EQ(two_phase_remaps, serial_remaps) << ctx;
      expect_same_interner(serial, two_phase, ctx);
      for (std::size_t r = 0; r < kShards; ++r) {
        for (ViewVector& views : runs[r]) {
          views = shards[r].advance(views, graphs[rng() % graphs.size()]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace topocon
