// Equivalence of the parallel shard assembly with the serial reference:
// the parallel absorb, the root-segmented levels, and the array-indexed
// components must reproduce analyze_depth_oracle / check_solvability_oracle
// field for field -- leaf order, the parent column (which must also be
// parent-ordered), labels, component summaries, and the shared interner
// node by node -- at threads {1, 4} x chunk {1, default}, for one-shot,
// iterative, keep_levels, and truncated passes under the min and a
// P-view topology.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "core/epsilon_approx.hpp"
#include "core/parallel_for.hpp"
#include "core/shard_set.hpp"
#include "core/solvability.hpp"
#include "graph/enumerate.hpp"
#include "memory/page_column.hpp"
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
    const ViewInterner::Node a = expected.node(static_cast<ViewId>(id));
    const ViewInterner::Node b = got.node(static_cast<ViewId>(id));
    ASSERT_EQ(b.process, a.process) << ctx << " view " << id;
    ASSERT_EQ(b.depth, a.depth) << ctx << " view " << id;
    ASSERT_EQ(b.input, a.input) << ctx << " view " << id;
    ASSERT_EQ(b.mask, a.mask) << ctx << " view " << id;
    ASSERT_TRUE(std::ranges::equal(b.senders, a.senders))
        << ctx << " view " << id;
  }
}

// The invariant DecisionTable::build's fold relies on: every level is
// its emissions in frontier order, so parent indices never decrease and
// letters strictly increase within one parent's run. Checked on the
// assembled levels, so the per-root parent offsets are covered too.
void expect_parent_ordered(const DepthAnalysis& analysis,
                           const std::string& ctx) {
  for (std::size_t s = 1; s < analysis.parent.size(); ++s) {
    const std::vector<std::pair<int, int>>& parent = analysis.parent[s];
    ASSERT_EQ(parent.size(), analysis.levels[s].size()) << ctx;
    for (std::size_t j = 0; j < parent.size(); ++j) {
      const auto [p, letter] = parent[j];
      ASSERT_GE(p, 0) << ctx << " level " << s << " state " << j;
      ASSERT_LT(static_cast<std::size_t>(p), analysis.levels[s - 1].size())
          << ctx << " level " << s << " state " << j;
      if (j == 0) continue;
      const auto [prev, prev_letter] = parent[j - 1];
      ASSERT_LE(prev, p) << ctx << " level " << s << " state " << j;
      if (prev == p) {
        ASSERT_LT(prev_letter, letter)
            << ctx << " level " << s << " state " << j;
      }
    }
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
  EXPECT_EQ(got.parent, expected.parent) << ctx;
  expect_parent_ordered(got, ctx);
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
    ShardingOptions sharding;
    sharding.chunk_states = lane.chunk_states;
    const DepthAnalysis got = analyze_depth(
        adversary, options, nullptr, pool.as_parallel_for(), sharding);
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
      ShardingOptions sharding;
      sharding.chunk_states = lane.chunk_states;
      const SolvabilityResult got = check_solvability(
          *c.adversary, options, pool.as_parallel_for(), {}, sharding);
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

// A spent set's levels are its engines' own segments, mapped in the
// set's pool, and the analysis outlives the set: with the set destroyed
// the first and last leaf of every root (and, under keep_levels, the
// prefixes rebuilt from them through the parent column) still equal the
// oracle's, and every page the set mapped is unmapped once the analysis
// dies. Below the deepest depth the levels are copies in the set's
// pool, and once the set dies only the analysis's levels (and interner)
// stay mapped, whether the pass completed or the budget cut it short.
TEST(ParallelAssembly, SpentLevelsOutliveTheirSet) {
  const auto omission = make_omission_adversary(3, 1);
  for (const bool keep_levels : {false, true}) {
    AnalysisOptions options;
    options.keep_levels = keep_levels;
    options.depth = 3;
    const DepthAnalysis oracle = analyze_depth_oracle(*omission, options);
    for (const Lane& lane : kLanes) {
      const std::string ctx =
          describe(lane, "keep=" + std::to_string(keep_levels));
      sweep::ThreadPool pool(lane.threads);
      ShardingOptions sharding;
      sharding.chunk_states = lane.chunk_states;
      const std::size_t mapped_before = PagePool::process_mapped_bytes();
      {
        std::optional<ShardSet> set;
        set.emplace(*omission, options, pool.as_parallel_for(), nullptr,
                    sharding);
        const DepthAnalysis got = set->analyze(options.depth);
        set.reset();
        const Level& leaves = got.leaves();
        ASSERT_EQ(leaves.size(), oracle.leaves().size()) << ctx;
        EXPECT_TRUE(leaves == oracle.leaves()) << ctx;
        ASSERT_EQ(leaves.segments().size(), 8u) << ctx;  // 2^3 roots
        for (std::size_t r = 0; r < leaves.segments().size(); ++r) {
          const std::size_t first = leaves.offsets()[r];
          const std::size_t last = leaves.offsets()[r + 1] - 1;
          ASSERT_LT(first, last) << ctx << " root " << r;
          for (const std::size_t i : {first, last}) {
            EXPECT_EQ(leaves[i], oracle.leaves()[i]) << ctx << " leaf " << i;
            if (!keep_levels) continue;
            const auto expected =
                reconstruct_prefix(*omission, oracle, static_cast<int>(i));
            const auto rebuilt =
                reconstruct_prefix(*omission, got, static_cast<int>(i));
            ASSERT_TRUE(expected.has_value() && rebuilt.has_value()) << ctx;
            EXPECT_EQ(rebuilt->to_string(), expected->to_string())
                << ctx << " leaf " << i;
          }
          EXPECT_EQ(leaves.segments()[r].front(), leaves[first]) << ctx;
          EXPECT_EQ(leaves.segments()[r].back(), leaves[last]) << ctx;
        }
        EXPECT_GT(PagePool::process_mapped_bytes(), mapped_before) << ctx;
      }
      EXPECT_EQ(PagePool::process_mapped_bytes(), mapped_before) << ctx;
    }
  }

  AnalysisOptions options;
  options.keep_levels = false;
  options.depth = 4;
  AnalysisOptions shallow = options;
  shallow.depth = 2;
  const std::size_t level2 =
      analyze_depth_oracle(*omission, shallow).leaves().size();
  // Unbounded, depth 3 completes; capped at level 2's size, it overflows.
  for (const std::size_t max_states : {options.max_states, level2}) {
    options.max_states = max_states;
    const bool truncated = max_states == level2;
    for (const Lane& lane : kLanes) {
      const std::string ctx =
          describe(lane, "below deepest, truncated=" +
                             std::to_string(truncated));
      sweep::ThreadPool pool(lane.threads);
      ShardingOptions sharding;
      sharding.chunk_states = lane.chunk_states;
      const std::size_t mapped_before = PagePool::process_mapped_bytes();
      {
        std::optional<ShardSet> set;
        set.emplace(*omission, options, pool.as_parallel_for(), nullptr,
                    sharding);
        DepthAnalysis got = set->analyze(3);
        ASSERT_EQ(got.truncated, truncated) << ctx;
        set.reset();
        std::size_t level_bytes = 0;
        for (const Level& level : got.levels) {
          level_bytes += level.mapped_bytes();
        }
        EXPECT_GT(level_bytes, 0u) << ctx;
        const std::size_t with_levels = PagePool::process_mapped_bytes();
        got.levels.clear();
        EXPECT_EQ(with_levels - PagePool::process_mapped_bytes(),
                  level_bytes)
            << ctx;
      }
      EXPECT_EQ(PagePool::process_mapped_bytes(), mapped_before) << ctx;
    }
  }
}

// The parallel absorb of several shards, one view depth at a time,
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
    std::vector<AbsorbSource> sources;
    for (std::size_t r = 0; r < kShards; ++r) {
      sources.push_back({&shards[r], &two_phase_remaps[r]});
    }
    for (int depth = 0; depth < 4; ++depth) {
      absorb_depth(two_phase, sources, depth, pool.as_parallel_for());
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

// A depth-1 view of the ordered-absorb test: process q hears every
// process, whose inputs are x[0], x[1], x[2]. Keys are coded as
// q * kInputs^3 + x[0] * kInputs^2 + x[1] * kInputs + x[2].
constexpr Value kInputs = 40;
constexpr int kCodes = 3 * kInputs * kInputs * kInputs;

ViewId intern_code(ViewInterner& interner, int code) {
  const ProcessId q = code / (kInputs * kInputs * kInputs);
  std::vector<ViewId> senders(3);
  for (int p = 2; p >= 0; --p) {
    senders[static_cast<std::size_t>(p)] = interner.base(p, code % kInputs);
    code /= kInputs;
  }
  return interner.step(q, 0b111, senders);
}

// Sources big enough that source 0's depth-1 views span three blocks of
// the rank order (kParallelBlock ranks each), drawn at random from one
// key space, so that many keys occur in several sources, in blocks far
// apart; some keys are in the shared interner already. The absorb must
// keep each key's first occurrence in (source, private id) order: the
// remaps and the interner equal absorb_from's, node by node, on pools
// {1, 4, 8} and on a ParallelFor that runs the blocks last to first, so
// that a key's higher-rank copy always enters the scratch table first
// and must give way.
TEST(ParallelAssembly, OrderedAbsorbKeepsFirstOccurrenceAcrossBlocks) {
  const std::size_t kDepthOne[] = {2 * kParallelBlock + 5000, 30000, 30000};
  constexpr std::size_t kDepthTwo = 8000;
  constexpr std::size_t kKnown = 4000;  // keys `into` holds beforehand
  constexpr std::size_t kSources = std::size(kDepthOne);
  const ParallelFor reversed = [](std::size_t count,
                                  const std::function<void(std::size_t)>& fn) {
    for (std::size_t i = count; i-- > 0;) fn(i);
  };
  for (const int threads : {1, 4, 8, 0}) {  // 0: the reversed ParallelFor
    const std::string ctx = threads == 0
                                ? std::string("reversed blocks")
                                : "threads=" + std::to_string(threads);
    std::mt19937_64 rng(2019);
    std::vector<int> codes(kCodes);
    for (int c = 0; c < kCodes; ++c) codes[static_cast<std::size_t>(c)] = c;
    std::vector<ViewInterner> shards(kSources);
    std::vector<std::vector<int>> drawn(kSources);
    // Depth 0: every base view, in an order of its own per source.
    for (std::size_t r = 0; r < kSources; ++r) {
      std::vector<int> bases(3 * kInputs);
      for (int b = 0; b < 3 * kInputs; ++b) {
        bases[static_cast<std::size_t>(b)] = b;
      }
      std::shuffle(bases.begin(), bases.end(), rng);
      for (const int b : bases) shards[r].base(b / kInputs, b % kInputs);
    }
    std::optional<sweep::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    const ParallelFor parallel_for =
        threads > 0 ? pool->as_parallel_for() : reversed;
    ViewInterner parallel;
    ViewInterner serial;
    std::vector<std::vector<ViewId>> parallel_remaps(kSources);
    std::vector<std::vector<ViewId>> serial_remaps(kSources);
    std::vector<AbsorbSource> sources;
    for (std::size_t r = 0; r < kSources; ++r) {
      sources.push_back({&shards[r], &parallel_remaps[r]});
    }
    for (int depth = 0; depth <= 2; ++depth) {
      if (depth == 1) {
        // Some keys are known to the shared interner already.
        std::shuffle(codes.begin(), codes.end(), rng);
        for (std::size_t k = 0; k < kKnown; ++k) {
          intern_code(parallel, codes[k]);
          intern_code(serial, codes[k]);
        }
        for (std::size_t r = 0; r < kSources; ++r) {
          std::shuffle(codes.begin(), codes.end(), rng);
          drawn[r].assign(codes.begin(), codes.begin() + kDepthOne[r]);
          for (const int code : drawn[r]) intern_code(shards[r], code);
        }
      } else if (depth == 2) {
        for (std::size_t r = 0; r < kSources; ++r) {
          // The depth-1 views of each process, by private id.
          std::vector<std::vector<ViewId>> by_process(3);
          for (auto id = static_cast<ViewId>(3 * kInputs);
               static_cast<std::size_t>(id) < shards[r].size(); ++id) {
            by_process[static_cast<std::size_t>(shards[r].node(id).process)]
                .push_back(id);
          }
          for (std::size_t k = 0; k < kDepthTwo; ++k) {
            std::vector<ViewId> senders;
            for (const std::vector<ViewId>& views : by_process) {
              // Half of the draws come from the first 16 views, so
              // depth 2 has cross-source duplicates too.
              const std::size_t range = k % 2 == 0 ? 16 : views.size();
              senders.push_back(views[rng() % range]);
            }
            shards[r].step(static_cast<ProcessId>(k % 3), 0b111, senders);
          }
        }
      }
      const std::size_t views_before = parallel.size();
      const std::size_t misses =
          absorb_depth(parallel, sources, depth, parallel_for);
      for (std::size_t r = 0; r < kSources; ++r) {
        serial.absorb_from(shards[r], serial_remaps[r]);
      }
      const std::string at = ctx + " depth=" + std::to_string(depth);
      EXPECT_EQ(parallel_remaps, serial_remaps) << at;
      expect_same_interner(serial, parallel, at);
      if (depth == 1) {
        std::size_t offered = 0;
        for (std::size_t r = 0; r < kSources; ++r) offered += kDepthOne[r];
        EXPECT_LT(misses, offered) << at;  // the known keys hit
        EXPECT_LT(parallel.size() - views_before, misses) << at;
      }
    }
    // The construction has what the test is about: keys of source 0's
    // first block that recur in the other sources' blocks.
    const std::set<int> first_block(drawn[0].begin(),
                                    drawn[0].begin() + kParallelBlock);
    std::size_t recurring = 0;
    for (std::size_t r = 1; r < kSources; ++r) {
      for (const int code : drawn[r]) recurring += first_block.count(code);
    }
    EXPECT_GT(recurring, 1000u) << ctx;
  }
}

}  // namespace
}  // namespace topocon
