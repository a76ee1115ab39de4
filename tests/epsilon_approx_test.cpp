// Tests for the depth-t epsilon-approximation (Definition 6.2): component
// structure on the touchstone adversaries, the refinement laws of
// Lemma 6.3, one leaf per admissible prefix, and consistency of the BFS
// with direct per-prefix computation.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/compose.hpp"
#include "adversary/heard_of.hpp"
#include "adversary/lossy_link.hpp"
#include "adversary/mobile_failure.hpp"
#include "adversary/omission.hpp"
#include "core/epsilon_approx.hpp"
#include "ptg/reach.hpp"

namespace topocon {
namespace {

AnalysisOptions opts(int depth, bool keep = true) {
  AnalysisOptions o;
  o.depth = depth;
  o.keep_levels = keep;
  return o;
}

// ---- StateVector, the PrefixState column: both storage modes.

using Column = StateVector<std::int32_t>;
constexpr std::size_t kInline = Column::kInline;

Column iota_column(std::size_t count, std::int32_t first) {
  Column column;
  column.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    column[i] = first + static_cast<std::int32_t>(i);
  }
  return column;
}

TEST(StateVector, LayoutMatchesAVector) {
  EXPECT_EQ(sizeof(Column), sizeof(std::vector<std::int32_t>));
}

TEST(StateVector, CopyAndMoveInBothModes) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{3}, kInline,
                                  kInline + 1, std::size_t{12}}) {
    const Column original = iota_column(count, 7);
    ASSERT_EQ(original.size(), count);
    Column copy(original);
    EXPECT_EQ(copy, original) << count;
    if (count > 0) {
      copy[0] = -1;  // a deep copy: the original keeps its entry
      EXPECT_EQ(original[0], 7) << count;
      EXPECT_NE(copy, original) << count;
    }
    Column moved(std::move(copy));
    EXPECT_EQ(moved.size(), count);
    EXPECT_TRUE(copy.empty());  // moved from: left empty
    Column assigned = iota_column(kInline + 3, 100);
    assigned = original;
    EXPECT_EQ(assigned, original) << count;
    Column move_assigned = iota_column(2, 100);
    move_assigned = std::move(assigned);
    EXPECT_EQ(move_assigned, original) << count;
    EXPECT_TRUE(assigned.empty());  // moved from: left empty
  }
}

TEST(StateVector, SelfAssignmentKeepsEntries) {
  for (const std::size_t count : {std::size_t{4}, std::size_t{9}}) {
    Column column = iota_column(count, 1);
    const Column expected = column;
    Column& alias = column;
    column = alias;
    EXPECT_EQ(column, expected) << count;
    column = std::move(alias);
    EXPECT_EQ(column, expected) << count;
    // assign() from its own entries, the whole run and a prefix of it.
    column.assign(std::span<const std::int32_t>(column.data(), count));
    EXPECT_EQ(column, expected) << count;
    column.assign(std::span<const std::int32_t>(column.data(), 2));
    EXPECT_EQ(column, iota_column(2, 1)) << count;
  }
}

TEST(StateVector, ResizeAndAssignAcrossTheInlineLimit) {
  using Entries = std::vector<std::int32_t>;
  Column column;
  column.resize(3);
  EXPECT_EQ(column, Entries({0, 0, 0}));
  column[1] = 5;
  column.resize(kInline + 2);  // inline -> heap keeps the prefix
  EXPECT_EQ(column, Entries({0, 5, 0, 0, 0, 0, 0}));
  column[kInline] = 9;
  column.resize(kInline + 4);  // heap -> heap
  EXPECT_EQ(column, Entries({0, 5, 0, 0, 0, 9, 0, 0, 0}));
  column.resize(2);  // heap -> inline
  EXPECT_EQ(column, Entries({0, 5}));
  column.resize(0);
  EXPECT_TRUE(column.empty());

  const Entries long_run = {1, 2, 3, 4, 5, 6, 7, 8};
  column.assign(long_run);  // inline -> heap
  EXPECT_EQ(column, long_run);
  const Entries same_length = {8, 7, 6, 5, 4, 3, 2, 1};
  column.assign(same_length);  // heap, same length: buffer reused
  EXPECT_EQ(column, same_length);
  column.assign(Entries{4, 4});  // heap -> inline
  EXPECT_EQ(column, Entries({4, 4}));
  column.assign(std::span<const std::int32_t>());
  EXPECT_TRUE(column.empty());
}

TEST(StateVector, EqualityComparesEntriesNotStorage) {
  // The same entries reached through the heap and inline are equal.
  Column shrunk = iota_column(kInline + 1, 0);
  shrunk.resize(kInline);
  EXPECT_EQ(shrunk, iota_column(kInline, 0));
  EXPECT_NE(iota_column(kInline, 0), iota_column(kInline + 1, 0));
  EXPECT_EQ(iota_column(kInline + 2, 3), iota_column(kInline + 2, 3));
  EXPECT_NE(iota_column(kInline + 2, 3), iota_column(kInline + 2, 4));
}

TEST(EpsilonApprox, LossyLinkPairSeparatesAtDepthOne) {
  const auto ma = make_lossy_link(0b011);  // {<-, ->}
  const DepthAnalysis analysis = analyze_depth(*ma, opts(1));
  EXPECT_TRUE(analysis.valence_separated);
  EXPECT_EQ(analysis.merged_components, 0);
  EXPECT_EQ(analysis.components.size(), 4u);
  EXPECT_TRUE(analysis.valent_broadcastable);
}

TEST(EpsilonApprox, LossyLinkFullStaysMerged) {
  const auto ma = make_lossy_link(0b111);  // {<-, ->, <->}
  for (int depth = 1; depth <= 5; ++depth) {
    const DepthAnalysis analysis = analyze_depth(*ma, opts(depth, false));
    EXPECT_FALSE(analysis.valence_separated) << "depth " << depth;
    EXPECT_GE(analysis.merged_components, 1) << "depth " << depth;
  }
}

TEST(EpsilonApprox, LossyLinkLeftBothSolvableByBroadcaster) {
  // {<-, <->}: process 1 is heard every round; separated and process 1 is
  // the broadcaster of every valent component.
  const auto ma = make_lossy_link(0b101);
  const DepthAnalysis analysis = analyze_depth(*ma, opts(1));
  EXPECT_TRUE(analysis.valence_separated);
  for (const ComponentInfo& info : analysis.components) {
    if (info.valence_mask != 0) {
      EXPECT_TRUE(mask_contains(info.broadcasters, 1));
    }
  }
}

TEST(EpsilonApprox, SingletonAlphabetSeparatesImmediately) {
  for (unsigned mask : {0b001u, 0b010u, 0b100u}) {
    const auto ma = make_lossy_link(mask);
    const DepthAnalysis analysis = analyze_depth(*ma, opts(2));
    EXPECT_TRUE(analysis.valence_separated) << mask;
    EXPECT_TRUE(analysis.valent_broadcastable) << mask;
  }
}

TEST(EpsilonApprox, DepthZeroIsFullyMergedForMultipleProcesses) {
  // At depth 0 only the inputs distinguish runs; flipping one coordinate
  // at a time keeps some process's view equal, so all input vectors form
  // one component containing both valences.
  const auto ma = make_lossy_link(0b111);
  const DepthAnalysis analysis = analyze_depth(*ma, opts(0));
  EXPECT_EQ(analysis.components.size(), 1u);
  EXPECT_FALSE(analysis.valence_separated);
}

// Lemma 6.3 (ii): epsilon-components refine as the depth grows -- the
// number of components is non-decreasing, and separation persists.
TEST(EpsilonApprox, ComponentsRefineWithDepth) {
  for (unsigned mask = 1; mask < 8; ++mask) {
    const auto ma = make_lossy_link(mask);
    auto interner = std::make_shared<ViewInterner>();
    std::size_t previous = 0;
    bool was_separated = false;
    for (int depth = 1; depth <= 4; ++depth) {
      const DepthAnalysis analysis =
          analyze_depth(*ma, opts(depth, false), interner);
      EXPECT_GE(analysis.components.size(), previous)
          << "subset " << mask << " depth " << depth;
      if (was_separated) {
        EXPECT_TRUE(analysis.valence_separated)
            << "separation must persist; subset " << mask;
      }
      previous = analysis.components.size();
      was_separated = analysis.valence_separated;
    }
  }
}

/// Number of admissible letter sequences of the given length: a DP over
/// the safety automaton's transition(), independent of the BFS.
std::uint64_t admissible_sequences(const MessageAdversary& ma, int length) {
  std::map<AdvState, std::uint64_t> ways{{ma.initial_state(), 1}};
  for (int t = 0; t < length; ++t) {
    std::map<AdvState, std::uint64_t> next;
    for (const auto& [state, count] : ways) {
      for (int letter = 0; letter < ma.alphabet_size(); ++letter) {
        const AdvState to = ma.transition(state, letter);
        if (to != kRejectState) next[to] += count;
      }
    }
    ways = std::move(next);
  }
  std::uint64_t total = 0;
  for (const auto& [state, count] : ways) total += count;
  return total;
}

// Each leaf is exactly one admissible prefix: self-loops plus distinct
// letters mean no two (input vector, letter sequence) pairs share a
// state, so there are |inputs| * #sequences leaves.
TEST(EpsilonApprox, EachLeafIsOneAdmissiblePrefix) {
  std::vector<std::unique_ptr<MessageAdversary>> adversaries;
  adversaries.push_back(make_lossy_link(0b111));
  adversaries.push_back(make_omission_adversary(3, 1));
  adversaries.push_back(make_heard_of_rounds_adversary(3, 2));
  adversaries.push_back(make_mobile_failure_adversary(3, 1));
  adversaries.push_back(make_composed_adversary(parse_compose_spec(
      R"({"op":"product","of":[{"family":"omission","n":3,"param":2},)"
      R"({"family":"mobile_failure","n":3,"param":2}]})")));
  for (const auto& ma : adversaries) {
    const std::uint64_t inputs =
        all_input_vectors(ma->num_processes(), 2).size();
    for (int depth = 0; depth <= 3; ++depth) {
      const DepthAnalysis analysis = analyze_depth(*ma, opts(depth, false));
      ASSERT_FALSE(analysis.truncated) << ma->name();
      EXPECT_EQ(analysis.leaves().size(),
                inputs * admissible_sequences(*ma, depth))
          << ma->name() << " depth " << depth;
    }
  }
}

// Every leaf's stored views and reach must match a from-scratch computation
// on a reconstructed concrete prefix.
TEST(EpsilonApprox, LeafStatesMatchReconstructedPrefixes) {
  const auto ma = make_omission_adversary(3, 2);
  const DepthAnalysis analysis = analyze_depth(*ma, opts(2));
  ASSERT_FALSE(analysis.truncated);
  std::mt19937_64 rng(1);
  const auto& leaves = analysis.leaves();
  for (int trial = 0; trial < 40; ++trial) {
    const int i = static_cast<int>(rng() % leaves.size());
    const auto prefix = reconstruct_prefix(*ma, analysis, i);
    ASSERT_TRUE(prefix.has_value());
    EXPECT_EQ(analysis.interner->of_prefix(*prefix),
              leaves[static_cast<std::size_t>(i)].views);
    EXPECT_EQ(reach_of_prefix(*prefix),
              leaves[static_cast<std::size_t>(i)].reach);
    EXPECT_EQ(prefix->inputs, leaves[static_cast<std::size_t>(i)].inputs);
  }
}

// Leaves sharing a view id must be in the same component, and components
// are minimal: the quotient graph on components has no cross edges.
TEST(EpsilonApprox, ComponentsAreViewClosedAndMinimal) {
  const auto ma = make_lossy_link(0b011);
  const DepthAnalysis analysis = analyze_depth(*ma, opts(3));
  const auto& leaves = analysis.leaves();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    for (std::size_t j = i + 1; j < leaves.size(); ++j) {
      bool share = false;
      for (int p = 0; p < 2; ++p) {
        if (leaves[i].views[static_cast<std::size_t>(p)] ==
            leaves[j].views[static_cast<std::size_t>(p)]) {
          share = true;
        }
      }
      if (share) {
        EXPECT_EQ(analysis.leaf_component[i], analysis.leaf_component[j]);
      }
    }
  }
}

// The broadcaster field obeys Theorem 5.9 / Corollary 5.10: a broadcaster's
// input value is uniform across its component.
TEST(EpsilonApprox, BroadcasterInputsUniform) {
  const auto ma = make_omission_adversary(3, 1);
  const DepthAnalysis analysis = analyze_depth(*ma, opts(2));
  const auto& leaves = analysis.leaves();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const auto& info =
        analysis.components[static_cast<std::size_t>(
            analysis.leaf_component[i])];
    NodeMask rest = info.broadcasters;
    while (rest != 0) {
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      // Compare against an arbitrary other leaf of the same component.
      for (std::size_t j = 0; j < leaves.size(); ++j) {
        if (analysis.leaf_component[j] == analysis.leaf_component[i]) {
          EXPECT_EQ(leaves[j].inputs[static_cast<std::size_t>(p)],
                    leaves[i].inputs[static_cast<std::size_t>(p)]);
        }
      }
    }
  }
}

TEST(EpsilonApprox, TruncationReportsCleanly) {
  const auto ma = make_omission_adversary(3, 6);  // alphabet of 64 graphs
  AnalysisOptions o = opts(4, false);
  o.max_states = 100;  // force overflow
  const DepthAnalysis analysis = analyze_depth(*ma, o);
  EXPECT_TRUE(analysis.truncated);
  EXPECT_LT(analysis.depth, 4);
  // The partial result is still a coherent analysis of the reached depth.
  EXPECT_FALSE(analysis.leaves().empty());
  EXPECT_EQ(analysis.leaf_component.size(), analysis.leaves().size());
}

TEST(EpsilonApprox, TernaryInputsSupported) {
  const auto ma = make_lossy_link(0b011);
  AnalysisOptions o = opts(2);
  o.num_values = 3;
  const DepthAnalysis analysis = analyze_depth(*ma, o);
  EXPECT_TRUE(analysis.valence_separated);
  // Three valent regions must exist.
  std::uint32_t seen = 0;
  for (const ComponentInfo& info : analysis.components) {
    seen |= info.valence_mask;
  }
  EXPECT_EQ(seen, 0b111u);
}

}  // namespace
}  // namespace topocon
