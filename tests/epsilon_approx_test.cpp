// Tests for the depth-t epsilon-approximation (Definition 6.2): component
// structure on the touchstone adversaries, the refinement laws of
// Lemma 6.3, one leaf per admissible prefix, and consistency of the BFS
// with direct per-prefix computation.
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
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
