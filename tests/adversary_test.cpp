// Tests for the message-adversary families: safety automata, liveness
// lassos, sampling guarantees, the non-compactness exhibits of
// Section 6.3 (admissible chains whose letter-wise limits are excluded),
// and the distinct-letters invariant of every alphabet.
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/compose.hpp"
#include "adversary/finite_loss.hpp"
#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "adversary/oblivious.hpp"
#include "adversary/sampler.hpp"
#include "adversary/vssc.hpp"
#include "graph/enumerate.hpp"
#include "graph/scc.hpp"

namespace topocon {
namespace {

TEST(Oblivious, EverythingAllowedAlways) {
  const auto ma = make_lossy_link(0b111);
  EXPECT_EQ(ma->alphabet_size(), 3);
  EXPECT_TRUE(ma->is_compact());
  AdvState s = ma->initial_state();
  for (int letter = 0; letter < 3; ++letter) {
    EXPECT_NE(ma->transition(s, letter), kRejectState);
  }
  EXPECT_TRUE(ma->admits_lasso({0, 1}, {2}));
  EXPECT_FALSE(ma->admits_lasso({0}, {}));  // empty cycle is no sequence
}

// ------------------------------------------------------ distinct letters

/// The std::invalid_argument message of constructing `alphabet`, or ""
/// if it constructs.
std::string rejection_of(std::vector<Digraph> alphabet) {
  try {
    const ObliviousAdversary ma(2, std::move(alphabet), "dup");
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Alphabet, RepeatedGraphIsRejectedWithExactMessage) {
  const Digraph right = Digraph::from_edges(2, {{0, 1}});
  const Digraph left = Digraph::from_edges(2, {{1, 0}});
  const Digraph both = Digraph::complete(2);
  EXPECT_EQ(rejection_of({right, left, right}),
            "message adversary 'dup': letters 0 and 2 are the same graph "
            "{0->1}");
  // Several repeats: the first letter that repeats an earlier one is
  // named, with that earlier letter.
  EXPECT_EQ(rejection_of({both, left, right, left, both}),
            "message adversary 'dup': letters 1 and 3 are the same graph "
            "{1->0}");
  EXPECT_EQ(rejection_of({left, right, both}), "");
}

TEST(Alphabet, CombinatorsDedupTheirAlphabets) {
  // Overlapping component alphabets: the product keeps the common graphs
  // once, the union every graph once.
  std::vector<std::unique_ptr<MessageAdversary>> product_parts;
  product_parts.push_back(make_lossy_link(0b111));
  product_parts.push_back(make_lossy_link(0b011));
  const ProductAdversary product(std::move(product_parts));
  EXPECT_EQ(product.alphabet_size(), 2);

  std::vector<std::unique_ptr<MessageAdversary>> union_parts;
  union_parts.push_back(make_lossy_link(0b011));
  union_parts.push_back(make_lossy_link(0b110));
  union_parts.push_back(make_lossy_link(0b111));
  const UnionAdversary united(std::move(union_parts));
  EXPECT_EQ(united.alphabet_size(), 3);
}

TEST(LossyLink, SubsetsSelectGraphs) {
  const auto left_only = make_lossy_link(0b001);
  ASSERT_EQ(left_only->alphabet_size(), 1);
  EXPECT_TRUE(left_only->graph(0).has_edge(1, 0));
  EXPECT_FALSE(left_only->graph(0).has_edge(0, 1));
  const auto pair = make_lossy_link(0b011);
  EXPECT_EQ(pair->alphabet_size(), 2);
  EXPECT_EQ(lossy_link_subset_name(0b101), "{<-, <->}");
}

TEST(Omission, AlphabetMatchesBudget) {
  const auto ma = make_omission_adversary(3, 2);
  for (int letter = 0; letter < ma->alphabet_size(); ++letter) {
    EXPECT_LE(ma->graph(letter).num_omissions(), 2);
  }
  EXPECT_EQ(make_omission_adversary(3, 0)->alphabet_size(), 1);
  EXPECT_EQ(make_omission_adversary(3, 6)->alphabet_size(), 64);
}

TEST(Sampler, SampleRespectsSafety) {
  std::mt19937_64 rng(3);
  const auto ma = make_lossy_link(0b011);
  const auto letters = ma->sample(rng, 32);
  EXPECT_EQ(letters.size(), 32u);
  EXPECT_FALSE(ma->safety_rejects(letters));
  for (const int letter : letters) {
    EXPECT_GE(letter, 0);
    EXPECT_LT(letter, 2);
  }
}

TEST(Sampler, EnumerateLetterSequencesCount) {
  const auto ma = make_lossy_link(0b111);
  EXPECT_EQ(enumerate_letter_sequences(*ma, 0).size(), 1u);
  EXPECT_EQ(enumerate_letter_sequences(*ma, 3).size(), 27u);
}

TEST(Sampler, PrefixMaterialization) {
  std::mt19937_64 rng(4);
  const auto ma = make_omission_adversary(3, 1);
  const RunPrefix prefix = sample_prefix(*ma, {0, 1, 1}, 5, rng);
  EXPECT_EQ(prefix.length(), 5);
  EXPECT_EQ(prefix.num_processes(), 3);
  for (const Digraph& g : prefix.graphs) {
    EXPECT_LE(g.num_omissions(), 1);
  }
}

// ------------------------------------------------------------ finite loss

TEST(FiniteLoss, ClosureIsEverything) {
  const FiniteLossAdversary ma(2);
  EXPECT_FALSE(ma.is_compact());
  EXPECT_EQ(ma.alphabet_size(), 4);  // all graphs on 2 nodes
  AdvState s = ma.initial_state();
  for (int letter = 0; letter < ma.alphabet_size(); ++letter) {
    EXPECT_NE(ma.transition(s, letter), kRejectState);
  }
}

TEST(FiniteLoss, LassoLivenessRequiresCompleteCycle) {
  const FiniteLossAdversary ma(2);
  const int complete = ma.complete_letter();
  const int lossy = complete == 0 ? 1 : 0;
  EXPECT_TRUE(ma.admits_lasso({lossy, lossy, lossy}, {complete}));
  EXPECT_FALSE(ma.admits_lasso({complete}, {lossy}));
  EXPECT_FALSE(ma.admits_lasso({}, {complete, lossy}));
}

TEST(FiniteLoss, SamplesEndComplete) {
  std::mt19937_64 rng(8);
  const FiniteLossAdversary ma(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto letters = ma.sample(rng, 16);
    ASSERT_EQ(letters.size(), 16u);
    for (std::size_t t = 8; t < letters.size(); ++t) {
      EXPECT_EQ(letters[t], ma.complete_letter());
    }
  }
}

// The Section 6.3 non-compactness exhibit: the single-loss sequences
// converge letter-wise to the all-loss sequence, which is not admissible.
TEST(FiniteLoss, NonCompactnessExhibit) {
  const FiniteLossAdversary ma(2);
  const int complete = ma.complete_letter();
  int empty = -1;
  for (int letter = 0; letter < ma.alphabet_size(); ++letter) {
    if (ma.graph(letter) == Digraph::empty(2)) empty = letter;
  }
  ASSERT_GE(empty, 0);
  // a_k = empty^k . complete^w is admissible for every k ...
  for (int k = 0; k < 8; ++k) {
    std::vector<int> stem(static_cast<std::size_t>(k), empty);
    EXPECT_TRUE(ma.admits_lasso(stem, {complete}));
  }
  // ... but the letter-wise limit empty^w is not.
  EXPECT_FALSE(ma.admits_lasso({}, {empty}));
}

// ------------------------------------------------------------------ VSSC

TEST(Vssc, AlphabetIsRootedGraphs) {
  const VsscAdversary ma(3, 4);
  EXPECT_FALSE(ma.is_compact());
  for (int letter = 0; letter < ma.alphabet_size(); ++letter) {
    EXPECT_TRUE(is_rooted(ma.graph(letter)));
    EXPECT_EQ(ma.root_of(letter), root_members(ma.graph(letter)));
  }
}

TEST(Vssc, StableWindowDetection) {
  const VsscAdversary ma(2, 3);
  // Find two letters with different roots.
  int a = -1, b = -1;
  for (int letter = 0; letter < ma.alphabet_size(); ++letter) {
    if (ma.root_of(letter) == NodeMask{0b01}) a = letter;
    if (ma.root_of(letter) == NodeMask{0b10}) b = letter;
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_FALSE(ma.has_stable_window({a, b, a, b, a, b}));
  EXPECT_TRUE(ma.has_stable_window({b, a, a, a, b}));
  EXPECT_TRUE(ma.admits_lasso({a, a, a}, {b}));
  EXPECT_FALSE(ma.admits_lasso({a, a}, {b, a}));
  // A cycle that is itself stable admits the lasso.
  EXPECT_TRUE(ma.admits_lasso({}, {b}));
}

TEST(Vssc, SamplesContainStableWindow) {
  std::mt19937_64 rng(21);
  const VsscAdversary ma(3, 6);
  for (int trial = 0; trial < 20; ++trial) {
    const auto letters = ma.sample(rng, 24);
    EXPECT_TRUE(ma.has_stable_window(letters));
  }
}

// The non-compactness exhibit for VSSC: alternating roots forever is the
// limit of sequences whose stable window moves later and later.
TEST(Vssc, NonCompactnessExhibit) {
  const VsscAdversary ma(2, 2);
  int a = -1, b = -1;
  for (int letter = 0; letter < ma.alphabet_size(); ++letter) {
    if (ma.root_of(letter) == NodeMask{0b01}) a = letter;
    if (ma.root_of(letter) == NodeMask{0b10}) b = letter;
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  for (int k = 1; k < 6; ++k) {
    // alternate for 2k rounds, then stabilize: admissible.
    std::vector<int> stem;
    for (int i = 0; i < k; ++i) {
      stem.push_back(a);
      stem.push_back(b);
    }
    EXPECT_TRUE(ma.admits_lasso(stem, {a}));
  }
  // The limit alternates forever: not admissible.
  EXPECT_FALSE(ma.admits_lasso({}, {a, b}));
}

}  // namespace
}  // namespace topocon
