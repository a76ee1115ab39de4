// Cross-validation of the broadcaster-intersection heuristic (CGP-inspired
// baseline, analysis/root_heuristic.hpp) against the topological checker.
#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "adversary/oblivious.hpp"
#include "analysis/root_heuristic.hpp"
#include "core/solvability.hpp"
#include "adversary/sampler.hpp"
#include "graph/enumerate.hpp"
#include "runtime/simulator.hpp"
#include "runtime/universal_runner.hpp"
#include "runtime/verify.hpp"

namespace topocon {
namespace {

SolvabilityVerdict checker_verdict(int n, std::vector<Digraph> alphabet,
                                   int max_depth,
                                   std::size_t max_states = 2'000'000) {
  const ObliviousAdversary ma(n, std::move(alphabet), "xval");
  SolvabilityOptions options;
  options.max_depth = max_depth;
  options.max_states = max_states;
  options.build_table = false;
  return check_solvability(ma, options).verdict;
}

// Exhaustive n = 2: all 15 nonempty alphabets over {empty, <-, ->, <->}.
TEST(RootHeuristic, ExhaustiveN2) {
  const auto graphs = all_graphs(2);
  ASSERT_EQ(graphs.size(), 4u);
  for (unsigned mask = 1; mask < 16; ++mask) {
    std::vector<Digraph> alphabet;
    for (int i = 0; i < 4; ++i) {
      if ((mask >> i) & 1u) alphabet.push_back(graphs[static_cast<std::size_t>(i)]);
    }
    const bool heuristic = root_intersection_heuristic(alphabet).solvable;
    const SolvabilityVerdict verdict = checker_verdict(2, alphabet, 6);
    if (heuristic) {
      EXPECT_EQ(verdict, SolvabilityVerdict::kSolvable) << "mask " << mask;
    } else {
      EXPECT_EQ(verdict, SolvabilityVerdict::kNotSeparated)
          << "mask " << mask;
    }
  }
}

// Randomized n = 3 suite. The broadcaster-intersection heuristic is exact
// for n = 2 but provably diverges from the truth for n = 3 in BOTH
// directions (the beta-relation of the full CGP theorem is neither
// implied by nor implies broadcaster intersection). This suite documents
// that: it counts both disagreement kinds against the topological
// checker, whose SOLVABLE verdicts are machine-verified certificates.
TEST(RootHeuristic, RandomizedN3DisagreementCensus) {
  std::mt19937_64 rng(4242);
  const auto graphs = all_graphs(3);
  int optimistic = 0;   // heuristic solvable, checker merged
  int pessimistic = 0;  // heuristic unsolvable, checker certified
  for (int trial = 0; trial < 60; ++trial) {
    const int size = 1 + static_cast<int>(rng() % 3);
    std::vector<Digraph> alphabet;
    for (int k = 0; k < size; ++k) {
      // An oblivious adversary is a graph SET: repeated draws add nothing
      // (and MessageAdversary rejects repeated letters).
      const Digraph& g = graphs[rng() % graphs.size()];
      if (std::find(alphabet.begin(), alphabet.end(), g) == alphabet.end()) {
        alphabet.push_back(g);
      }
    }
    const bool heuristic = root_intersection_heuristic(alphabet).solvable;
    const SolvabilityVerdict verdict =
        checker_verdict(3, alphabet, 4, 4'000'000);
    if (heuristic && verdict == SolvabilityVerdict::kNotSeparated) {
      ++optimistic;
    }
    if (!heuristic && verdict == SolvabilityVerdict::kSolvable) {
      ++pessimistic;
    }
  }
  // Both failure modes are real and present in this seeded suite.
  EXPECT_GE(optimistic, 1);
  EXPECT_GE(pessimistic, 1);
}

// Pinned counterexample 1 (heuristic too optimistic): broadcaster classes
// {G1, G2} (common broadcaster 1) and {G3} (broadcaster 0) suggest
// solvability, but the valence regions stay in one merged component
// through depth 7.
TEST(RootHeuristic, KnownOptimisticCounterexampleN3) {
  const std::vector<Digraph> alphabet = {
      Digraph::from_edges(3, {{1, 0}, {1, 2}, {2, 0}, {2, 1}}),
      Digraph::from_edges(3, {{0, 2}, {1, 0}, {2, 0}}),
      Digraph::from_edges(3, {{0, 2}, {2, 1}}),
  };
  EXPECT_TRUE(root_intersection_heuristic(alphabet).solvable);
  EXPECT_EQ(checker_verdict(3, alphabet, 5, 4'000'000),
            SolvabilityVerdict::kNotSeparated);
}

// Pinned counterexample 2 (heuristic too pessimistic): the heuristic's
// single class has empty broadcaster intersection, yet the checker
// certifies consensus -- and the certificate survives exhaustive
// simulation (integration-style replay below).
TEST(RootHeuristic, KnownPessimisticCounterexampleN3) {
  const std::vector<Digraph> alphabet = {
      Digraph::from_edges(3, {{0, 1}, {0, 2}, {1, 0}, {1, 2}}),
      Digraph::from_edges(3, {{0, 1}, {0, 2}, {1, 2}, {2, 0}}),
      Digraph::from_edges(3, {{0, 1}, {1, 0}, {2, 0}}),
  };
  EXPECT_FALSE(root_intersection_heuristic(alphabet).solvable);

  const ObliviousAdversary ma(3, alphabet, "pessimistic-cx");
  SolvabilityOptions options;
  options.max_depth = 4;
  options.max_states = 4'000'000;
  const SolvabilityResult result = check_solvability(ma, options);
  ASSERT_EQ(result.verdict, SolvabilityVerdict::kSolvable);
  const UniversalAlgorithm algo(*result.table);
  for (const auto& letters :
       enumerate_letter_sequences(ma, result.certified_depth)) {
    for (const InputVector& inputs : all_input_vectors(3, 2)) {
      RunPrefix prefix;
      prefix.inputs = inputs;
      prefix.graphs = letters_to_graphs(ma, letters);
      const ConsensusCheck check =
          check_consensus(simulate(algo, prefix), inputs);
      ASSERT_TRUE(check.ok()) << prefix.to_string() << check.detail;
    }
  }
}

TEST(RootHeuristic, ClassStructureOnLossyLink) {
  const auto lossy = lossy_link_graphs();
  const RootHeuristicResult full = root_intersection_heuristic(lossy);
  EXPECT_FALSE(full.solvable);
  ASSERT_EQ(full.class_members.size(), 1u);  // <-> bridges <- and ->
  EXPECT_EQ(full.class_broadcasters[0], NodeMask{0});

  const RootHeuristicResult pair =
      root_intersection_heuristic({lossy[0], lossy[1]});
  EXPECT_TRUE(pair.solvable);
  EXPECT_EQ(pair.class_members.size(), 2u);  // disjoint broadcasters
}

TEST(RootHeuristic, NonRootedGraphPoisonsItsClass) {
  EXPECT_FALSE(root_intersection_heuristic({Digraph::empty(2)}).solvable);
  // Even together with the complete graph, the non-rooted empty graph
  // forms a broadcaster-free class of its own: unsolvable (the adversary
  // can play silence forever).
  const RootHeuristicResult r = root_intersection_heuristic(
      {Digraph::empty(3), Digraph::complete(3)});
  EXPECT_FALSE(r.solvable);
}

}  // namespace
}  // namespace topocon
