// Larger-scale and adversarial-input stress tests: n = 4 adversaries,
// truncation boundaries, interner growth, and fuzzed analysis invariants.
#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "adversary/heard_of.hpp"
#include "adversary/oblivious.hpp"
#include "adversary/omission.hpp"
#include "adversary/sampler.hpp"
#include "adversary/vssc.hpp"
#include "core/solvability.hpp"
#include "graph/enumerate.hpp"
#include "runtime/simulator.hpp"
#include "runtime/universal_runner.hpp"
#include "runtime/verify.hpp"
#include "runtime/vssc_algo.hpp"

namespace topocon {
namespace {

TEST(StressN4, OmissionF1SolvableAndSound) {
  const auto ma = make_omission_adversary(4, 1);
  SolvabilityOptions options;
  options.max_depth = 4;
  options.max_states = 4'000'000;
  const SolvabilityResult result = check_solvability(*ma, options);
  ASSERT_EQ(result.verdict, SolvabilityVerdict::kSolvable);
  EXPECT_LE(result.certified_depth, 3);

  const UniversalAlgorithm algo(*result.table);
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const InputVector inputs = sample_inputs(4, 2, rng);
    const RunPrefix prefix =
        sample_prefix(*ma, inputs, result.certified_depth + 1, rng);
    const ConsensusOutcome outcome = simulate(algo, prefix);
    const ConsensusCheck check = check_consensus(outcome, inputs);
    ASSERT_TRUE(check.ok()) << check.detail;
  }
}

TEST(StressN4, OmissionF3NotSeparatedAtSmallDepth) {
  const auto ma = make_omission_adversary(4, 3);
  SolvabilityOptions options;
  options.max_depth = 2;
  options.max_states = 4'000'000;
  options.build_table = false;
  const SolvabilityResult result = check_solvability(*ma, options);
  EXPECT_EQ(result.verdict, SolvabilityVerdict::kNotSeparated);
}

TEST(StressN4, HeardOfThreeOfFourImpossibleEvidence) {
  const auto ma = make_heard_of_adversary(4, 3);
  SolvabilityOptions options;
  options.max_depth = 2;
  options.max_states = 4'000'000;
  options.build_table = false;
  EXPECT_EQ(check_solvability(*ma, options).verdict,
            SolvabilityVerdict::kNotSeparated);
}

TEST(StressN4, VsscAlgorithmScales) {
  std::mt19937_64 rng(31);
  const int n = 4;
  const VsscAdversary ma(n, 3 * n);
  const VsscConsensus algo(n);
  int decided = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const InputVector inputs = sample_inputs(n, 2, rng);
    const RunPrefix prefix = sample_prefix(ma, inputs, 6 * n, rng);
    const ConsensusOutcome outcome = simulate(algo, prefix);
    const ConsensusCheck check = check_consensus(outcome, inputs);
    EXPECT_TRUE(check.agreement && check.validity) << check.detail;
    decided += outcome.all_decided();
  }
  EXPECT_GE(decided, 20);
}

// Fuzz: random oblivious adversaries on n = 4 with tiny alphabets; the
// analysis must never crash, always partition leaves, keep one leaf per
// admissible prefix, and refine monotonically.
TEST(Fuzz, AnalysisInvariantsN4) {
  std::mt19937_64 rng(555);
  const auto graphs = all_graphs(4);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Digraph> alphabet;
    const int size = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < size; ++k) {
      alphabet.push_back(graphs[rng() % graphs.size()]);
    }
    const ObliviousAdversary ma(4, std::move(alphabet), "fuzz");
    auto interner = std::make_shared<ViewInterner>();
    std::size_t previous_components = 0;
    for (int depth = 1; depth <= 3; ++depth) {
      AnalysisOptions options;
      options.depth = depth;
      options.keep_levels = false;
      options.max_states = 500'000;
      const DepthAnalysis analysis = analyze_depth(ma, options, interner);
      if (analysis.truncated) break;
      // Partition invariant.
      ASSERT_EQ(analysis.leaf_component.size(), analysis.leaves().size());
      std::int64_t leaves_in_components = 0;
      for (const ComponentInfo& info : analysis.components) {
        leaves_in_components += info.num_leaves;
      }
      EXPECT_EQ(leaves_in_components,
                static_cast<std::int64_t>(analysis.leaves().size()));
      // One leaf per admissible prefix.
      std::uint64_t expect = 16;  // binary inputs, n = 4
      for (int t = 0; t < depth; ++t) {
        expect *= static_cast<std::uint64_t>(ma.alphabet_size());
      }
      EXPECT_EQ(analysis.leaves().size(), expect);
      // Refinement.
      EXPECT_GE(analysis.components.size(), previous_components);
      previous_components = analysis.components.size();
    }
  }
}

TEST(Fuzz, CertifiedRandomN4TablesAreSound) {
  std::mt19937_64 rng(777);
  const auto graphs = all_graphs(4);
  int certified = 0;
  for (int trial = 0; trial < 10 && certified < 3; ++trial) {
    std::vector<Digraph> alphabet = {graphs[rng() % graphs.size()],
                                     graphs[rng() % graphs.size()]};
    const ObliviousAdversary ma(4, std::move(alphabet), "fuzz-cert");
    SolvabilityOptions options;
    options.max_depth = 3;
    options.max_states = 500'000;
    const SolvabilityResult result = check_solvability(ma, options);
    if (result.verdict != SolvabilityVerdict::kSolvable) continue;
    ++certified;
    const UniversalAlgorithm algo(*result.table);
    for (const auto& letters :
         enumerate_letter_sequences(ma, result.certified_depth)) {
      for (const InputVector& inputs : all_input_vectors(4, 2)) {
        RunPrefix prefix;
        prefix.inputs = inputs;
        prefix.graphs = letters_to_graphs(ma, letters);
        const ConsensusCheck check =
            check_consensus(simulate(algo, prefix), inputs);
        ASSERT_TRUE(check.ok()) << prefix.to_string() << check.detail;
      }
    }
  }
}

TEST(Stress, InternerGrowthIsSharedAcrossDepths) {
  const auto ma = make_omission_adversary(3, 1);
  auto interner = std::make_shared<ViewInterner>();
  AnalysisOptions options;
  options.keep_levels = false;
  options.depth = 2;
  (void)analyze_depth(*ma, options, interner);
  const std::size_t after_first = interner->size();
  // Re-running the same depth adds nothing (full reuse).
  (void)analyze_depth(*ma, options, interner);
  EXPECT_EQ(interner->size(), after_first);
  // A deeper run only extends.
  options.depth = 3;
  (void)analyze_depth(*ma, options, interner);
  EXPECT_GT(interner->size(), after_first);
}

}  // namespace
}  // namespace topocon
