// Parameterized end-to-end sweeps (TEST_P matrices): every solvable
// configuration of the benchmark families runs the full pipeline --
// check, extract, simulate exhaustively, verify T/A/V (+ strong validity
// where requested) -- across input-domain sizes, window sizes, and
// adversary parameters.
//
// Every sweep is additionally re-run on pools of 1, 2, and
// hardware_concurrency() threads; component counts, valence sets, and
// verdicts must be bit-identical to the calling-thread run at every
// thread count (the level driver's determinism contract).
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "adversary/heard_of.hpp"
#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "adversary/sampler.hpp"
#include "adversary/windowed.hpp"
#include "analysis/oracles.hpp"
#include "core/solvability.hpp"
#include "runtime/simulator.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "runtime/universal_runner.hpp"
#include "runtime/verify.hpp"

namespace topocon {
namespace {

// Engine determinism: the checker on a pool must reproduce the
// calling-thread result bit-for-bit at every thread count.
void expect_parallel_matches(const MessageAdversary& ma,
                             const SolvabilityOptions& options,
                             const SolvabilityResult& serial) {
  const int hw = sweep::resolve_threads(0);
  for (const int threads : {1, 2, hw}) {
    sweep::ThreadPool pool(threads);
    const SolvabilityResult parallel =
        check_solvability(ma, options, pool.as_parallel_for());
    ASSERT_EQ(parallel.verdict, serial.verdict)
        << ma.name() << " at " << threads << " threads";
    EXPECT_EQ(parallel.certified_depth, serial.certified_depth);
    ASSERT_EQ(parallel.per_depth.size(), serial.per_depth.size());
    for (std::size_t d = 0; d < serial.per_depth.size(); ++d) {
      const DepthStats& a = serial.per_depth[d];
      const DepthStats& b = parallel.per_depth[d];
      EXPECT_EQ(a.num_leaf_classes, b.num_leaf_classes);
      EXPECT_EQ(a.num_components, b.num_components);
      EXPECT_EQ(a.merged_components, b.merged_components);
      EXPECT_EQ(a.separated, b.separated);
      EXPECT_EQ(a.valent_broadcastable, b.valent_broadcastable);
      EXPECT_EQ(a.strong_assignable, b.strong_assignable);
    }
    ASSERT_EQ(parallel.analysis.has_value(), serial.analysis.has_value());
    if (serial.analysis.has_value()) {
      const DepthAnalysis& sa = *serial.analysis;
      const DepthAnalysis& pa = *parallel.analysis;
      EXPECT_EQ(pa.leaf_component, sa.leaf_component);
      ASSERT_EQ(pa.components.size(), sa.components.size());
      for (std::size_t c = 0; c < sa.components.size(); ++c) {
        EXPECT_EQ(pa.components[c].valence_mask,
                  sa.components[c].valence_mask)
            << ma.name() << " component " << c;
        EXPECT_EQ(pa.components[c].num_leaves, sa.components[c].num_leaves);
        EXPECT_EQ(pa.components[c].broadcasters,
                  sa.components[c].broadcasters);
      }
    }
  }
}

// Runs the full pipeline; asserts solvability matches `expect_solvable`
// and, when solvable, exhaustively validates the extracted algorithm.
void pipeline(const MessageAdversary& ma, bool expect_solvable,
              int num_values, bool strong, int max_depth = 6,
              std::size_t max_states = 4'000'000) {
  SolvabilityOptions options;
  options.max_depth = max_depth;
  options.num_values = num_values;
  options.max_states = max_states;
  options.strong_validity = strong;
  const SolvabilityResult result = check_solvability(ma, options);
  expect_parallel_matches(ma, options, result);
  if (!expect_solvable) {
    EXPECT_NE(result.verdict, SolvabilityVerdict::kSolvable) << ma.name();
    return;
  }
  ASSERT_EQ(result.verdict, SolvabilityVerdict::kSolvable) << ma.name();
  const UniversalAlgorithm algo(*result.table);
  for (const auto& letters :
       enumerate_letter_sequences(ma, result.certified_depth)) {
    for (const InputVector& inputs :
         all_input_vectors(ma.num_processes(), num_values)) {
      RunPrefix prefix;
      prefix.inputs = inputs;
      prefix.graphs = letters_to_graphs(ma, letters);
      const ConsensusOutcome outcome = simulate(algo, prefix);
      const ConsensusCheck check = check_consensus(outcome, inputs);
      ASSERT_TRUE(strong ? check.ok_strong() : check.ok())
          << ma.name() << " " << prefix.to_string() << ": " << check.detail;
    }
  }
}

// ---- Lossy-link subsets x input-domain size x validity mode.
using LossyParam = std::tuple<unsigned, int, bool>;
class LossySweep : public ::testing::TestWithParam<LossyParam> {};

TEST_P(LossySweep, Pipeline) {
  const auto [mask, num_values, strong] = GetParam();
  pipeline(*make_lossy_link(mask), lossy_link_solvable(mask), num_values,
           strong);
}

INSTANTIATE_TEST_SUITE_P(
    AllSubsets, LossySweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u),
                       ::testing::Values(2, 3),
                       ::testing::Values(false, true)));

// ---- Windowed lossy link: window x validity mode.
using WindowedParam = std::tuple<int, bool>;
class WindowedSweep : public ::testing::TestWithParam<WindowedParam> {};

TEST_P(WindowedSweep, Pipeline) {
  const auto [window, strong] = GetParam();
  pipeline(*make_windowed_lossy_link(window), window >= 2, 2, strong, 8);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowedSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(false, true)));

// ---- Omission adversaries: (n, f) matrix against the SW threshold.
using OmissionParam = std::tuple<int, int>;
class OmissionSweep : public ::testing::TestWithParam<OmissionParam> {};

TEST_P(OmissionSweep, Pipeline) {
  const auto [n, f] = GetParam();
  const int max_depth = n == 2 ? 6 : 3;
  pipeline(*make_omission_adversary(n, f), omission_solvable(n, f), 2,
           /*strong=*/false, max_depth, 6'000'000);
}

INSTANTIATE_TEST_SUITE_P(Budgets, OmissionSweep,
                         ::testing::Values(OmissionParam{2, 0},
                                           OmissionParam{2, 1},
                                           OmissionParam{2, 2},
                                           OmissionParam{3, 0},
                                           OmissionParam{3, 1},
                                           OmissionParam{3, 2},
                                           OmissionParam{3, 3}));

// ---- Heard-Of: (n, k) matrix; solvable iff k = n.
using HeardOfParam = std::tuple<int, int>;
class HeardOfSweep : public ::testing::TestWithParam<HeardOfParam> {};

TEST_P(HeardOfSweep, Pipeline) {
  const auto [n, k] = GetParam();
  const int max_depth = n == 2 ? 5 : 2;
  pipeline(*make_heard_of_adversary(n, k), k == n, 2, /*strong=*/false,
           max_depth, 6'000'000);
}

INSTANTIATE_TEST_SUITE_P(Degrees, HeardOfSweep,
                         ::testing::Values(HeardOfParam{2, 1},
                                           HeardOfParam{2, 2},
                                           HeardOfParam{3, 2},
                                           HeardOfParam{3, 3}));

// ---- Serialization round-trips across solvable families.
class SerializationSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SerializationSweep, RoundTripPreservesDecisions) {
  const unsigned mask = GetParam();
  const auto ma = make_lossy_link(mask);
  const SolvabilityResult result = check_solvability(*ma);
  ASSERT_TRUE(result.table.has_value());
  std::stringstream buffer;
  result.table->save(buffer);
  const DecisionTable loaded = DecisionTable::load(buffer);
  const UniversalAlgorithm algo(loaded);
  for (const auto& letters :
       enumerate_letter_sequences(*ma, loaded.depth() + 1)) {
    for (const InputVector& inputs : all_input_vectors(2, 2)) {
      RunPrefix prefix;
      prefix.inputs = inputs;
      prefix.graphs = letters_to_graphs(*ma, letters);
      const ConsensusCheck check =
          check_consensus(simulate(algo, prefix), inputs);
      ASSERT_TRUE(check.ok()) << check.detail;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SolvableSubsets, SerializationSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace topocon
