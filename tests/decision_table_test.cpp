// Tests for the extracted universal algorithm (Theorem 5.5): the decision
// table must decide every admissible sequence by the certified depth, obey
// the ball-containment rule, and satisfy Termination/Agreement/Validity
// exhaustively over all admissible prefixes.
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "adversary/sampler.hpp"
#include "core/solvability.hpp"

namespace topocon {
namespace {

// Exhaustive ground-truth harness: for a solvable adversary, walk every
// admissible letter sequence of the certified depth for every input vector
// and check the table's decisions.
void exhaustive_check(const MessageAdversary& ma, int num_values = 2) {
  SolvabilityOptions options;
  options.max_depth = 6;
  options.num_values = num_values;
  const SolvabilityResult result = check_solvability(ma, options);
  ASSERT_EQ(result.verdict, SolvabilityVerdict::kSolvable) << ma.name();
  ASSERT_TRUE(result.table.has_value());
  const DecisionTable& table = *result.table;
  const int depth = result.certified_depth;
  ViewInterner& interner = *table.interner();

  const auto sequences = enumerate_letter_sequences(ma, depth);
  for (const InputVector& inputs :
       all_input_vectors(ma.num_processes(), num_values)) {
    for (const auto& letters : sequences) {
      // Replay the run round by round, tracking per-process decisions.
      ViewVector views = interner.initial(inputs);
      std::vector<std::optional<Value>> decided(
          static_cast<std::size_t>(ma.num_processes()));
      for (int p = 0; p < ma.num_processes(); ++p) {
        decided[static_cast<std::size_t>(p)] =
            table.decide(0, p, views[static_cast<std::size_t>(p)]);
      }
      for (int t = 1; t <= depth; ++t) {
        views = interner.advance(views,
                                 ma.graph(letters[static_cast<std::size_t>(
                                     t - 1)]));
        for (int p = 0; p < ma.num_processes(); ++p) {
          auto& d = decided[static_cast<std::size_t>(p)];
          if (!d.has_value()) {
            d = table.decide(t, p, views[static_cast<std::size_t>(p)]);
          }
        }
      }
      // Termination by the certified depth.
      Value common = -1;
      for (int p = 0; p < ma.num_processes(); ++p) {
        ASSERT_TRUE(decided[static_cast<std::size_t>(p)].has_value())
            << ma.name() << " inputs/letters undecided, p=" << p;
        // Agreement.
        const Value v = *decided[static_cast<std::size_t>(p)];
        if (common < 0) common = v;
        EXPECT_EQ(v, common);
      }
      // Validity.
      const Value uniform = uniform_value(inputs);
      if (uniform >= 0) {
        EXPECT_EQ(common, uniform);
      }
    }
  }
}

TEST(DecisionTable, ExhaustiveLossyLinkPair) {
  exhaustive_check(*make_lossy_link(0b011));
}

TEST(DecisionTable, ExhaustiveLossyLinkLeftBoth) {
  exhaustive_check(*make_lossy_link(0b101));
}

TEST(DecisionTable, ExhaustiveLossyLinkRightBoth) {
  exhaustive_check(*make_lossy_link(0b110));
}

TEST(DecisionTable, ExhaustiveSingletons) {
  exhaustive_check(*make_lossy_link(0b001));
  exhaustive_check(*make_lossy_link(0b010));
  exhaustive_check(*make_lossy_link(0b100));
}

TEST(DecisionTable, ExhaustiveOmissionN2) {
  exhaustive_check(*make_omission_adversary(2, 0));
}

TEST(DecisionTable, ExhaustiveOmissionN3F1) {
  exhaustive_check(*make_omission_adversary(3, 1));
}

TEST(DecisionTable, ExhaustiveTernaryValues) {
  exhaustive_check(*make_lossy_link(0b011), /*num_values=*/3);
}

TEST(DecisionTable, DecidedFractionReachesOne) {
  const SolvabilityResult result =
      check_solvability(*make_lossy_link(0b011));
  ASSERT_TRUE(result.table.has_value());
  const auto& fractions = result.table->decided_fraction();
  ASSERT_FALSE(fractions.empty());
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
  EXPECT_LE(result.table->worst_case_decision_round(),
            result.certified_depth);
  EXPECT_GT(result.table->size(), 0u);
}

TEST(DecisionTable, SaveLoadRoundTrip) {
  const auto ma = make_lossy_link(0b011);
  const SolvabilityResult result = check_solvability(*ma);
  ASSERT_TRUE(result.table.has_value());
  std::stringstream buffer;
  result.table->save(buffer);
  const DecisionTable loaded = DecisionTable::load(buffer);
  EXPECT_EQ(loaded.depth(), result.table->depth());
  EXPECT_EQ(loaded.num_values(), result.table->num_values());
  EXPECT_EQ(loaded.size(), result.table->size());
  EXPECT_EQ(loaded.decided_fraction(), result.table->decided_fraction());

  // The loaded table must drive identical decisions on every admissible
  // run (fresh interner, same structural ids).
  ViewInterner& interner = *loaded.interner();
  for (const auto& letters :
       enumerate_letter_sequences(*ma, loaded.depth())) {
    for (const InputVector& inputs : all_input_vectors(2, 2)) {
      RunPrefix prefix;
      prefix.inputs = inputs;
      prefix.graphs = letters_to_graphs(*ma, letters);
      const ViewVector views = interner.of_prefix(prefix);
      for (int p = 0; p < 2; ++p) {
        const auto from_loaded = loaded.decide(
            loaded.depth(), p, views[static_cast<std::size_t>(p)]);
        const ViewVector original_views =
            result.table->interner()->of_prefix(prefix);
        const auto from_original = result.table->decide(
            result.table->depth(), p,
            original_views[static_cast<std::size_t>(p)]);
        ASSERT_TRUE(from_loaded.has_value());
        EXPECT_EQ(from_loaded, from_original);
      }
    }
  }
}

TEST(DecisionTable, LoadRejectsGarbage) {
  const std::string head = "topocon-decision-table-v1\n2 2\n";
  // Two base views of processes 0 and 1 (ids 0, 1) and a depth-1 view of
  // process 1 (id 2), then a fourth record under test.
  const std::string nodes = head + "interner 4\nB 0 0\nB 1 0\nS 1 3 2 0 1\n";
  const std::string tail = "levels 0\nfractions 0\n";
  for (const std::string& text : {
           std::string("not-a-table at all"),
           head + "interner 5\n",
           // A step view whose sender count is not its in-mask popcount.
           head + "interner 2\nB 0 0\nS 0 1 2 0 0\n" + tail,
           // Counts that would size a container from the stream.
           head + "interner 0\nlevels 0\nfractions 99999999999\n",
           head + "interner 0\nlevels 99999999999\n",
           head + "interner 0\nlevels 1\nlevel 99999999999\n",
           head + "interner 99999999999\n",
           head + "interner 1\nS 0 1 99999999999\n",
           // Negative base process or input.
           head + "interner 1\nB -1 0\n" + tail,
           head + "interner 1\nB 0 -1\n" + tail,
           // Receiver out of range, or missing from its own in-mask.
           nodes + "S 16 65536 1 0\n" + tail,
           nodes + "S -1 1 1 0\n" + tail,
           nodes + "S 0 2 1 1\n" + tail,
           // Senders out of process order, and at mixed depths.
           nodes + "S 0 3 2 1 0\n" + tail,
           nodes + "S 0 3 2 0 2\n" + tail,
       }) {
    std::stringstream in(text);
    EXPECT_THROW((void)DecisionTable::load(in), std::runtime_error) << text;
  }
  // The fixture itself is well formed.
  std::stringstream good(nodes + "S 0 3 2 0 1\n" + tail);
  EXPECT_NO_THROW((void)DecisionTable::load(good));
}

TEST(DecisionTable, NoDecisionForUnknownView) {
  const SolvabilityResult result =
      check_solvability(*make_lossy_link(0b011));
  ASSERT_TRUE(result.table.has_value());
  // A view id that does not occur at round 0 in the table.
  EXPECT_FALSE(result.table->decide(0, 0, ViewId{999999}).has_value());
  EXPECT_FALSE(result.table->decide(-1, 0, 0).has_value());
  EXPECT_FALSE(result.table->decide(99, 0, 0).has_value());
}

}  // namespace
}  // namespace topocon
