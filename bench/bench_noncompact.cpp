// E7 -- Section 6.3 / Figure 5: non-compact message adversaries. The
// finite-loss adversary ("only finitely many lossy rounds") is solvable --
// the AckConsensus algorithm decides in every admissible run -- yet its
// epsilon-approximation stays valence-merged at EVERY depth, exactly the
// failure mode the paper proves for non-compact adversaries: the analysis
// only ever sees the (unsolvable) closure, and the excluded limit
// sequences (infinitely lossy runs) are what keeps the approximation
// connected. The report regenerates:
//   (1) the non-compactness exhibit (admissible chain, inadmissible limit),
//   (2) the per-depth closure analysis (always merged),
//   (3) AckConsensus decision-round statistics as a function of the loss
//       phase -- the witness that the adversary itself is solvable.
#include <algorithm>
#include <memory>
#include <random>

#include "adversary/finite_loss.hpp"
#include "adversary/sampler.hpp"
#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/epsilon_approx.hpp"
#include "runtime/ack_consensus.hpp"
#include "runtime/simulator.hpp"
#include "runtime/verify.hpp"

namespace {

using namespace topocon;

void print_report(std::ostream& out) {
  out << "== E7: non-compact adversaries -- finite-loss (Section 6.3, "
         "Figure 5)\n\n";
  const int n = 3;
  const FiniteLossAdversary ma(n);

  out << "(1) Non-compactness: empty^k . complete^w is admissible for "
         "every k,\n    its letter-wise limit empty^w is not:\n";
  int empty_letter = -1;
  for (int letter = 0; letter < ma.alphabet_size(); ++letter) {
    if (ma.graph(letter) == Digraph::empty(n)) empty_letter = letter;
  }
  Table limits({"sequence", "admissible"});
  for (int k = 1; k <= 4; ++k) {
    std::vector<int> stem(static_cast<std::size_t>(k), empty_letter);
    limits.add_row({"empty^" + std::to_string(k) + " . complete^w",
                    yes_no(ma.admits_lasso(stem, {ma.complete_letter()}))});
  }
  limits.add_row({"empty^w (the limit)",
                  yes_no(ma.admits_lasso({}, {empty_letter}))});
  limits.print(out);

  out << "\n(2) Closure analysis: merged at every depth (the "
         "epsilon-approximation\n    cannot certify this solvable "
         "adversary):\n";
  api::Session session({.num_threads = bench_threads});
  AnalysisOptions closure_options;
  closure_options.depth = 3;
  closure_options.keep_levels = false;
  closure_options.max_states = 6'000'000;
  const auto outcomes = session.run(
      "E7-finite-loss-closure",
      {api::depth_series({"finite_loss", n, 0}, closure_options)});
  Table closure({"depth", "components", "merged", "separated"});
  for (const DepthStats& stats : outcomes[0].series) {
    closure.add_row({std::to_string(stats.depth),
                     std::to_string(stats.num_components),
                     std::to_string(stats.merged_components),
                     yes_no(stats.separated)});
  }
  closure.print(out);

  out << "\n(3) ...yet AckConsensus decides every admissible run "
         "(solvable):\n";
  Table ack({"loss phase L", "runs", "all T/A/V ok", "mean decision round",
             "max decision round"});
  std::mt19937_64 rng(99);
  const AckConsensus algo(n);
  for (int loss = 0; loss <= 10; loss += 2) {
    const int runs = 200;
    int ok = 0, max_round = 0;
    double sum_round = 0;
    for (int trial = 0; trial < runs; ++trial) {
      const InputVector inputs = sample_inputs(n, 2, rng);
      RunPrefix prefix;
      prefix.inputs = inputs;
      std::uniform_int_distribution<int> pick(0, ma.alphabet_size() - 1);
      for (int t = 0; t < loss; ++t) {
        prefix.graphs.push_back(ma.graph(pick(rng)));
      }
      for (int t = 0; t < 4; ++t) {
        prefix.graphs.push_back(Digraph::complete(n));
      }
      const ConsensusOutcome outcome = simulate(algo, prefix);
      if (check_consensus(outcome, inputs).ok()) ++ok;
      const int round = outcome.last_decision_round();
      sum_round += round;
      max_round = std::max(max_round, round);
    }
    ack.add_row({std::to_string(loss), std::to_string(runs),
                 yes_no(ok == runs), fmt(sum_round / runs, 2),
                 std::to_string(max_round)});
  }
  ack.print(out);
  out << "\nExpected shape: admissibility column flips only at the limit; "
         "closure\nstays merged; AckConsensus always correct with decision "
         "round tracking\nthe end of the loss phase (+<= 2 rounds of "
         "flood + ack).\n\n";
}

void BM_AckSimulation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const FiniteLossAdversary ma(n);
  std::mt19937_64 rng(5);
  const RunPrefix prefix =
      sample_prefix(ma, InputVector(static_cast<std::size_t>(n), 1), 24, rng);
  const AckConsensus algo(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(algo, prefix));
  }
}
BENCHMARK(BM_AckSimulation)->Arg(2)->Arg(3)->Arg(4);

void BM_ClosureAnalysis(benchmark::State& state) {
  const FiniteLossAdversary ma(2);
  for (auto _ : state) {
    AnalysisOptions options;
    options.depth = static_cast<int>(state.range(0));
    options.keep_levels = false;
    benchmark::DoNotOptimize(analyze_depth(ma, options));
  }
}
BENCHMARK(BM_ClosureAnalysis)->Arg(3)->Arg(5);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
