// E8 -- Section 6.3 / [6, 23]: eventually-stabilizing VSSC adversaries.
// Sweeps the stability parameter k and regenerates the paper's shape:
//  * the safety closure (all rooted graphs, obliviously) never separates,
//    independent of k -- solvability is invisible to prefix analysis;
//  * short stability (k = 1, the oblivious case) is known impossible;
//  * long isolated stability (k >= 3n) is solvable: the stable-window
//    algorithm decides in every sampled admissible run shortly after the
//    guaranteed window, and never violates agreement or validity.
#include <algorithm>
#include <random>

#include "adversary/sampler.hpp"
#include "adversary/vssc.hpp"
#include "analysis/oracles.hpp"
#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/solvability.hpp"
#include "runtime/simulator.hpp"
#include "runtime/verify.hpp"
#include "runtime/vssc_algo.hpp"

namespace {

using namespace topocon;

void sweep(std::ostream& out, api::Session& session, int n, int max_k) {
  out << "n = " << n << " processes (stable-window algorithm with "
      << "verification window 2n = " << 2 * n << "):\n";
  std::vector<api::Query> queries;
  SolvabilityOptions closure_options;
  closure_options.max_depth = 3;
  closure_options.max_states = 4'000'000;
  closure_options.build_table = false;
  for (int k = 1; k <= max_k; ++k) {
    queries.push_back(api::solvability({"vssc", n, k}, closure_options));
  }
  const auto outcomes =
      session.run("E8-vssc-n" + std::to_string(n), queries);

  Table table({"stability k", "oracle", "closure verdict", "runs decided",
               "agreement+validity", "mean decision round"});
  std::mt19937_64 rng(123);
  for (int k = 1; k <= max_k; ++k) {
    const VsscAdversary ma(n, k);
    const SolvabilityResult& closure =
        outcomes[static_cast<std::size_t>(k - 1)].result;

    const VsscConsensus algo(n);
    const int runs = 120;
    const int horizon = std::max(4 * n + k, 3 * k + 4);
    int decided = 0, safe = 0;
    double sum_round = 0;
    int decided_count = 0;
    for (int trial = 0; trial < runs; ++trial) {
      const InputVector inputs = sample_inputs(n, 2, rng);
      const RunPrefix prefix = sample_prefix(ma, inputs, horizon, rng);
      const ConsensusOutcome outcome = simulate(algo, prefix);
      const ConsensusCheck check = check_consensus(outcome, inputs);
      if (check.agreement && check.validity) ++safe;
      if (outcome.all_decided()) {
        ++decided;
        sum_round += outcome.last_decision_round();
        ++decided_count;
      }
    }
    const auto oracle = vssc_solvable(n, k);
    table.add_row(
        {std::to_string(k),
         oracle.has_value() ? (*oracle ? "solvable" : "impossible")
                            : "open (for this library)",
         to_string(closure.verdict),
         std::to_string(decided) + "/" + std::to_string(runs),
         yes_no(safe == runs),
         decided_count > 0 ? fmt(sum_round / decided_count, 1) : "-"});
  }
  table.print(out);
  out << '\n';
}

void print_report(std::ostream& out) {
  out << "== E8: VSSC stability sweep (Section 6.3, [6, 23])\n\n";
  api::Session session({.num_threads = bench_threads});
  sweep(out, session, 2, 7);
  sweep(out, session, 3, 10);
  out << "Expected shape: closure NOT-SEPARATED for every k (prefix\n"
         "analysis cannot see liveness); decision rate 0 for k < 2n (no\n"
         "verifiable window), everything decided with T/A/V for k >= 3n;\n"
         "agreement and validity never violated at any k.\n\n";
}

void BM_VsscSimulation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const VsscAdversary ma(n, 3 * n);
  std::mt19937_64 rng(9);
  const RunPrefix prefix =
      sample_prefix(ma, InputVector(static_cast<std::size_t>(n), 0), 5 * n,
                    rng);
  const VsscConsensus algo(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(algo, prefix));
  }
}
BENCHMARK(BM_VsscSimulation)->Arg(2)->Arg(3)->Arg(4);

void BM_VsscSampling(benchmark::State& state) {
  const VsscAdversary ma(3, 9);
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ma.sample(rng, 32));
  }
}
BENCHMARK(BM_VsscSampling);

void BM_RootVerification(benchmark::State& state) {
  // Cost of one full decision scan in the stable-window algorithm.
  const int n = 4;
  const VsscAdversary ma(n, 3 * n);
  std::mt19937_64 rng(2);
  const RunPrefix prefix =
      sample_prefix(ma, InputVector(static_cast<std::size_t>(n), 0), 6 * n,
                    rng);
  const VsscConsensus algo(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(algo, prefix));
  }
}
BENCHMARK(BM_RootVerification);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
