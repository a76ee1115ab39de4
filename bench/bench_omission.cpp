// E5 -- Section 6.1 / [21, 22]: per-round omission adversaries. The table
// sweeps the per-round omission budget f and compares the checker against
// the Santoro-Widmayer threshold (solvable iff f <= n-2), and contrasts
// the universal algorithm with the FloodMin baseline of [22] (correct for
// f <= n-2 with decision round n-1; loses agreement at f = n-1).
//
// The checker column is produced by the parallel sweep engine: one
// solvability job per budget f, root-sharded internally. Run with
// --sweep-threads=N / --sweep-json=PATH (see bench_common.hpp).
#include <chrono>
#include <random>

#include "adversary/family.hpp"
#include "adversary/omission.hpp"
#include "adversary/sampler.hpp"
#include "analysis/oracles.hpp"
#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/solvability.hpp"
#include "runtime/flood_min.hpp"
#include "runtime/simulator.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "runtime/verify.hpp"

namespace {

using namespace topocon;

// Fraction of sampled runs in which FloodMin(n-1) satisfies the spec.
double flood_min_success(const MessageAdversary& ma, int n, int samples) {
  std::mt19937_64 rng(7);
  const FloodMinAlgorithm algo(n - 1);
  int ok = 0;
  for (int trial = 0; trial < samples; ++trial) {
    const InputVector inputs = sample_inputs(n, 2, rng);
    const RunPrefix prefix = sample_prefix(ma, inputs, n - 1, rng);
    if (check_consensus(simulate(algo, prefix), inputs).ok()) ++ok;
  }
  return static_cast<double>(ok) / samples;
}

// Worst case over all admissible runs at decision depth (exhaustive).
bool flood_min_always_correct(const MessageAdversary& ma, int n) {
  const FloodMinAlgorithm algo(n - 1);
  for (const auto& letters : enumerate_letter_sequences(ma, n - 1)) {
    for (const InputVector& inputs : all_input_vectors(n, 2)) {
      RunPrefix prefix;
      prefix.inputs = inputs;
      prefix.graphs = letters_to_graphs(ma, letters);
      if (!check_consensus(simulate(algo, prefix), inputs).ok()) return false;
    }
  }
  return true;
}

void sweep(std::ostream& out, api::Session& session, int n, int max_f,
           int max_depth, std::size_t max_states) {
  std::vector<api::Query> queries;
  SolvabilityOptions options;
  options.max_depth = max_depth;
  options.max_states = max_states;
  options.build_table = false;
  for (int f = 0; f <= max_f; ++f) {
    queries.push_back(api::solvability({"omission", n, f}, options));
  }
  const auto start = std::chrono::steady_clock::now();
  const std::vector<sweep::JobOutcome> outcomes =
      session.run("E5-omission-n" + std::to_string(n), queries);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  out << "n = " << n << " processes:\n";
  Table table({"f (omissions/round)", "oracle [21,22]", "checker verdict",
               "cert depth", "FloodMin(n-1) exhaustive",
               "FloodMin(n-1) sampled ok"});
  for (int f = 0; f <= max_f; ++f) {
    const SolvabilityResult& result =
        outcomes[static_cast<std::size_t>(f)].result;
    const auto ma = make_omission_adversary(n, f);
    const bool exhaustive = flood_min_always_correct(*ma, n);
    table.add_row(
        {std::to_string(f),
         omission_solvable(n, f) ? "solvable" : "impossible",
         to_string(result.verdict),
         result.certified_depth >= 0 ? std::to_string(result.certified_depth)
                                     : "-",
         yes_no(exhaustive), fmt(flood_min_success(*ma, n, 300), 2)});
  }
  table.print(out);
  out << "(sweep: " << queries.size() << " jobs in " << fmt(elapsed, 3)
      << " s on " << session.num_threads() << " thread(s))\n\n";
}

void print_report(std::ostream& out) {
  out << "== E5: Santoro-Widmayer omission sweep (Section 6.1, [21, 22])\n\n";
  api::Session session;
  sweep(out, session, 2, 2, 6, 2'000'000);
  sweep(out, session, 3, 4, 3, 6'000'000);
  out << "Expected shape: solvable exactly for f <= n-2; FloodMin(n-1)\n"
         "exhaustively correct in the solvable regime and failing at\n"
         "f = n-1 (the adversary can silence the minimum's holder).\n\n";
}

void BM_CheckOmission(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = static_cast<int>(state.range(1));
  const auto ma = make_omission_adversary(n, f);
  SolvabilityOptions options;
  options.max_depth = n == 2 ? 5 : 2;
  options.max_states = 6'000'000;
  options.build_table = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_solvability(*ma, options));
  }
  set_peak_rss_counter(state);
}
BENCHMARK(BM_CheckOmission)->Args({2, 0})->Args({2, 1})->Args({3, 1})->Args({3, 2});

// Same check through the sharded engine; compare against BM_CheckOmission
// for the intra-job speedup at --sweep-threads.
void BM_ParallelCheckOmission(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = static_cast<int>(state.range(1));
  const auto ma = make_omission_adversary(n, f);
  SolvabilityOptions options;
  options.max_depth = n == 2 ? 5 : 2;
  options.max_states = 6'000'000;
  options.build_table = false;
  sweep::ThreadPool pool(sweep::default_num_threads());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check_solvability(*ma, options, pool.as_parallel_for()));
  }
  set_peak_rss_counter(state);
}
BENCHMARK(BM_ParallelCheckOmission)->Args({3, 1})->Args({3, 2});

// The same check with sub-root sharding forced to `chunk` states per
// expansion chunk (0 = the process default): measures the frontier
// engine's chunking overhead at one lane and its load-balance win at
// --sweep-threads > 1. Results are identical for every chunk size.
void BM_ChunkedCheckOmission(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = static_cast<int>(state.range(1));
  const auto chunk = static_cast<std::size_t>(state.range(2));
  const auto ma = make_omission_adversary(n, f);
  SolvabilityOptions options;
  options.max_depth = n == 2 ? 5 : 2;
  options.max_states = 6'000'000;
  options.build_table = false;
  sweep::ThreadPool pool(sweep::default_num_threads());
  ShardingOptions sharding;
  sharding.chunk_states = chunk;
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_solvability(
        *ma, options, pool.as_parallel_for(), {}, sharding));
  }
  set_peak_rss_counter(state);
}
BENCHMARK(BM_ChunkedCheckOmission)
    ->Args({3, 2, 64})
    ->Args({3, 2, 1024})
    ->Args({3, 2, 0});

void BM_FloodMinRound(benchmark::State& state) {
  const int n = 3;
  const auto ma = make_omission_adversary(n, 1);
  std::mt19937_64 rng(3);
  const RunPrefix prefix = sample_prefix(*ma, {0, 1, 1}, 16, rng);
  const FloodMinAlgorithm algo(n - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(algo, prefix));
  }
}
BENCHMARK(BM_FloodMinRound);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
