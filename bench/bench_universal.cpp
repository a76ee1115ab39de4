// E9 -- Theorem 5.5: cost profile of the universal consensus algorithm.
// Reports, per solvable adversary: certificate depth, decision-table size,
// worst-case decision round, and the per-round fraction of runs fully
// decided (the "early decision" profile of the ball-containment rule).
// The timing section benchmarks certificate construction and the online
// per-round cost of running the extracted algorithm.
#include <random>

#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "adversary/sampler.hpp"
#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/solvability.hpp"
#include "runtime/simulator.hpp"
#include "runtime/universal_runner.hpp"

namespace {

using namespace topocon;

void profile(std::ostream& out, const sweep::JobOutcome& outcome) {
  const SolvabilityResult& result = outcome.result;
  out << "Adversary " << outcome.family << " " << outcome.label << ": "
      << to_string(result.verdict);
  if (result.verdict != SolvabilityVerdict::kSolvable) {
    out << "\n\n";
    return;
  }
  out << ", certificate depth " << result.certified_depth
      << ", table entries " << result.table->size()
      << ", worst decision round "
      << result.table->worst_case_decision_round() << "\n";
  Table table({"round", "fraction of runs fully decided"});
  const auto& fractions = result.table->decided_fraction();
  for (std::size_t s = 0; s < fractions.size(); ++s) {
    table.add_row({std::to_string(s), fmt(fractions[s], 4)});
  }
  table.print(out);
  out << '\n';
}

void print_report(std::ostream& out) {
  out << "== E9: universal algorithm (Theorem 5.5) cost profile\n\n";
  api::Session session({.num_threads = bench_threads});
  std::vector<api::Query> queries;
  SolvabilityOptions to6;
  to6.max_depth = 6;
  queries.push_back(api::solvability({"lossy_link", 2, 0b011}, to6));
  queries.push_back(api::solvability({"lossy_link", 2, 0b101}, to6));
  queries.push_back(api::solvability({"lossy_link", 2, 0b100}, to6));
  SolvabilityOptions omission;
  omission.max_depth = 4;
  omission.max_states = 6'000'000;
  queries.push_back(api::solvability({"omission", 3, 1}, omission));
  for (const sweep::JobOutcome& outcome :
       session.run("E9-universal-profile", queries)) {
    profile(out, outcome);
  }
}

void BM_CertificateConstruction(benchmark::State& state) {
  const auto ma = make_lossy_link(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    SolvabilityOptions options;
    options.max_depth = 6;
    benchmark::DoNotOptimize(check_solvability(*ma, options));
  }
}
BENCHMARK(BM_CertificateConstruction)->Arg(0b011)->Arg(0b101)->Arg(0b100);

void BM_UniversalOnlineRound(benchmark::State& state) {
  // Per-run online cost: full-information step + table lookups over a
  // horizon of 16 rounds.
  const auto ma = make_lossy_link(0b011);
  const SolvabilityResult result = check_solvability(*ma);
  const UniversalAlgorithm algo(*result.table);
  std::mt19937_64 rng(4);
  const RunPrefix prefix = sample_prefix(*ma, {0, 1}, 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(algo, prefix));
  }
}
BENCHMARK(BM_UniversalOnlineRound);

void BM_TableLookup(benchmark::State& state) {
  const auto ma = make_lossy_link(0b011);
  const SolvabilityResult result = check_solvability(*ma);
  const DecisionTable& table = *result.table;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.decide(1, 0, 0));
    benchmark::DoNotOptimize(table.decide(1, 1, 3));
  }
}
BENCHMARK(BM_TableLookup);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
