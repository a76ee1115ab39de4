// E3 -- Section 6.1: the complete lossy-link solvability table for n = 2.
// For every nonempty subset of {<-, ->, <->} the checker's verdict is
// compared against the literature oracle (Santoro-Widmayer impossibility
// for the full set; CGP solvability for {<-, ->}; broadcaster-based
// solvability for the remaining subsets), together with the certificate
// depth and the extracted universal algorithm's worst-case decision round.
// The timing section benchmarks the checker per subset.
#include "adversary/lossy_link.hpp"
#include "analysis/oracles.hpp"
#include "analysis/report.hpp"
#include "analysis/root_heuristic.hpp"
#include "bench_common.hpp"
#include "core/solvability.hpp"

namespace {

using namespace topocon;

void print_report(std::ostream& out) {
  out << "== E3: lossy-link solvability table (n = 2, Section 6.1)\n\n";
  api::Session session({.num_threads = bench_threads});
  std::vector<api::Query> queries;
  SolvabilityOptions options;
  options.max_depth = 8;
  for (int mask = 1; mask < 8; ++mask) {
    queries.push_back(api::solvability({"lossy_link", 2, mask}, options));
  }
  const std::vector<sweep::JobOutcome> outcomes =
      session.run("E3-lossy-link", queries);

  Table table({"adversary", "oracle", "checker verdict", "CGP-style heuristic",
               "cert depth", "components", "worst decision round",
               "table entries"});
  for (unsigned mask = 1; mask < 8; ++mask) {
    const SolvabilityResult& result = outcomes[mask - 1].result;
    const bool heuristic =
        root_intersection_heuristic(make_lossy_link(mask)->alphabet())
            .solvable;
    std::string depth = result.certified_depth >= 0
                            ? std::to_string(result.certified_depth)
                            : "-";
    std::string rounds = "-", entries = "-";
    if (result.table.has_value()) {
      rounds = std::to_string(result.table->worst_case_decision_round());
      entries = std::to_string(result.table->size());
    }
    const auto& last = result.per_depth.back();
    table.add_row({lossy_link_subset_name(mask),
                   lossy_link_solvable(mask) ? "solvable" : "impossible",
                   to_string(result.verdict),
                   heuristic ? "solvable" : "impossible", depth,
                   std::to_string(last.num_components), rounds, entries});
  }
  table.print(out);
  out << "\nExpected shape: every proper subset solvable (certified at "
         "depth 1),\nthe full set {<-, ->, <->} NOT-SEPARATED at every "
         "depth (impossible).\n\n";
}

void BM_CheckSubset(benchmark::State& state) {
  const auto mask = static_cast<unsigned>(state.range(0));
  const auto ma = make_lossy_link(mask);
  SolvabilityOptions options;
  options.max_depth = static_cast<int>(state.range(1));
  options.build_table = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_solvability(*ma, options));
  }
}
BENCHMARK(BM_CheckSubset)
    ->Args({0b011, 4})
    ->Args({0b101, 4})
    ->Args({0b111, 4})
    ->Args({0b111, 6})
    ->Args({0b111, 8});

void BM_ExtractTable(benchmark::State& state) {
  const auto ma = make_lossy_link(0b011);
  SolvabilityOptions options;
  options.max_depth = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_solvability(*ma, options));
  }
}
BENCHMARK(BM_ExtractTable);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
