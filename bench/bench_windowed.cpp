// E11 (ablation) -- windowed lossy link: how much per-graph persistence
// rescues consensus. Window 1 is the oblivious Santoro-Widmayer lossy link
// (impossible); for every window >= 2 the repetition constraint breaks the
// single-round perturbations of the bivalence chain and the checker
// certifies solvability with decisions at round `window`. A thematic
// sibling of the paper's Section 6.3: stability is what makes consensus
// possible. Also sweeps the Heard-Of family [7] as a second oblivious
// parameterization.
#include "adversary/heard_of.hpp"
#include "adversary/windowed.hpp"
#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/solvability.hpp"

namespace {

using namespace topocon;

void print_report(std::ostream& out) {
  out << "== E11 (ablation): repetition windows vs lossy-link "
         "solvability\n\n";
  api::Session session({.num_threads = bench_threads});
  std::vector<api::Query> windows;
  SolvabilityOptions window_options;
  window_options.max_depth = 8;
  for (int w = 1; w <= 4; ++w) {
    windows.push_back(
        api::solvability({"windowed_lossy_link", 2, w}, window_options));
  }
  const auto window_outcomes = session.run("E11-windowed", windows);

  Table table({"window w", "checker verdict", "cert depth",
               "worst decision round", "leaf classes at cert depth"});
  for (int w = 1; w <= 4; ++w) {
    const SolvabilityResult& result =
        window_outcomes[static_cast<std::size_t>(w - 1)].result;
    table.add_row(
        {std::to_string(w), to_string(result.verdict),
         result.certified_depth >= 0 ? std::to_string(result.certified_depth)
                                     : "-",
         result.table.has_value()
             ? std::to_string(result.table->worst_case_decision_round())
             : "-",
         std::to_string(result.per_depth.back().num_leaf_classes)});
  }
  table.print(out);
  out << "\nExpected shape: impossible at w = 1 (oblivious lossy link),\n"
         "solvable at every w >= 2 with certificate depth 2 (all\n"
         "admissible 2-prefixes are doubled graphs).\n\n";

  out << "Heard-Of sweep (per-receiver in-degree bound, [7]):\n";
  std::vector<api::Query> heard;
  for (int n = 2; n <= 3; ++n) {
    for (int k = 1; k <= n; ++k) {
      SolvabilityOptions options;
      options.max_depth = n == 2 ? 6 : 3;
      options.max_states = 6'000'000;
      options.build_table = false;
      heard.push_back(api::solvability({"heard_of", n, k}, options));
    }
  }
  const auto heard_outcomes = session.run("E11-heard-of", heard);
  Table ho({"n", "min heard-of k", "checker verdict"});
  std::size_t row = 0;
  for (int n = 2; n <= 3; ++n) {
    for (int k = 1; k <= n; ++k) {
      ho.add_row({std::to_string(n), std::to_string(k),
                  to_string(heard_outcomes[row++].result.verdict)});
    }
  }
  ho.print(out);
  out << "\nExpected shape: solvable only at k = n (complete graph); any\n"
         "slack lets the adversary silence one process forever.\n\n";
}

void BM_WindowedCheck(benchmark::State& state) {
  const auto ma = make_windowed_lossy_link(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SolvabilityOptions options;
    options.max_depth = 8;
    options.build_table = false;
    benchmark::DoNotOptimize(check_solvability(*ma, options));
  }
}
BENCHMARK(BM_WindowedCheck)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_HeardOfCheck(benchmark::State& state) {
  const auto ma =
      make_heard_of_adversary(3, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SolvabilityOptions options;
    options.max_depth = 2;
    options.max_states = 6'000'000;
    options.build_table = false;
    benchmark::DoNotOptimize(check_solvability(*ma, options));
  }
}
BENCHMARK(BM_HeardOfCheck)->Arg(2)->Arg(3);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
