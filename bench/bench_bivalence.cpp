// E4 -- Section 6.1: bivalence survival. The paper explains that
// forever-bivalent runs are the common limits of approach sequences from
// both decision regions, and notes that for the reduced lossy link
// {<-, ->} "all configurations reached after the first round are already
// univalent", while for {<-, ->, <->} bivalence survives forever. This
// bench regenerates that contrast as a per-depth series of merged
// (still-bivalent) component counts, prints a concrete fair-sequence
// prefix (Definition 5.16) with an epsilon-chain witness, and benchmarks
// the obstruction machinery.
#include <sstream>

#include "adversary/lossy_link.hpp"
#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/obstruction.hpp"

namespace {

using namespace topocon;

void print_series(std::ostream& out, const sweep::JobOutcome& outcome) {
  out << "Adversary " << outcome.label << ":\n";
  Table table({"depth", "leaf classes", "components", "merged (bivalent)"});
  for (const DepthStats& stats : outcome.series) {
    table.add_row({std::to_string(stats.depth),
                   std::to_string(stats.num_leaf_classes),
                   std::to_string(stats.num_components),
                   std::to_string(stats.merged_components)});
  }
  table.print(out);
  out << '\n';
}

void print_report(std::ostream& out) {
  out << "== E4: bivalence survival per depth (Section 6.1)\n\n";
  api::Session session({.num_threads = bench_threads});
  AnalysisOptions to7;
  to7.depth = 7;
  to7.keep_levels = false;
  const auto outcomes =
      session.run("E4-bivalence-survival",
                  {api::depth_series({"lossy_link", 2, 0b011}, to7),
                   api::depth_series({"lossy_link", 2, 0b111}, to7)});
  print_series(out, outcomes[0]);  // {<-, ->}: dies after round 1
  print_series(out, outcomes[1]);  // {<-, ->, <->}: survives forever

  out << "Fair-sequence prefix for {<-, ->, <->} (Definition 5.16): a run\n"
         "whose component is valence-merged at every depth:\n";
  const auto ma = make_lossy_link(0b111);
  const auto prefix = fair_sequence_prefix(*ma, 6);
  if (prefix.has_value()) {
    out << "  " << prefix->to_string() << "\n\n";
  }

  out << "Epsilon-chain witness at depth 4 (consecutive prefixes\n"
         "indistinguishable to the witness process):\n";
  AnalysisOptions options;
  options.depth = 4;
  const DepthAnalysis analysis = analyze_depth(*ma, options);
  const auto chain = find_merged_chain(*ma, analysis, 0, 1);
  if (chain.has_value()) {
    for (std::size_t i = 0; i < chain->chain.size(); ++i) {
      out << "  [" << i << "] " << chain->chain[i].to_string();
      if (i + 1 < chain->chain.size()) {
        out << "   --(process " << chain->witness[i] + 1 << " blind)-->";
      }
      out << '\n';
    }
  }
  out << '\n';
}

void BM_BivalenceSeries(benchmark::State& state) {
  const auto ma = make_lossy_link(0b111);
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bivalence_series(*ma, depth));
  }
}
BENCHMARK(BM_BivalenceSeries)->Arg(4)->Arg(6)->Arg(8);

void BM_FairSequencePrefix(benchmark::State& state) {
  const auto ma = make_lossy_link(0b111);
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fair_sequence_prefix(*ma, depth));
  }
}
BENCHMARK(BM_FairSequencePrefix)->Arg(3)->Arg(5);

void BM_MergedChain(benchmark::State& state) {
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = static_cast<int>(state.range(0));
  const DepthAnalysis analysis = analyze_depth(*ma, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_merged_chain(*ma, analysis, 0, 1));
  }
}
BENCHMARK(BM_MergedChain)->Arg(3)->Arg(5);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
