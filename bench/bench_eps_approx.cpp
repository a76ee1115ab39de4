// E6 -- Section 6.2 / Figure 4: epsilon-approximation convergence for
// compact (oblivious) adversaries. For each adversary the series shows how
// the epsilon = 2^-t components refine as t grows: for solvable
// adversaries the valence regions separate at a finite depth and the
// valent components become broadcastable (Theorem 6.6); for the
// unsolvable full lossy link they stay merged at every depth. This is the
// quantitative form of Figure 4's picture (components with positive
// distance).
#include <memory>

#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "analysis/report.hpp"
#include "bench_common.hpp"
#include "core/epsilon_approx.hpp"

namespace {

using namespace topocon;

void print_series(std::ostream& out, const sweep::JobOutcome& outcome) {
  out << "Adversary " << outcome.family << " " << outcome.label << ":\n";
  Table table({"depth t (eps=2^-t)", "leaf classes", "components",
               "merged", "separated", "valent broadcastable",
               "distinct views"});
  for (const DepthStats& stats : outcome.series) {
    table.add_row({std::to_string(stats.depth),
                   std::to_string(stats.num_leaf_classes),
                   std::to_string(stats.num_components),
                   std::to_string(stats.merged_components),
                   yes_no(stats.separated),
                   yes_no(stats.valent_broadcastable),
                   std::to_string(stats.interner_views)});
  }
  table.print(out);
  out << '\n';
}

void print_report(std::ostream& out) {
  out << "== E6: epsilon-approximation convergence (Section 6.2, "
         "Figure 4)\n\n";
  api::Session session({.num_threads = bench_threads});
  std::vector<api::Query> queries;
  AnalysisOptions to8;
  to8.depth = 8;
  to8.keep_levels = false;
  queries.push_back(api::depth_series({"lossy_link", 2, 0b011}, to8));
  queries.push_back(api::depth_series({"lossy_link", 2, 0b101}, to8));
  queries.push_back(api::depth_series({"lossy_link", 2, 0b111}, to8));
  AnalysisOptions omission4 = to8;
  omission4.depth = 4;
  omission4.max_states = 6'000'000;
  queries.push_back(api::depth_series({"omission", 3, 1}, omission4));
  for (const sweep::JobOutcome& outcome :
       session.run("E6-eps-convergence", queries)) {
    print_series(out, outcome);
  }
  out << "Expected shape: solvable adversaries separate at depth 1 and "
         "stay\nseparated (refinement); the full lossy link keeps >= 1 "
         "merged\ncomponent at every depth.\n\n";

  // Why the MINIMUM topology: the alternative topologies of Section 4.1
  // over-separate -- they declare even the impossible adversary separated.
  // Each topology is one depth-3 series job on the sweep engine.
  out << "Topology comparison on the impossible {<-, ->, <->} at depth "
         "3:\n";
  std::vector<api::Query> topo_queries;
  const auto topology_options = [](AdjacencyTopology topology,
                                   NodeMask pset) {
    AnalysisOptions options;
    options.depth = 3;
    options.keep_levels = false;
    options.topology = topology;
    options.pview_set = pset;
    return options;
  };
  topo_queries.push_back(api::depth_series(
      {"lossy_link", 2, 0b111}, topology_options(AdjacencyTopology::kMin, 0)));
  topo_queries.push_back(
      api::depth_series({"lossy_link", 2, 0b111},
                        topology_options(AdjacencyTopology::kPView, 0b01)));
  topo_queries.push_back(
      api::depth_series({"lossy_link", 2, 0b111},
                        topology_options(AdjacencyTopology::kPView, 0b10)));
  topo_queries.push_back(
      api::depth_series({"lossy_link", 2, 0b111},
                        topology_options(AdjacencyTopology::kPView, 0b11)));
  const auto topo_outcomes =
      session.run("E6-topology-comparison", topo_queries);
  const char* topo_names[] = {"d_min (Section 4.2)", "d_{1} (P-view, P={1})",
                              "d_{2} (P-view, P={2})",
                              "d_max (common prefix)"};
  const char* topo_criterion[] = {"YES (Thm 6.6)", "no", "no", "no"};
  Table topo({"topology", "components", "valence separated",
              "is a solvability criterion"});
  for (std::size_t i = 0; i < topo_outcomes.size(); ++i) {
    const DepthStats& at3 = topo_outcomes[i].series.back();
    topo.add_row({topo_names[i], std::to_string(at3.num_components),
                  yes_no(at3.separated), topo_criterion[i]});
  }
  topo.print(out);
  out << "\nOnly d_min keeps the impossible adversary merged; the P-view\n"
         "and common-prefix topologies over-separate (Theorem 5.4 gives\n"
         "clopen decision sets in them too, but separation there is not\n"
         "sufficient for solvability).\n\n";
}

void BM_AnalyzeDepth(benchmark::State& state) {
  const auto ma = make_lossy_link(static_cast<unsigned>(state.range(0)));
  const int depth = static_cast<int>(state.range(1));
  for (auto _ : state) {
    AnalysisOptions options;
    options.depth = depth;
    options.keep_levels = false;
    benchmark::DoNotOptimize(analyze_depth(*ma, options));
  }
}
BENCHMARK(BM_AnalyzeDepth)
    ->Args({0b111, 4})
    ->Args({0b111, 6})
    ->Args({0b111, 8})
    ->Args({0b011, 6});

void BM_AnalyzeDepthKeepLevels(benchmark::State& state) {
  const auto ma = make_lossy_link(0b111);
  for (auto _ : state) {
    AnalysisOptions options;
    options.depth = static_cast<int>(state.range(0));
    options.keep_levels = true;
    benchmark::DoNotOptimize(analyze_depth(*ma, options));
  }
}
BENCHMARK(BM_AnalyzeDepthKeepLevels)->Arg(4)->Arg(6);

void BM_AnalyzeOmissionN3(benchmark::State& state) {
  const auto ma = make_omission_adversary(3, 1);
  for (auto _ : state) {
    AnalysisOptions options;
    options.depth = static_cast<int>(state.range(0));
    options.keep_levels = false;
    options.max_states = 6'000'000;
    benchmark::DoNotOptimize(analyze_depth(*ma, options));
  }
}
BENCHMARK(BM_AnalyzeOmissionN3)->Arg(2)->Arg(3);

}  // namespace

TOPOCON_BENCH_MAIN(print_report)
