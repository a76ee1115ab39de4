// Interactive explorer for the n = 2 lossy-link family (Section 6.1).
//
// Usage: lossy_link_explorer [SUBSET] [DEPTH]
//   SUBSET: any combination of the letters l, r, b  (left "<-", right "->",
//           both "<->"); default "lrb" = the full, impossible adversary.
//   DEPTH:  analysis depth (default 4).
//
// Prints the epsilon-approximation component structure at the requested
// depth (computed by the root-sharded parallel engine), the solvability
// verdict, broadcaster information per component, and -- when the
// adversary is unsolvable -- a concrete epsilon-chain and fair-sequence
// prefix witnessing the obstruction.
//
// Accepts --sweep-threads=T (default: hardware concurrency; the printed
// output is identical for every T) and --sweep-json=PATH (solvability
// results as JSON).
#include <bit>
#include <iostream>
#include <string>

#include "adversary/lossy_link.hpp"
#include "analysis/oracles.hpp"
#include "analysis/report.hpp"
#include "api/api.hpp"
#include "core/obstruction.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/cli.hpp"

int main(int argc, char** argv) {
  using namespace topocon;
  const sweep::SweepCliOptions sweep_options =
      sweep::consume_sweep_args(&argc, argv);

  unsigned mask = 0;
  const std::string subset = argc > 1 ? argv[1] : "lrb";
  for (const char c : subset) {
    if (c == 'l') mask |= 0b001;
    if (c == 'r') mask |= 0b010;
    if (c == 'b') mask |= 0b100;
  }
  if (mask == 0) {
    std::cerr << "usage: lossy_link_explorer [l|r|b]+ [depth]\n";
    return 2;
  }
  const int depth = argc > 2 ? std::stoi(argv[2]) : 4;

  const auto ma = make_lossy_link(mask);
  std::cout << "Adversary " << ma->name() << ", oracle: "
            << (lossy_link_solvable(mask) ? "solvable" : "impossible")
            << "\n\n";

  // One session provides both the raw fixed-depth analysis (via its
  // pool) and the solvability verdict (via a query).
  api::Session session;
  AnalysisOptions options;
  options.depth = depth;
  const DepthAnalysis analysis = analyze_depth(
      *ma, options, nullptr, session.pool().as_parallel_for());
  std::cout << "Depth-" << depth << " epsilon-approximation: "
            << analysis.leaves().size() << " leaf classes, "
            << analysis.components.size() << " components, separated: "
            << yes_no(analysis.valence_separated) << "\n\n";

  Table table({"component", "leaves", "valences", "broadcasters"});
  for (std::size_t c = 0; c < analysis.components.size(); ++c) {
    const ComponentInfo& info = analysis.components[c];
    std::string valences;
    for (int v = 0; v < analysis.num_values; ++v) {
      if (info.valence_mask & (1u << v)) {
        valences += "z";
        valences += std::to_string(v);
        valences += " ";
      }
    }
    std::string broadcasters;
    NodeMask rest = info.broadcasters;
    while (rest != 0) {
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      broadcasters += "p";
      broadcasters += std::to_string(p + 1);
      broadcasters += " ";
    }
    table.add_row({std::to_string(c), std::to_string(info.num_leaves),
                   valences.empty() ? "-" : valences,
                   broadcasters.empty() ? "-" : broadcasters});
  }
  table.print(std::cout);

  const std::vector<sweep::JobOutcome> outcomes = session.run(
      "lossy-link-explorer",
      {api::solvability({"lossy_link", 2, static_cast<int>(mask)})});
  const SolvabilityResult& result = outcomes[0].result;
  std::cout << "\nChecker verdict: " << to_string(result.verdict) << "\n";

  if (!analysis.valence_separated) {
    std::cout << "\nObstruction (epsilon-chain from a 0-valent to a "
                 "1-valent run):\n";
    const auto chain = find_merged_chain(*ma, analysis, 0, 1);
    if (chain.has_value()) {
      for (std::size_t i = 0; i < chain->chain.size(); ++i) {
        std::cout << "  " << chain->chain[i].to_string();
        if (i + 1 < chain->chain.size()) {
          std::cout << "   (process " << chain->witness[i] + 1
                    << " cannot tell)";
        }
        std::cout << "\n";
      }
    }
    const auto fair = fair_sequence_prefix(*ma, depth);
    if (fair.has_value()) {
      std::cout << "\nFair-sequence prefix (Definition 5.16):\n  "
                << fair->to_string() << "\n";
    }
  }
  return sweep::flush_sweep_json(sweep_options) ? 0 : 1;
}
