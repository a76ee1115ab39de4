// General-purpose command-line front end: define an arbitrary oblivious
// message adversary by its graph alphabet, run the full topological
// analysis, and print verdict, components, and obstructions.
//
// Custom alphabets are not FamilyPoints, so this is the one example that
// talks to the core checker directly instead of phrasing an api::Query;
// its flags use the shared runtime/sweep/cli helpers like every other
// topocon binary (`--name=value` form).
//
// Usage: adversary_cli N ALPHABET [--max-depth=K] [--max-states=M]
//   N            number of processes (2..4)
//   ALPHABET     graphs separated by '|'; each graph is a comma-separated
//                list of directed edges "p>q" (0-based; self-loops
//                implicit); an empty graph is written as '-'. A graph
//                may appear only once (exit 2 otherwise).
//   --max-depth  iterative-deepening bound (default 6)
//   --max-states per-level state budget (default 6000000)
//
// Examples:
//   adversary_cli 2 '1>0|0>1'            # CGP solvable pair
//   adversary_cli 2 '1>0|0>1|0>1,1>0'    # Santoro-Widmayer impossible
//   adversary_cli 3 '0>1,1>2,2>0|-' --max-depth=4   # ring or silence
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/oblivious.hpp"
#include "analysis/report.hpp"
#include "core/obstruction.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/cli.hpp"

namespace {

using namespace topocon;

bool parse_graph(const std::string& spec, int n, Digraph& out) {
  out = Digraph(n);
  if (spec == "-" || spec.empty()) return true;
  std::stringstream stream(spec);
  std::string edge;
  while (std::getline(stream, edge, ',')) {
    const std::size_t arrow = edge.find('>');
    if (arrow == std::string::npos) return false;
    try {
      const int p = std::stoi(edge.substr(0, arrow));
      const int q = std::stoi(edge.substr(arrow + 1));
      if (p < 0 || p >= n || q < 0 || q >= n) return false;
      out.add_edge(p, q);
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: adversary_cli N 'graph|graph|...' "
                 "[--max-depth=K] [--max-states=M]\n"
                 "       graph = 'p>q,p>q,...' or '-' (self-loops "
                 "implicit)\n";
    return 2;
  }
  int n = 0;
  int max_depth = 6;
  std::size_t max_states = 6'000'000;
  try {
    n = sweep::parse_int_value("n", argv[1]);
    for (int i = 3; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (const auto v = sweep::flag_value(arg, "max-depth")) {
        max_depth = sweep::parse_int_value("max-depth", *v);
      } else if (const auto v = sweep::flag_value(arg, "max-states")) {
        max_states = static_cast<std::size_t>(
            sweep::parse_int_value("max-states", *v));
      } else {
        std::cerr << "adversary_cli: unknown argument '" << arg << "'\n";
        return 2;
      }
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << "adversary_cli: " << error.what() << "\n";
    return 2;
  }
  if (n < 2 || n > 4) {
    std::cerr << "N must be in 2..4\n";
    return 2;
  }
  std::vector<Digraph> alphabet;
  std::stringstream specs(argv[2]);
  std::string spec;
  while (std::getline(specs, spec, '|')) {
    Digraph g(n);
    if (!parse_graph(spec, n, g)) {
      std::cerr << "cannot parse graph '" << spec << "'\n";
      return 2;
    }
    alphabet.push_back(g);
  }
  if (alphabet.empty()) {
    std::cerr << "empty alphabet\n";
    return 2;
  }

  std::cout << "Alphabet (" << alphabet.size() << " graphs):\n";
  for (std::size_t i = 0; i < alphabet.size(); ++i) {
    std::cout << "  G" << i << " = " << alphabet[i].to_string() << "\n";
  }
  std::unique_ptr<ObliviousAdversary> ma;
  try {
    ma = std::make_unique<ObliviousAdversary>(n, std::move(alphabet), "cli");
  } catch (const std::invalid_argument& error) {
    std::cerr << "adversary_cli: " << error.what() << "\n";
    return 2;
  }

  SolvabilityOptions options;
  options.max_depth = max_depth;
  options.max_states = max_states;
  const SolvabilityResult result = check_solvability(*ma, options);

  std::cout << "\nPer-depth analysis:\n";
  Table table({"depth", "leaf classes", "components", "merged",
               "separated", "broadcastable"});
  for (const DepthStats& stats : result.per_depth) {
    table.add_row({std::to_string(stats.depth),
                   std::to_string(stats.num_leaf_classes),
                   std::to_string(stats.num_components),
                   std::to_string(stats.merged_components),
                   yes_no(stats.separated),
                   yes_no(stats.valent_broadcastable)});
  }
  table.print(std::cout);

  std::cout << "\nVerdict: " << to_string(result.verdict);
  if (result.verdict == SolvabilityVerdict::kSolvable) {
    std::cout << " (certificate depth " << result.certified_depth
              << ", decision table with " << result.table->size()
              << " entries, worst decision round "
              << result.table->worst_case_decision_round() << ")";
  } else if (result.verdict == SolvabilityVerdict::kNotSeparated) {
    std::cout << " up to depth " << max_depth
              << " (conclusive impossibility evidence for compact "
                 "adversaries as depth grows)";
    const auto fair = fair_sequence_prefix(*ma, std::min(max_depth, 5));
    if (fair.has_value()) {
      std::cout << "\nFair-sequence prefix: " << fair->to_string();
    }
  }
  std::cout << "\n";
  return result.verdict == SolvabilityVerdict::kSolvable ? 0 : 1;
}
