#include "graph/enumerate.hpp"

#include <bit>
#include <cassert>

#include "graph/scc.hpp"

namespace topocon {

namespace {

// Enumerates off-diagonal edge subsets as bitmasks over n(n-1) positions;
// position index for (p, q), p != q, counts row-major skipping the diagonal.
Digraph graph_from_offdiag_mask(int n, std::uint32_t mask) {
  Digraph g(n);
  int bit = 0;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      if (p == q) continue;
      if ((mask >> bit) & 1u) g.add_edge(p, q);
      ++bit;
    }
  }
  return g;
}

}  // namespace

std::vector<Digraph> all_graphs(int n) {
  assert(n >= 1 && n <= 4);
  const int positions = n * (n - 1);
  std::vector<Digraph> graphs;
  graphs.reserve(std::size_t{1} << positions);
  for (std::uint32_t mask = 0; mask < (1u << positions); ++mask) {
    graphs.push_back(graph_from_offdiag_mask(n, mask));
  }
  return graphs;
}

std::vector<Digraph> graphs_with_max_omissions(int n, int max_omissions) {
  // The off-diagonal edge masks are 32-bit (n <= 6); the n = 5 omission
  // grids scan 2^20 of them.
  assert(n >= 1 && n * (n - 1) < 32);
  const int positions = n * (n - 1);
  std::vector<Digraph> graphs;
  for (std::uint32_t mask = 0; mask < (1u << positions); ++mask) {
    const int omissions = positions - std::popcount(mask);
    if (omissions <= max_omissions) {
      graphs.push_back(graph_from_offdiag_mask(n, mask));
    }
  }
  return graphs;
}

std::vector<Digraph> rooted_graphs(int n) {
  std::vector<Digraph> graphs;
  for (const Digraph& g : all_graphs(n)) {
    if (is_rooted(g)) graphs.push_back(g);
  }
  return graphs;
}

std::vector<Digraph> lossy_link_graphs() {
  return {
      Digraph::from_edges(2, {{1, 0}}),          // LEFT  "<-"
      Digraph::from_edges(2, {{0, 1}}),          // RIGHT "->"
      Digraph::from_edges(2, {{0, 1}, {1, 0}}),  // BOTH  "<->"
  };
}

const char* lossy_link_name(int index) {
  switch (index) {
    case 0: return "<-";
    case 1: return "->";
    case 2: return "<->";
    default: return "?";
  }
}

}  // namespace topocon
