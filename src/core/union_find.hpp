// Disjoint-set forest with path halving, safe for concurrent unite() and
// find() calls. unite() links the larger-index root under the smaller one
// with one compare-and-swap, so every set's representative is its
// smallest member whatever order the unions ran in, and component_ids()
// labels sets by first occurrence without depending on that order.
#pragma once

#include <cstddef>
#include <vector>

#include "core/parallel_for.hpp"

namespace topocon {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Representative (smallest member) of x's set.
  int find(int x);

  /// Merges the sets of a and b; returns true if they were distinct.
  bool unite(int a, int b);

  std::size_t size() const { return parent_.size(); }

  /// Number of sets; O(size()). Call after the unions have finished.
  int num_sets() const;

  /// Renumbers sets densely: result[x] = component id in [0, num_sets).
  /// Ids are ordered by first occurrence. Call after the unions have
  /// finished; the finds run on `parallel_for`.
  std::vector<int> component_ids(const ParallelFor& parallel_for = {});

 private:
  std::vector<int> parent_;
};

}  // namespace topocon
