#include "ptg/reach.hpp"

#include "graph/scc.hpp"

namespace topocon {

ReachVector initial_reach(int n) {
  ReachVector reach(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    reach[static_cast<std::size_t>(q)] = NodeMask{1} << q;
  }
  return reach;
}

ReachVector advance_reach(std::span<const NodeMask> reach,
                          const Digraph& g) {
  return propagate(g, reach);
}

ReachVector reach_of_prefix(const RunPrefix& prefix) {
  ReachVector reach = initial_reach(prefix.num_processes());
  for (const Digraph& g : prefix.graphs) {
    reach = advance_reach(reach, g);
  }
  return reach;
}

NodeMask broadcast_complete(std::span<const NodeMask> reach) {
  if (reach.empty()) return 0;
  NodeMask common = ~NodeMask{0};
  for (const NodeMask m : reach) {
    common &= m;
  }
  return common & full_mask(static_cast<int>(reach.size()));
}

}  // namespace topocon
