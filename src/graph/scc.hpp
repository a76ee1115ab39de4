// Strongly connected components, root components, and broadcastability
// predicates on communication graphs.
//
// Terminology from the paper and its references [6, 23]:
//  * A *root component* (a.k.a. source component / vertex-stable source
//    component when persistent over rounds) is an SCC of the condensation
//    with no incoming edges from outside the SCC.
//  * A graph is *rooted* iff it has exactly one root component; equivalently
//    iff some process has a directed path to every process. Rooted graphs
//    are exactly those in which a single round can originate a broadcast.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace topocon {

/// Result of an SCC decomposition.
struct SccDecomposition {
  /// comp[q] = id of q's component; ids are in reverse topological order of
  /// the condensation (id 0 has no outgoing edges to other components).
  std::vector<int> comp;
  int num_components = 0;
  /// members[c] = bitmask of the processes in component c.
  std::vector<NodeMask> members;
  /// is_root[c] = component c has no incoming edge from another component.
  std::vector<bool> is_root;
};

/// Tarjan's algorithm (iterative), O(n + m).
SccDecomposition strongly_connected_components(const Digraph& g);

/// Union of all root components of g.
NodeMask root_members(const Digraph& g);

/// True iff g has exactly one root component (single-rooted graph).
bool is_rooted(const Digraph& g);

/// The set of processes that reach every process via directed paths in g.
/// Nonempty iff is_rooted(g); equals the unique root component then.
NodeMask broadcasters(const Digraph& g);

/// Transitive-closure step: for each process q, the set of processes whose
/// round-start information q holds after one round under g, given the sets
/// `know` held at round start. know[q] and the result always contain q.
std::vector<NodeMask> propagate(const Digraph& g,
                                std::span<const NodeMask> know);

}  // namespace topocon
