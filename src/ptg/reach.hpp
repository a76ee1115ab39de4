// Causal reachability ("who has heard from whom") along run prefixes.
//
// reach_q(t) = the set of processes p whose time-0 node (p, 0, x_p) lies in
// q's view at time t. This is exactly the knowledge set used by the paper's
// broadcastability notion (Definition 5.8): process p has broadcast in a by
// round t iff p is in reach_q(t) for every q.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "ptg/prefix.hpp"

namespace topocon {

/// Per-process knowledge masks; entry q = processes whose input q knows.
using ReachVector = std::vector<NodeMask>;

/// reach at time 0: every process knows exactly itself.
ReachVector initial_reach(int n);

/// One round of knowledge propagation under graph g.
ReachVector advance_reach(std::span<const NodeMask> reach, const Digraph& g);

/// Knowledge masks at the end of a prefix.
ReachVector reach_of_prefix(const RunPrefix& prefix);

/// Mask of processes whose input is known by *every* process.
NodeMask broadcast_complete(std::span<const NodeMask> reach);

}  // namespace topocon
