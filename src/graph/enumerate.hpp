// Enumerators for the communication-graph families used by the paper's
// applications (Section 6) and by the message adversaries built on them.
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace topocon {

/// All directed graphs on [n] (with self-loops): 2^(n(n-1)) graphs.
/// Requires n <= 4 to keep the enumeration tractable.
std::vector<Digraph> all_graphs(int n);

/// All graphs obtained from the complete graph by removing at most
/// max_omissions off-diagonal edges (Santoro-Widmayer style adversaries
/// [21, 22]). max_omissions = n(n-1) yields all_graphs(n). Requires
/// n <= 6; the scan is over all 2^(n(n-1)) edge masks.
std::vector<Digraph> graphs_with_max_omissions(int n, int max_omissions);

/// All *rooted* graphs on [n] (exactly one root component); the per-round
/// guarantee of the VSSC adversaries of [6, 23].
std::vector<Digraph> rooted_graphs(int n);

/// The lossy-link alphabet for n = 2 (paper Sections 1, 6.1).
/// Index 0 = LEFT  ("<-"): only 1 -> 0 delivered.
/// Index 1 = RIGHT ("->"): only 0 -> 1 delivered.
/// Index 2 = BOTH  ("<->"): both messages delivered.
std::vector<Digraph> lossy_link_graphs();

/// Names matching lossy_link_graphs() order: "<-", "->", "<->".
const char* lossy_link_name(int index);

}  // namespace topocon
