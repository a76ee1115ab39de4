// Obstructions to consensus: the library's executable counterpart of the
// paper's Section 6.1 (bivalence-based impossibilities) and of the fair /
// unfair limit sequences of Definition 5.16 and Corollary 5.19.
//
// A *merged* component at depth t contains both a v-valent and a w-valent
// prefix class: at resolution epsilon = 2^-t the valence regions are still
// chain-connected. A sequence of analyses over growing t in which some
// component stays merged is exactly the skeleton of a bivalence proof: the
// merged leaf prefixes extend each other and converge (in the
// process-view / minimum topologies) to a forever-bivalent limit -- a fair
// sequence. This module extracts all of that as concrete data:
//
//  * bivalence_series: per-depth counts of merged components (the
//    "bivalent configurations survive" curve; dies at depth 1 for the
//    solvable lossy-link subset {<-, ->}, never dies for {<-, <->, ->}).
//  * find_merged_chain: for a merged analysis, a concrete chain of
//    admissible prefixes from a v-valent to a w-valent leaf in which
//    consecutive prefixes are indistinguishable to some process --
//    the epsilon-chain behind Definition 6.2.
//  * fair_sequence_prefix: a prefix of a fair sequence: a single run whose
//    depth-s component is merged at *every* analysis depth s <= t (its
//    extensions can still decide either value; Definition 5.16's r).
#pragma once

#include <optional>
#include <vector>

#include "core/epsilon_approx.hpp"

namespace topocon {

struct BivalencePoint {
  int depth = 0;
  std::size_t num_leaf_classes = 0;
  int num_components = 0;
  int merged_components = 0;
};

/// Component/merge counts for depths 1..max_depth (E4 series), stopping
/// before the first truncated depth: the projection of depth_series,
/// whose one shard set expands each level once.
std::vector<BivalencePoint> bivalence_series(
    const MessageAdversary& adversary, int max_depth, int num_values = 2,
    std::size_t max_states = 2'000'000);

/// An epsilon-chain witnessing that two valences are merged at the given
/// depth: consecutive prefixes share the view of `witness[i]`.
struct MergedChain {
  int depth = 0;
  std::vector<RunPrefix> chain;
  std::vector<ProcessId> witness;  // size = chain.size() - 1
};

/// Finds a chain from a v0-valent to a v1-valent leaf inside one component
/// of `analysis` (which must have been built with keep_levels). Returns
/// nullopt iff no component contains both valences.
std::optional<MergedChain> find_merged_chain(const MessageAdversary& adversary,
                                             const DepthAnalysis& analysis,
                                             Value v0, Value v1);

/// A length-`depth` prefix of a fair sequence: its component is merged at
/// the depth-t analysis (hence at every shallower depth too, since
/// components only refine as t grows). Prefers a mixed-input witness, the
/// shape bivalence proofs construct. Returns nullopt if the adversary is
/// separated at this depth.
std::optional<RunPrefix> fair_sequence_prefix(
    const MessageAdversary& adversary, int depth, int num_values = 2,
    std::size_t max_states = 2'000'000);

}  // namespace topocon
