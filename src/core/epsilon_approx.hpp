// The epsilon-approximation of Definition 6.2, computed exactly on the
// finite depth-t prefix space of a message adversary.
//
// Fix epsilon = 2^-t. The paper constructs PS^eps_z by iteratively closing
// {z} under eps-balls intersected with PS; that is exactly eps-chain
// connectivity: a and b are in the same PS^eps-component iff there is a
// finite chain a = c_0, ..., c_k = b of admissible sequences with
// d_min(c_i, c_{i+1}) < eps. Since d_min(a, b) < 2^-t holds iff some process
// has the same view in a and b at time t (views are cumulative, Section 4),
// the components are determined by the depth-t prefixes alone:
//
//   universe   = admissible (input vector, length-t graph sequence) pairs,
//                one state each. No two of them share all views: every
//                graph carries its self-loops, so a child's views contain
//                its parent's and children of distinct parents differ;
//                distinct letters (a MessageAdversary invariant) differ in
//                some in-mask, so children of one parent differ too;
//   adjacency  = two prefixes share the interned view id of some process;
//   components = union-find closure, linear in the number of (state, view)
//                pairs via bucketing by view id.
//
// From the components the analysis derives everything Section 5 and 6 talk
// about: valences (which components contain v-valent sequences z_v),
// separation (Corollary 5.6's criterion at resolution eps), and
// broadcastability (Definition 5.8 restricted to depth t).
//
// For a *compact* adversary this is a faithful finite approximation of PS
// itself (Theorem 6.6); for a non-compact adversary it analyzes the closure
// and is expected to stay merged at every depth (Section 6.3) -- that
// failure is one of the reproduced results, not a bug.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/level.hpp"
#include "core/parallel_for.hpp"
#include "ptg/prefix.hpp"
#include "ptg/reach.hpp"
#include "ptg/view_intern.hpp"

namespace topocon {

namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

/// Which topology induces the component adjacency (Section 4):
///  * kMin  -- the minimum topology d_min (the paper's characterization
///    topology, Section 4.2): leaves adjacent iff SOME process has equal
///    views. This is the default and the only mode the solvability
///    checker uses.
///  * kPView -- the P-view topology d_P for a fixed process set P
///    (Section 4.1): leaves adjacent iff the JOINT P-view is equal, i.e.,
///    every process in P has equal views. P = [n] recovers the classic
///    common-prefix (Alpern-Schneider) topology d_max. These modes exist
///    for analysis and illustration: they over-separate (Theorem 5.4 makes
///    decision sets clopen in them too, but separation there does not
///    imply solvability) -- quantified in bench E6.
enum class AdjacencyTopology { kMin, kPView };

struct AnalysisOptions {
  /// Prefix depth t; epsilon = 2^-t.
  int depth = 4;
  /// Input domain {0, ..., num_values-1}.
  int num_values = 2;
  /// Abort (truncated = true) if any BFS level exceeds this many states.
  std::size_t max_states = 2'000'000;
  /// Retain all BFS levels and tree edges (needed for decision tables and
  /// witness extraction; disable for cheap component counting).
  bool keep_levels = true;
  /// Component adjacency; see AdjacencyTopology.
  AdjacencyTopology topology = AdjacencyTopology::kMin;
  /// Process set P for kPView (bitmask; must be nonzero in that mode).
  NodeMask pview_set = 0;
  /// Optional per-job telemetry sink (telemetry/metrics.hpp). An
  /// execution detail like keep_levels: never serialized, never changes a
  /// result byte; null disables all collection at zero hot-path cost.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Streaming progress of a chunked expansion: fired once per completed
/// chunk of the level currently being expanded. Purely observational --
/// results never depend on it -- and the completion ORDER of chunks is
/// lane-count-dependent; consumers may rely only on the counters.
struct ChunkProgress {
  /// Target depth of the analysis pass this level belongs to.
  int depth = 0;
  /// Level being expanded (1..depth).
  int level = 0;
  std::size_t chunks_done = 0;
  std::size_t chunks_total = 0;
  /// Total states of the frontier being expanded (all shards).
  std::size_t frontier_states = 0;
};
using ChunkProgressFn = std::function<void(const ChunkProgress&)>;

/// Sharding knobs of the level driver (core/shard_set.hpp). Like the
/// thread count, these can never change any result.
struct ShardingOptions {
  /// Maximum frontier states per expansion chunk; heavy roots split into
  /// ceil(frontier / chunk_states) chunks per level. 0 =
  /// kDefaultChunkStates (core/frontier.hpp). 1 = finest sharding (one
  /// chunk per state), used by the determinism tests.
  std::size_t chunk_states = 0;
  /// Streaming per-chunk progress. Invoked under an internal mutex,
  /// possibly from other lanes, once per completed chunk; purely
  /// observational.
  ChunkProgressFn on_chunk;
};

/// Summary of one connected component of the depth-t universe.
struct ComponentInfo {
  std::int64_t num_leaves = 0;
  /// Bit v set iff the component contains an all-v-input leaf (i.e., the
  /// component of some z_v in the sense of Section 5.1).
  std::uint32_t valence_mask = 0;
  /// Processes whose input is known to everyone in *every* leaf by round t.
  NodeMask common_broadcast = 0;
  /// Members of common_broadcast whose input value is moreover uniform
  /// across the component; nonempty => broadcastable (Definition 5.8
  /// witnessed within depth t, cf. Theorem 5.9).
  NodeMask broadcasters = 0;
  /// Bit v set iff value v occurs among the inputs of *every* leaf of the
  /// component. Used for the strong-validity variant of consensus
  /// (Definition 5.1's remark): a strong assignment must pick its value
  /// from this set. For broadcastable components the broadcaster's uniform
  /// input always lies here (Theorem 5.9).
  std::uint32_t common_input_values = 0;
  /// Value assigned by the meta-procedure of Section 5.1 (valence if
  /// unique, default 0 for non-valent components); -1 if the component has
  /// two valences (separation failed).
  Value assigned_value = -1;
  /// Assignment satisfying strong validity (decision value is some
  /// process's input in every run): the valence when valent, otherwise the
  /// smallest common input value; -1 if merged or infeasible at this depth.
  Value assigned_value_strong = -1;

  int num_valences() const {
    return std::popcount(valence_mask);
  }

  friend bool operator==(const ComponentInfo&, const ComponentInfo&) = default;
};

/// Result of the depth-t analysis.
struct DepthAnalysis {
  int depth = 0;
  int num_values = 2;
  int num_processes = 0;
  bool truncated = false;

  /// Shared interner; view ids in `levels` refer to it.
  std::shared_ptr<ViewInterner> interner;

  /// levels[s] = admissible prefixes of length s (s = 0..depth), each
  /// level the roots' segments in root order (core/level.hpp). Present
  /// only when options.keep_levels (levels.back() -- the leaves -- is
  /// always present). A ShardSet's levels are its engines' own segments
  /// at the deepest depth it serves, and copies below it; either way
  /// they may outlive the set.
  std::vector<Level> levels;

  /// parent[s][i] = (index into levels[s-1], letter) of the one prefix
  /// that levels[s][i] extends by one letter; {-1, -1} at level 0. The
  /// prefix space is a forest, so this column is its only tree link: a
  /// level is parent-ordered (parent indices never decrease, letters
  /// increase within one parent's run), and the children of
  /// levels[s][i] are the run of levels[s+1] whose parent is i. Present
  /// only when options.keep_levels. Read to reconstruct witness
  /// prefixes and to fold the decision table up the tree.
  std::vector<std::vector<std::pair<int, int>>> parent;

  /// Component id of each leaf (levels.back()).
  std::vector<int> leaf_component;
  std::vector<ComponentInfo> components;

  /// True iff no component contains two valences (Corollary 5.6 at
  /// resolution 2^-depth).
  bool valence_separated = false;
  /// Number of components with >= 2 valences ("still-bivalent" classes).
  int merged_components = 0;
  /// True iff every component containing a valence is broadcastable with a
  /// depth-t witness (Theorem 6.6's condition, checked at this depth).
  bool valent_broadcastable = false;
  /// True iff valence_separated and every component admits a strong-
  /// validity assignment (assigned_value_strong >= 0 everywhere).
  bool strong_assignable = false;

  /// The deepest level: leaf i is leaves()[i], and leaf_component[i]
  /// its component. Walk it with a Level::Cursor in hot loops.
  const Level& leaves() const { return levels.back(); }
};

/// Runs the depth-t analysis: a one-shot pass of the level driver
/// (core/shard_set.hpp), whose levels expand chunk by chunk on
/// `parallel_for` (empty = the calling thread). If `interner` is null a
/// fresh one is created; passing one allows sharing ids across depths
/// and with simulations. The lanes and `sharding` never change a result.
DepthAnalysis analyze_depth(const MessageAdversary& adversary,
                            const AnalysisOptions& options,
                            std::shared_ptr<ViewInterner> interner = nullptr,
                            const ParallelFor& parallel_for = {},
                            const ShardingOptions& sharding = {});

/// REFERENCE implementation of analyze_depth(), and the only one that
/// does not run the level driver: the identical analysis built by the
/// single-scan initial_frontier()/expand_frontier() calls below,
/// re-expanding every level from scratch. Every field of the result --
/// levels, parent columns, truncation, components, and the interner's id
/// assignment order -- must be bit-identical to analyze_depth() at every
/// chunk size and lane count; the fuzz differential harness
/// (tests/fuzz_differential_test.cpp, `topocon fuzz`) asserts exactly
/// that on randomly composed adversaries.
DepthAnalysis analyze_depth_oracle(
    const MessageAdversary& adversary, const AnalysisOptions& options,
    std::shared_ptr<ViewInterner> interner = nullptr);

// ---- Frontier API -------------------------------------------------------
//
// The BFS over the admissible-prefix space, exposed level by level. The
// production expansion path is the chunked FrontierEngine in
// core/frontier.hpp, which the level driver (core/shard_set.hpp) runs as
// one engine per root with sub-root chunk sharding, on any number of
// lanes. Root sharding is exact because a state's children depend only
// on that state: the prefix space is the disjoint union of one subtree
// per input vector ("root"), and each subtree can be expanded
// independently with a private interner.
// The calls below remain as the single-scan REFERENCE expansion: a direct
// transcription of the serial BFS step, with its own map-based state
// dedup as an independent check of the no-duplicates invariant, that the
// frontier engine must reproduce state for state (enforced by
// tests/frontier_engine_test.cpp).

/// One expanded BFS level: the deduplicated child classes plus their
/// parent column back into the parent level.
struct FrontierLevel {
  std::vector<PrefixState> states;
  /// (parent index, letter) of the emission that created each state.
  std::vector<std::pair<int, int>> parent;
  /// True iff the level exceeded max_states (states is then incomplete).
  bool overflow = false;
};

/// Level-0 classes: one per input vector with dense index in
/// [first_root, last_root) of all_input_vectors(n, options.num_values).
std::vector<PrefixState> initial_frontier(const MessageAdversary& adversary,
                                          const AnalysisOptions& options,
                                          ViewInterner& interner,
                                          int first_root, int last_root);

/// Expands `current` by one letter with per-level deduplication.
FrontierLevel expand_frontier(const MessageAdversary& adversary,
                              ViewInterner& interner,
                              const std::vector<PrefixState>& current,
                              std::size_t max_states);

/// Builds leaf_component, components, and the separation/broadcastability
/// flags from analysis.levels.back(); requires num_processes, num_values,
/// the interner, and the leaves to be in place. The unions, the labelling
/// finds, and the per-component summaries run by leaf ranges on
/// `parallel_for` (core/parallel_for.hpp); every label and summary is
/// independent of how the ranges are scheduled.
void compute_components(const AnalysisOptions& options,
                        DepthAnalysis& analysis,
                        const ParallelFor& parallel_for = {});

/// Reconstructs a concrete run prefix (inputs + graphs) that belongs to the
/// given leaf class, by walking the BFS tree backwards. Requires
/// keep_levels. Returns nullopt only if the leaf index is invalid.
std::optional<RunPrefix> reconstruct_prefix(const MessageAdversary& adversary,
                                            const DepthAnalysis& analysis,
                                            int leaf_index);

}  // namespace topocon
