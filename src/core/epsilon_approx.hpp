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
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
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

/// Pending-view dedup representation of the frontier engine
/// (core/frontier.hpp). An execution detail exactly like keep_levels and
/// the chunk size: it is never serialized into query JSON and can never
/// change any result byte -- forced dense, forced sparse, and the
/// per-chunk heuristic all produce bit-identical analyses (enforced by
/// tests/frontier_mode_test.cpp and the --frontier golden lanes).
enum class FrontierMode {
  /// Resolve to the process-wide default (set_default_frontier_mode in
  /// core/frontier.hpp; kAuto unless the CLI overrode it).
  kDefault,
  /// Per-chunk GBBS-style heuristic: direct-indexed tables when the
  /// enumerable key space is small relative to the chunk's emissions,
  /// open-addressed hashing otherwise.
  kAuto,
  /// Always the sparse open-addressed WordSeqIndex path.
  kSparse,
  /// Direct-indexed tables whenever the chunk's key space is
  /// representable under the memory cap (falls back to sparse beyond it).
  kDense,
};

/// Out-of-core spill knobs for the chunked frontier engine
/// (core/spill.*). An execution detail exactly like FrontierMode: never
/// serialized into query JSON, and artifacts are byte-identical at every
/// budget -- spilling only bounds how many expanded-but-unmerged chunks
/// stay resident at once.
struct SpillOptions {
  /// Soft budget in bytes for one level's resident chunk expansions.
  /// 0 resolves to the process-wide default (set_default_spill in
  /// core/spill.hpp), whose initial value disables spilling. A chunk
  /// spills when its footprint times the level's chunk count exceeds
  /// the budget -- a deterministic fair-share rule, so WHAT spills never
  /// depends on thread scheduling.
  std::uint64_t budget_bytes = 0;
  /// Directory for the per-run spill subdirectory; empty = the process
  /// default, then std::filesystem::temp_directory_path().
  std::string dir;
};

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
  /// Pending-view dedup representation; like keep_levels an execution
  /// detail that is never serialized and never changes a result byte.
  FrontierMode frontier = FrontierMode::kDefault;
  /// Optional per-job telemetry sink (telemetry/metrics.hpp). An
  /// execution detail like `frontier`: never serialized, never changes a
  /// result byte; null disables all collection at zero hot-path cost.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Out-of-core spill knobs (chunked engine only; the serial scan
  /// ignores them). Same execution-detail contract as `frontier`.
  SpillOptions spill = {};
};

/// One admissible prefix (input vector, letter sequence) at some level
/// of the BFS.
struct PrefixState {
  InputVector inputs;
  ViewVector views;
  ReachVector reach;
  AdvState adv_state = 0;
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

  /// levels[s] = admissible prefixes of length s (s = 0..depth).
  /// Present only when options.keep_levels (levels.back() -- the leaves --
  /// is always present).
  std::vector<std::vector<PrefixState>> levels;

  /// children[s][i] = indices into levels[s+1] reached from levels[s][i]
  /// by one letter. Present only when options.keep_levels.
  std::vector<std::vector<std::vector<int>>> children;

  /// first_parent[s][i] = (index into levels[s-1], letter) of the first
  /// discovered way to reach levels[s][i]; {-1, -1} at level 0. Present
  /// only when options.keep_levels. Used to reconstruct witness prefixes.
  std::vector<std::vector<std::pair<int, int>>> first_parent;

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

  const std::vector<PrefixState>& leaves() const { return levels.back(); }
};

/// Runs the depth-t analysis. If `interner` is null a fresh one is created;
/// passing one allows sharing ids across depths and with simulations.
DepthAnalysis analyze_depth(const MessageAdversary& adversary,
                            const AnalysisOptions& options,
                            std::shared_ptr<ViewInterner> interner = nullptr);

/// REFERENCE implementation of analyze_depth(): the identical analysis
/// driven by the single-scan initial_frontier()/expand_frontier() calls
/// below instead of the chunked FrontierEngine. Every field of the
/// result -- levels, links, truncation, components, and
/// the interner's id assignment order -- must be bit-identical to
/// analyze_depth() at every chunk size and thread count; the fuzz
/// differential harness (tests/fuzz_differential_test.cpp, `topocon
/// fuzz`) asserts exactly that on randomly composed adversaries.
DepthAnalysis analyze_depth_oracle(
    const MessageAdversary& adversary, const AnalysisOptions& options,
    std::shared_ptr<ViewInterner> interner = nullptr);

// ---- Frontier API -------------------------------------------------------
//
// The BFS over the admissible-prefix space, exposed level by level. The
// production expansion path is the chunked FrontierEngine in
// core/frontier.hpp -- analyze_depth() above drives one engine serially,
// the parallel sweep engine (runtime/sweep/parallel_solver.*) drives one
// engine per root with sub-root chunk sharding. Root sharding is exact
// because a state's children depend only on that state: the prefix space
// is the disjoint union of one subtree per input vector ("root"), and
// each subtree can be expanded independently with a private interner.
// The calls below remain as the single-scan REFERENCE expansion: a direct
// transcription of the serial BFS step, with its own map-based state
// dedup as an independent check of the no-duplicates invariant, that the
// frontier engine must reproduce state for state (enforced by
// tests/frontier_engine_test.cpp).

/// One expanded BFS level: the deduplicated child classes plus the tree
/// links back into the parent level.
struct FrontierLevel {
  std::vector<PrefixState> states;
  /// (parent index, letter) of the first discovery, per state.
  std::vector<std::pair<int, int>> first_parent;
  /// children[i] = deduplicated child indices of parent i; filled only
  /// when expand_frontier is called with keep_links.
  std::vector<std::vector<int>> children;
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
                              std::size_t max_states, bool keep_links);

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
