// The level driver: chunk-sharded depth-t epsilon-approximation, the one
// loop that expands, budgets, and commits the levels of every depth pass
// (analyze_depth, check_solvability, depth_series).
//
// Work distribution is two-dimensional. The prefix space splits exactly
// into one independent subtree per input vector ("root": a state's
// children depend only on that state); each root is one FrontierEngine
// with a private ViewInterner. Below the root, every BFS level is cut
// into fixed-size chunks of at most `chunk_states` frontier states
// (FrontierEngine::partition), and the ParallelFor (core/parallel_for.hpp)
// executes the resulting (root, chunk) work items of one level
// concurrently -- so a single heavy root no longer serializes a level:
// its chunks spread over all lanes. An empty ParallelFor runs every item
// on the calling thread: the same code with one lane. Chunk expansion is
// interner-free (pending views, see core/frontier.hpp), which is what
// makes concurrent chunks of ONE root safe without any locking.
//
// Determinism contract: chunk ids are deterministic (frontier order) and
// every level is concatenated in (root, chunk) order before the pending
// views are interned in merged order. The merged level (states, parent
// column, and even the per-root interner's id assignment order) is therefore
// identical to a serial scan of the whole level, for EVERY chunk size and
// EVERY lane count: `chunk_states` is an execution knob like the thread
// count and can never change a result, a verdict, or a byte of serialized
// output (the tests/golden/ artifacts are diffed with chunking forced to
// its finest setting by ctest). After the last level, shard results are
// assembled in root order into one DepthAnalysis, so every field (a
// level read in index order) is identical to the single-scan reference
// analyze_depth_oracle() --
// down to the shared interner's ids, because the shards' private views
// are absorbed one view depth at a time in (root, private id) order, the
// order a serial scan interns them.
//
// Assembly is parallel too, and the contract above is unchanged by it.
// absorb_depth interns every shard's new views on the lanes, over blocks
// of their (root, private id) order, and an ordered deduplication gives
// them the ids a serial loop in that order assigns. Each analysis level
// is a Level (core/level.hpp): the roots' own segments in root order,
// root r's states at [offsets[r], offsets[r + 1]), which is exactly the
// range a serial scan gives them. One task per (level, root) remaps the
// root's views into the shared interner on the lanes, and under
// keep_levels a second pass shifts each root's parent indices by its
// offset in the level above into the merged parent column (the column
// is the only tree link). At the deepest depth the set serves
// (AnalysisOptions::depth), the segments are the engines' own levels,
// taken out and remapped in place: no state is copied or moved, and each
// level exists once. Component labelling (core/epsilon_approx.hpp) runs
// its unions, finds, and per-component summaries by leaf ranges on the
// same lanes, walking the segments with a cursor. Every one of these
// steps writes index-addressed slots or order-free reductions, so no id,
// leaf order, or label depends on the lane count.
//
// Persistence across depths: the root shards (engines and private
// interners) live for a whole deepening job, not for one depth. The
// depth-t prefix tree contains the depth-(t-1) tree as its first t-1
// levels, so check_solvability and depth_series keep one shard set,
// expand exactly one new level per depth, and absorb only that level's
// new views into the shared interner (absorb_depth extends each shard's
// remap). The determinism contract above is unchanged: the levels,
// parent columns, and shared-interner ids each depth assembles are the ones a
// fresh pass builds, because both absorb the views one depth at a time in
// the same (root, private id) order. Only the work counters of
// telemetry/metrics.hpp drop, as levels are no longer re-expanded. Below
// the deepest depth the engines expand the current level next, so each
// root copies it into a segment of the set's pool, remapping as it
// copies; at the deepest depth assembly takes the levels out and
// releases the engines and private interners, and the set is spent: no
// later analyze() may come. check_solvability therefore builds its set
// for max_depth, depth_series for its last depth, and bivalence_series
// (core/obstruction.hpp) is depth_series projected. The keep_levels
// certify pass still expands from scratch, after the persistent shards
// are released.
//
// Memory: every engine of a set maps its pending columns and its levels
// in the set's one PagePool (memory/page_column.hpp), so a level's chunk
// buffers are the pages the level before gave back, and each root merges
// and commits in one task, handing its pages on to the roots after it.
// From the merges of the deepest level on (or from the assembly that
// spends a truncated set) the pool unmaps what is given back, and so it
// does from the moment the set dies: the engines' levels and pending
// columns are unmapped with the set, not cached. The set and every
// analysis level mapped in the pool share the pool, so an analysis may
// outlive its set, and its segments are unmapped when it dies.
//
// Truncation: a level overflows iff the sum of its chunk sizes exceeds
// max_states -- the same condition the single-scan BFS checks, because
// chunk counts are exact (every emission is a new class,
// core/frontier.hpp). One shared FrontierBudget decides it during the
// single expansion pass, BEFORE the level is interned (merge is separated
// from commit exactly for this), so an overflowing level leaves every
// interner as if it had never been attempted and verdicts (including
// kResourceLimit) agree with the reference bit for bit.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/frontier.hpp"
#include "core/parallel_for.hpp"

namespace topocon {

/// One private interner to absorb into a shared one, with the remap
/// that ViewInterner::absorb_from extends (remap[id] = shared id).
struct AbsorbSource {
  const ViewInterner* interner = nullptr;
  std::vector<ViewId>* remap = nullptr;
};

/// ViewInterner::absorb_from for the views of depth `depth` of every
/// source, in source order; each source's views of smaller depths must
/// be absorbed already, and its views of depth `depth` must come next in
/// id order (true of every frontier engine's interner, which interns a
/// level after the one before). Returns how many of those views `into`
/// did not hold yet (counting a view new to it once per source).
///
/// It runs on `parallel_for` over blocks of the views' (source, private
/// id) rank order, so one heavy source spreads over every lane: each
/// view is translated through the remap, hashed, and looked up
/// read-only in `into` once; each miss enters a scratch table by a
/// priority write that keeps the smallest rank of every key, which is
/// GBBS's ordered remove-duplicates (a key's first occurrence wins). A
/// prefix sum over the winners in rank order gives them the ids
/// into.size(), into.size() + 1, ..., and each other copy of a key takes
/// its winner's id. The ids are exactly those absorb_from assigns applied
/// source by source to the same views, at any lane count. The calling
/// thread must own `into`; the lanes write only pre-sized disjoint slots
/// and atomics.
std::size_t absorb_depth(ViewInterner& into,
                         const std::vector<AbsorbSource>& sources, int depth,
                         const ParallelFor& parallel_for = {});

/// The root shards of one job, advanced level by level. analyze(depth)
/// expands only the levels that no earlier request expanded and absorbs
/// only the views they added, so one set kept across the depths of
/// iterative deepening expands every level exactly once; analyze_depth
/// is a one-shot use. options.depth is the deepest depth the set serves:
/// analyze(options.depth) hands the engines' levels to its result as
/// its segments and spends the set.
class ShardSet {
 public:
  /// One engine (and private interner) per root. A null `interner`
  /// starts a fresh shared one.
  ShardSet(const MessageAdversary& adversary, const AnalysisOptions& options,
           const ParallelFor& parallel_for,
           std::shared_ptr<ViewInterner> interner,
           const ShardingOptions& sharding);
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;
  /// Drains the pool, so the mappings the engines give back as they die
  /// are unmapped at once instead of cached for an analysis that still
  /// holds the pool.
  ~ShardSet();

  /// Advances to `depth` (requests must not decrease nor exceed
  /// options.depth) and assembles the depth-`depth` analysis, every field
  /// identical to a fresh pass. Must not be called again once `depth`
  /// reached options.depth: that call spends the set.
  DepthAnalysis analyze(int depth);

 private:
  // One root's engine plus the private interner it expands into. The
  // interner must outlive the engine and stay address-stable, hence the
  // struct instead of engine-owned storage.
  struct RootShard {
    ViewInterner interner;
    std::optional<FrontierEngine> engine;
    /// remap[id] = the shared interner's id of private view `id`, for
    /// every view absorbed so far (extended by absorb_depth).
    std::vector<ViewId> remap;
  };

  /// Expands, budgets, and commits level level_ + 1 of the pass that
  /// targets `depth`; returns false, committing nothing, if the level
  /// overflows max_states.
  bool advance(int depth);

  const MessageAdversary& adversary_;
  const AnalysisOptions options_;
  const ParallelFor parallel_for_;
  const std::shared_ptr<ViewInterner> interner_;
  const std::size_t chunk_states_;
  const ChunkProgressFn on_chunk_;
  /// The pending columns and levels of every engine; declared before the
  /// engines so it outlives them, and shared with the analysis levels
  /// mapped in it, which may outlive the set.
  const std::shared_ptr<PagePool> pages_;
  /// One per root; empty once the set is spent.
  std::vector<RootShard> shards_;
  int level_ = 0;
  /// Depth of the deepest views absorbed into interner_ (-1 = none).
  int absorbed_ = -1;
  std::mutex progress_mutex_;
};

}  // namespace topocon
