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
// views are interned in merged order. The merged level (states, links,
// and even the per-root interner's id assignment order) is therefore
// identical to a serial scan of the whole level, for EVERY chunk size and
// EVERY lane count: `chunk_states` is an execution knob like the thread
// count and can never change a result, a verdict, or a byte of serialized
// output (the tests/golden/ artifacts are diffed with chunking forced to
// its finest setting by ctest). After the last level, shard results are
// merged in root order into one DepthAnalysis, so every field is
// bit-identical to the single-scan reference analyze_depth_oracle() --
// down to the shared interner's ids, because the shards' private views
// are absorbed one view depth at a time in (root, private id) order, the
// order a serial scan interns them.
//
// Assembly is parallel too, and the contract above is unchanged by it.
// absorb_depth translates and looks up every shard's new views on the
// lanes, leaving only the interning of the misses, in (root, private id)
// order, on one lane. The merged level is sized from the per-root
// offsets, and each root fills its own range [offset_r, offset_{r+1}),
// remapping views as it goes (keep_levels passes, which are one-shot,
// move their history out of the engines instead of copying it). Component
// labelling (core/epsilon_approx.hpp) runs its unions, finds, and
// per-component summaries by leaf ranges on the same lanes. Every one of
// these steps writes index-addressed slots or order-free reductions, so
// no id, leaf order, or label depends on the lane count.
//
// Persistence across depths: the root shards (engines and private
// interners) live for a whole deepening job, not for one depth. The
// depth-t prefix tree contains the depth-(t-1) tree as its first t-1
// levels, so check_solvability and depth_series keep one shard set,
// expand exactly one new level per depth, and absorb only that level's
// new views into the shared interner (absorb_depth extends each shard's
// remap). The determinism contract above is unchanged: the levels,
// links, and shared-interner ids each depth assembles are the ones a
// fresh pass builds, because both absorb the views one depth at a time in
// the same (root, private id) order. Only the work counters of
// telemetry/metrics.hpp drop, as levels are no longer re-expanded. The
// keep_levels certify pass still expands from scratch, after the
// persistent shards are released.
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
/// level after the one before). Phase one runs per source on
/// `parallel_for`: it translates each new view's senders through the
/// remap and looks the key up read-only in `into`. Phase two is serial:
/// it interns the misses in (source, private id) order, which
/// deduplicates them across sources (GBBS's ordered remove-duplicates: a
/// key's first occurrence wins). The ids are exactly those absorb_from
/// assigns applied source by source to the same views.
void absorb_depth(ViewInterner& into, const std::vector<AbsorbSource>& sources,
                  int depth, const ParallelFor& parallel_for = {});

/// The root shards of one job, advanced level by level. analyze(depth)
/// expands only the levels that no earlier request expanded and absorbs
/// only the views they added, so one set kept across the depths of
/// iterative deepening expands every level exactly once; analyze_depth
/// is a one-shot use.
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

  /// Advances to `depth` (requests must not decrease) and assembles the
  /// depth-`depth` analysis, every field identical to a fresh pass.
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
  std::vector<RootShard> shards_;
  int level_ = 0;
  /// Depth of the deepest views absorbed into interner_ (-1 = none).
  int absorbed_ = -1;
  std::mutex progress_mutex_;
};

}  // namespace topocon
