// Chunk-sharded parallel depth-t epsilon-approximation.
//
// Work distribution is two-dimensional. The prefix space splits exactly
// into one independent subtree per input vector ("root": a state's
// children depend only on that state); each root is one FrontierEngine
// with a private ViewInterner. Below the root, every BFS level is cut
// into fixed-size chunks of at most `chunk_states` frontier states
// (FrontierEngine::partition), and the pool executes the resulting
// (root, chunk) work items of one level concurrently -- so a single
// heavy root no longer serializes a level: its chunks spread over all
// threads. Chunk expansion is interner-free (pending views, see
// core/frontier.hpp), which is what makes concurrent chunks of ONE root
// safe without any locking.
//
// Determinism contract: chunk ids are deterministic (frontier order) and
// every level is concatenated in (root, chunk) order before the pending
// views are interned in merged order. The merged level (states, links,
// and even the per-root interner's id assignment order) is therefore
// identical to a serial scan of the whole level, for EVERY chunk size and
// EVERY thread count: `chunk_states` is an execution knob like the thread
// count and can never change a result, a verdict, or a byte of serialized
// output (the tests/golden/ artifacts are diffed with chunking forced to
// its finest setting by ctest). After the last level, shard results are
// merged in root order into one DepthAnalysis, so every field is
// bit-identical to the serial analyze_depth() output -- down to the
// shared interner's ids, because the shards' private views are absorbed
// one view depth at a time in (root, private id) order, the order a
// serial scan interns them.
//
// Assembly is parallel too, and the contract above is unchanged by it.
// absorb_depth translates and looks up every shard's new views on the
// pool, leaving only the interning of the misses, in (root, private id)
// order, on one lane. The merged level is sized from the per-root
// offsets, and each root fills its own range [offset_r, offset_{r+1}),
// remapping views as it goes (keep_levels passes, which are one-shot,
// move their history out of the engines instead of copying it). Component
// labelling (core/epsilon_approx.hpp) runs its unions, finds, and
// per-component summaries by leaf ranges on the same pool. Every one of
// these steps writes index-addressed slots or order-free reductions, so
// no id, leaf order, or label depends on the thread count.
//
// Persistence across depths: the root shards (engines and private
// interners) live for a whole deepening job, not for one depth. The
// depth-t prefix tree contains the depth-(t-1) tree as its first t-1
// levels, so parallel_check_solvability and parallel_depth_series keep
// one shard set, expand exactly one new level per depth, and absorb only
// that level's new views into the shared interner (absorb_depth extends
// each shard's remap). The determinism contract above is unchanged: the
// levels, links, and shared-interner ids each depth assembles are the
// ones a fresh pass builds, because both absorb the views one depth at
// a time in the same (root, private id) order. Only the work
// counters of telemetry/metrics.hpp drop, as levels are no longer
// re-expanded. The keep_levels certify pass still expands from scratch,
// after the persistent shards are released.
//
// Truncation: a level overflows iff the sum of its chunk sizes exceeds
// max_states -- the same condition the serial BFS checks, because chunk
// counts are exact (every emission is a new class, core/frontier.hpp).
// One shared FrontierBudget decides it during the single expansion pass,
// BEFORE the level is interned (merge is separated from commit exactly
// for this), so an overflowing level leaves every interner as if it had
// never been attempted and verdicts (including kResourceLimit) agree
// with the serial path bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/frontier.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon::sweep {

/// Execution-layer sharding knobs. Like the thread count, these can
/// never change any result (see the determinism contract above).
struct ShardingOptions {
  /// Maximum frontier states per expansion chunk; heavy roots split into
  /// ceil(frontier / chunk_states) chunks per level. 0 = the process
  /// default (default_chunk_states()). 1 = finest sharding (one chunk
  /// per state), used by the determinism tests.
  std::size_t chunk_states = 0;
  /// Streaming per-chunk progress (core/frontier.hpp). Invoked under an
  /// internal mutex, possibly from pool threads, once per completed
  /// chunk; purely observational.
  ChunkProgressFn on_chunk;
};

/// Process-wide default for ShardingOptions::chunk_states == 0: set from
/// the CLI (`topocon --chunk=N`); 0 (the initial value) resolves to the
/// built-in kDefaultChunkStates.
inline constexpr std::size_t kDefaultChunkStates = 4096;
void set_default_chunk_states(std::size_t chunk_states);
std::size_t default_chunk_states();

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
/// level after the one before). Phase one runs per source on the pool:
/// it translates each new view's senders through the remap and looks the
/// key up read-only in `into`. Phase two is serial: it interns the
/// misses in (source, private id) order, which deduplicates them across
/// sources (GBBS's ordered remove-duplicates: a key's first occurrence
/// wins). The ids are exactly those absorb_from assigns applied source by
/// source to the same views.
void absorb_depth(ViewInterner& into, const std::vector<AbsorbSource>& sources,
                  int depth, ThreadPool& pool);

/// Parallel analyze_depth(): one frontier engine per input vector,
/// expanded chunk by chunk on the pool -- a one-shot use of the shard
/// set that the deepening drivers below keep across depths. If
/// `interner` is null a fresh one is created; passing one allows sharing
/// ids across depths (as the serial signature does).
DepthAnalysis parallel_analyze_depth(
    const MessageAdversary& adversary, const AnalysisOptions& options,
    ThreadPool& pool, std::shared_ptr<ViewInterner> interner = nullptr,
    const ShardingOptions& sharding = {});

/// The depth series of a kDepthSeries job: the cheap (keep_levels =
/// false) analyses of depths 1..options.depth on one persistent shard
/// set, one DepthStats row per depth, stopping before the first truncated
/// depth. `on_depth` streams each row as it completes.
std::vector<DepthStats> parallel_depth_series(
    const MessageAdversary& adversary, const AnalysisOptions& options,
    ThreadPool& pool, const DepthProgressFn& on_depth = {},
    const ShardingOptions& sharding = {});

/// Parallel check_solvability(): the iterative-deepening driver with each
/// depth's expansion chunk-sharded over the pool and the shards kept
/// across depths. Same contract and same results as the serial checker.
/// Interners inside the returned result are re-homed to the calling
/// thread, so tables and analyses can be used directly by the caller.
/// `on_depth` streams each completed depth's statistics (see
/// DepthProgressFn); it runs on the calling thread of this function and
/// never changes the result. `sharding.on_chunk` additionally streams
/// per-chunk progress inside every depth.
SolvabilityResult parallel_check_solvability(
    const MessageAdversary& adversary, const SolvabilityOptions& options,
    ThreadPool& pool, const DepthProgressFn& on_depth = {},
    const ShardingOptions& sharding = {});

}  // namespace topocon::sweep
