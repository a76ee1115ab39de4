#include "runtime/sweep/parallel_solver.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/spill.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon::sweep {

namespace {

std::atomic<std::size_t> g_default_chunk_states{0};

// One root's engine plus the private interner it expands into. The
// interner must outlive the engine and stay address-stable, hence the
// struct instead of engine-owned storage.
struct RootShard {
  ViewInterner interner;
  std::optional<FrontierEngine> engine;
  /// remap[id] = the shared interner's id of private view `id`, for
  /// every view absorbed so far (extended by ViewInterner::absorb_from).
  std::vector<ViewId> remap;
};

// The root shards of one job, advanced level by level. analyze(depth)
// expands only the levels that no earlier request expanded and absorbs
// only the views they added, so one set kept across the depths of
// iterative deepening expands every level exactly once;
// parallel_analyze_depth is a one-shot use.
class ShardSet {
 public:
  ShardSet(const MessageAdversary& adversary, const AnalysisOptions& options,
           ThreadPool& pool, std::shared_ptr<ViewInterner> interner,
           const ShardingOptions& sharding);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  /// Advances to `depth` (requests must not decrease) and assembles the
  /// depth-`depth` analysis, every field identical to a fresh pass.
  DepthAnalysis analyze(int depth);

 private:
  /// Expands, budgets, and commits level level_ + 1 of the pass that
  /// targets `depth`; sets truncated_ instead if the level overflows.
  void advance(int depth);

  const MessageAdversary& adversary_;
  const AnalysisOptions options_;
  ThreadPool& pool_;
  const std::shared_ptr<ViewInterner> interner_;
  const std::size_t chunk_states_;
  const ChunkProgressFn on_chunk_;
  // Out-of-core tier (core/spill.*): expansions exceeding their fair
  // share of the budget go to temp files between expand and merge. Like
  // the chunk size, never observable in any result byte.
  std::optional<FrontierSpill> spill_;
  std::vector<RootShard> shards_;
  int level_ = 0;
  bool truncated_ = false;
  std::mutex progress_mutex_;
};

ShardSet::ShardSet(const MessageAdversary& adversary,
                   const AnalysisOptions& options, ThreadPool& pool,
                   std::shared_ptr<ViewInterner> interner,
                   const ShardingOptions& sharding)
    : adversary_(adversary),
      options_(options),
      pool_(pool),
      interner_(interner ? std::move(interner)
                         : std::make_shared<ViewInterner>()),
      chunk_states_(sharding.chunk_states > 0 ? sharding.chunk_states
                                              : default_chunk_states()),
      on_chunk_(sharding.on_chunk),
      shards_(all_input_vectors(adversary.num_processes(),
                                options.num_values)
                  .size()) {
  const SpillOptions spill_options = resolve_spill(options.spill);
  if (spill_options.budget_bytes > 0) spill_.emplace(spill_options);
  // Level 0: one engine (and private interner) per root.
  pool_.parallel_for(shards_.size(), [&](std::size_t r) {
    shards_[r].engine.emplace(adversary_, options_, shards_[r].interner,
                              static_cast<int>(r), static_cast<int>(r) + 1);
  });
}

ShardSet::~ShardSet() {
  if (options_.metrics == nullptr || !spill_) return;
  const FrontierSpill::Stats totals = spill_->stats();
  telemetry::SpillStats flushed;
  flushed.chunks_spilled = totals.chunks_spilled;
  flushed.bytes_written = totals.bytes_written;
  flushed.bytes_replayed = totals.bytes_replayed;
  flushed.replay_passes = totals.replay_passes;
  options_.metrics->add_spill(flushed);
}

// Level-synchronous: expand all (root, chunk) work items of the level on
// the pool, merge per root in chunk order, apply the global state
// budget, then commit.
void ShardSet::advance(int depth) {
  const int s = level_ + 1;
  const std::size_t num_roots = shards_.size();
  telemetry::MetricsRegistry* metrics = options_.metrics;
  telemetry::TraceWriter* trace =
      metrics != nullptr ? metrics->trace() : nullptr;
  const std::uint64_t span_start = trace != nullptr ? trace->now_us() : 0;
  const auto level_start = std::chrono::steady_clock::now();
  struct Item {
    std::size_t root;
    FrontierChunk chunk;
  };
  std::vector<Item> items;
  // first_item[r] .. first_item[r + 1] are root r's chunks.
  std::vector<std::size_t> first_item(num_roots + 1, 0);
  std::size_t frontier_states = 0;
  for (std::size_t r = 0; r < num_roots; ++r) {
    first_item[r] = items.size();
    frontier_states += shards_[r].engine->frontier().size();
    for (const FrontierChunk& chunk :
         shards_[r].engine->partition(chunk_states_)) {
      items.push_back(Item{r, chunk});
    }
  }
  first_item[num_roots] = items.size();

  // One budgeted pass: chunk counts are exact (no two emissions are the
  // same class; see core/frontier.hpp), so a tripped budget or an
  // overflowed chunk means the level exceeds max_states -- the serial
  // truncation condition -- and a doomed level costs O(max_states).
  // Whether a level's total exceeds max_states is independent of
  // scheduling, so the single abort tick is deterministic too.
  FrontierBudget budget(options_.max_states);
  std::vector<PendingFrontier> expansions(items.size());
  std::size_t chunks_done = 0;
  pool_.parallel_for(items.size(), [&](std::size_t i) {
    expansions[i] =
        shards_[items[i].root].engine->expand(items[i].chunk, &budget, depth);
    if (spill_) spill_->maybe_spill(expansions[i], items.size());
    if (on_chunk_) {
      const std::lock_guard<std::mutex> lock(progress_mutex_);
      ++chunks_done;
      on_chunk_(ChunkProgress{depth, s, chunks_done, items.size(),
                              frontier_states});
    }
  });
  bool tripped = budget.exceeded();
  for (const PendingFrontier& expansion : expansions) {
    tripped |= expansion.overflow;
  }
  if (tripped) {
    if (metrics != nullptr) metrics->add_budget_abort();
    truncated_ = true;
    if (spill_) spill_->discard_staged();
    return;
  }

  std::vector<PendingFrontier> pending(num_roots);
  pool_.parallel_for(num_roots, [&](std::size_t r) {
    std::vector<PendingFrontier> mine(
        std::make_move_iterator(expansions.begin() +
                                static_cast<std::ptrdiff_t>(first_item[r])),
        std::make_move_iterator(
            expansions.begin() +
            static_cast<std::ptrdiff_t>(first_item[r + 1])));
    pending[r] = shards_[r].engine->merge(std::move(mine));
  });
  std::size_t total = 0;
  for (const PendingFrontier& level : pending) {
    total += level.states.size();
  }
  pool_.parallel_for(num_roots, [&](std::size_t r) {
    shards_[r].engine->commit(std::move(pending[r]));
  });
  if (spill_) spill_->commit_level();
  level_ = s;
  if (metrics != nullptr) {
    // frontier_states is the size of the level just expanded (s - 1),
    // total the size of the level just committed; together the two
    // cover every level for the high-water mark.
    metrics->note_frontier(frontier_states);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - level_start;
    metrics->add_level(depth, s, total, elapsed.count());
    if (trace != nullptr) {
      trace->complete(
          "level", "level", span_start, trace->now_us() - span_start,
          {telemetry::TraceArg::num("depth",
                                    static_cast<std::uint64_t>(depth)),
           telemetry::TraceArg::num("level", static_cast<std::uint64_t>(s)),
           telemetry::TraceArg::num("states", total),
           telemetry::TraceArg::num("chunks", items.size())});
    }
  }
}

DepthAnalysis ShardSet::analyze(int depth) {
  assert(depth >= level_);
  while (level_ < depth && !truncated_) advance(depth);
  const std::size_t num_roots = shards_.size();
  const int reached = level_;
  DepthAnalysis analysis;
  analysis.num_values = options_.num_values;
  analysis.num_processes = adversary_.num_processes();
  analysis.interner = interner_;
  analysis.depth = reached;
  analysis.truncated = reached < depth;

  // ---- Deterministic merge, in root order. Each shard's views are
  // absorbed in id order, so absorbing only the ids added since the last
  // request assigns the same shared ids as absorbing the whole shard.
  for (RootShard& shard : shards_) {
    interner_->absorb_from(shard.interner, shard.remap);
  }
  // offsets[s][r] = index offset of shard r within merged level s.
  const auto offsets_of = [&](int s) {
    std::vector<int> offsets(num_roots + 1, 0);
    for (std::size_t r = 0; r < num_roots; ++r) {
      offsets[r + 1] =
          offsets[r] +
          static_cast<int>(
              shards_[r].engine->level_sizes()[static_cast<std::size_t>(s)]);
    }
    return offsets;
  };
  const auto merge_level = [&](int s) {
    std::vector<PrefixState> merged;
    merged.reserve(static_cast<std::size_t>(offsets_of(s)[num_roots]));
    for (const RootShard& shard : shards_) {
      const FrontierEngine& engine = *shard.engine;
      const std::vector<PrefixState>& local =
          options_.keep_levels ? engine.levels()[static_cast<std::size_t>(s)]
                               : engine.frontier();
      for (const PrefixState& state : local) {
        PrefixState copy = state;
        for (ViewId& id : copy.views) {
          id = shard.remap[static_cast<std::size_t>(id)];
        }
        merged.push_back(std::move(copy));
      }
    }
    return merged;
  };

  if (options_.keep_levels) {
    std::vector<std::vector<int>> offsets;
    offsets.reserve(static_cast<std::size_t>(reached) + 1);
    for (int s = 0; s <= reached; ++s) offsets.push_back(offsets_of(s));
    for (int s = 0; s <= reached; ++s) {
      analysis.levels.push_back(merge_level(s));
      std::vector<std::pair<int, int>> parents;
      for (std::size_t r = 0; r < num_roots; ++r) {
        for (const auto& [parent, letter] :
             shards_[r].engine->first_parent()[static_cast<std::size_t>(s)]) {
          parents.emplace_back(
              parent < 0 ? -1 : parent + offsets[static_cast<std::size_t>(
                                              s - 1)][r],
              letter);
        }
      }
      analysis.first_parent.push_back(std::move(parents));
    }
    for (int s = 0; s < reached; ++s) {
      std::vector<std::vector<int>> kids;
      for (std::size_t r = 0; r < num_roots; ++r) {
        for (const std::vector<int>& local :
             shards_[r].engine->children()[static_cast<std::size_t>(s)]) {
          std::vector<int> shifted;
          shifted.reserve(local.size());
          for (const int child : local) {
            shifted.push_back(
                child + offsets[static_cast<std::size_t>(s + 1)][r]);
          }
          kids.push_back(std::move(shifted));
        }
      }
      analysis.children.push_back(std::move(kids));
    }
  } else {
    analysis.levels.push_back(merge_level(reached));
  }

  compute_components(options_, analysis);
  return analysis;
}

}  // namespace

void set_default_chunk_states(std::size_t chunk_states) {
  g_default_chunk_states.store(chunk_states, std::memory_order_relaxed);
}

std::size_t default_chunk_states() {
  const std::size_t configured =
      g_default_chunk_states.load(std::memory_order_relaxed);
  return configured > 0 ? configured : kDefaultChunkStates;
}

DepthAnalysis parallel_analyze_depth(const MessageAdversary& adversary,
                                     const AnalysisOptions& options,
                                     ThreadPool& pool,
                                     std::shared_ptr<ViewInterner> interner,
                                     const ShardingOptions& sharding) {
  return ShardSet(adversary, options, pool, std::move(interner), sharding)
      .analyze(options.depth);
}

std::vector<DepthStats> parallel_depth_series(
    const MessageAdversary& adversary, const AnalysisOptions& options,
    ThreadPool& pool, const DepthProgressFn& on_depth,
    const ShardingOptions& sharding) {
  AnalysisOptions cheap = options;
  cheap.keep_levels = false;
  ShardSet shards(adversary, cheap, pool, nullptr, sharding);
  std::vector<DepthStats> series;
  for (int depth = 1; depth <= options.depth; ++depth) {
    const DepthAnalysis analysis = shards.analyze(depth);
    if (analysis.truncated) break;
    series.push_back(depth_stats(analysis));
    if (on_depth) on_depth(series.back());
  }
  return series;
}

SolvabilityResult parallel_check_solvability(
    const MessageAdversary& adversary, const SolvabilityOptions& options,
    ThreadPool& pool, const DepthProgressFn& on_depth,
    const ShardingOptions& sharding) {
  // Same iterative-deepening driver as the serial checker; only the
  // per-depth analysis is swapped for the sharded one. The cheap passes
  // (depths 1, 2, ... in order, see DepthAnalyzeFn) share one shard set,
  // so each expands one new level. The certify pass re-expands from
  // scratch after releasing it, so it peaks no higher than a lone pass.
  std::optional<ShardSet> shards;
  return check_solvability_with(
      adversary, options,
      [&](const AnalysisOptions& depth_options,
          const std::shared_ptr<ViewInterner>& interner) {
        if (depth_options.keep_levels) {
          shards.reset();
          return parallel_analyze_depth(adversary, depth_options, pool,
                                        interner, sharding);
        }
        if (!shards) {
          shards.emplace(adversary, depth_options, pool, interner, sharding);
        }
        return shards->analyze(depth_options.depth);
      },
      on_depth);
}

}  // namespace topocon::sweep
