#include "runtime/sweep/parallel_solver.hpp"

#include <atomic>
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
// two-member struct instead of engine-owned storage.
struct RootShard {
  ViewInterner interner;
  std::optional<FrontierEngine> engine;
};

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
  const int n = adversary.num_processes();
  DepthAnalysis analysis;
  analysis.num_values = options.num_values;
  analysis.num_processes = n;
  analysis.interner =
      interner ? std::move(interner) : std::make_shared<ViewInterner>();
  const std::size_t chunk_states = sharding.chunk_states > 0
                                       ? sharding.chunk_states
                                       : default_chunk_states();
  // Out-of-core tier (core/spill.*): expansions exceeding their fair
  // share of the budget go to temp files between expand and merge. Like
  // the chunk size, never observable in any result byte.
  const SpillOptions spill_options = resolve_spill(options.spill);
  std::optional<FrontierSpill> spill;
  if (spill_options.budget_bytes > 0) spill.emplace(spill_options);

  const auto num_roots = static_cast<std::size_t>(
      all_input_vectors(n, options.num_values).size());

  // ---- Level 0: one engine (and private interner) per root.
  std::vector<RootShard> shards(num_roots);
  pool.parallel_for(num_roots, [&](std::size_t r) {
    shards[r].engine.emplace(adversary, options, shards[r].interner,
                             static_cast<int>(r), static_cast<int>(r) + 1);
  });

  // ---- Levels 1..depth, level-synchronous: expand all (root, chunk)
  // work items of a level on the pool, merge per root in chunk order,
  // apply the global state budget, then commit.
  telemetry::MetricsRegistry* metrics = options.metrics;
  telemetry::TraceWriter* trace =
      metrics != nullptr ? metrics->trace() : nullptr;
  std::mutex progress_mutex;
  for (int s = 1; s <= options.depth && !analysis.truncated; ++s) {
    const std::uint64_t span_start =
        trace != nullptr ? trace->now_us() : 0;
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
      frontier_states += shards[r].engine->frontier().size();
      for (const FrontierChunk& chunk :
           shards[r].engine->partition(chunk_states)) {
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
    FrontierBudget budget(options.max_states);
    std::vector<PendingFrontier> expansions(items.size());
    std::size_t chunks_done = 0;
    pool.parallel_for(items.size(), [&](std::size_t i) {
      expansions[i] =
          shards[items[i].root].engine->expand(items[i].chunk, &budget);
      if (spill) spill->maybe_spill(expansions[i], items.size());
      if (sharding.on_chunk) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        ++chunks_done;
        sharding.on_chunk(ChunkProgress{options.depth, s, chunks_done,
                                        items.size(), frontier_states});
      }
    });
    bool tripped = budget.exceeded();
    for (const PendingFrontier& expansion : expansions) {
      tripped |= expansion.overflow;
    }
    if (tripped) {
      if (metrics != nullptr) metrics->add_budget_abort();
      analysis.truncated = true;
      if (spill) spill->discard_staged();
      pool.parallel_for(num_roots, [&](std::size_t r) {
        shards[r].engine->mark_truncated();
      });
      break;
    }

    std::vector<PendingFrontier> pending(num_roots);
    pool.parallel_for(num_roots, [&](std::size_t r) {
      std::vector<PendingFrontier> mine(
          std::make_move_iterator(expansions.begin() +
                                  static_cast<std::ptrdiff_t>(first_item[r])),
          std::make_move_iterator(
              expansions.begin() +
              static_cast<std::ptrdiff_t>(first_item[r + 1])));
      pending[r] = shards[r].engine->merge(std::move(mine));
    });
    std::size_t total = 0;
    for (const PendingFrontier& level : pending) {
      total += level.states.size();
    }
    pool.parallel_for(num_roots, [&](std::size_t r) {
      shards[r].engine->commit(std::move(pending[r]));
    });
    if (spill) spill->commit_level();
    if (metrics != nullptr) {
      // frontier_states is the size of the level just expanded (s - 1),
      // total the size of the level just committed; together the two
      // cover every level for the high-water mark.
      metrics->note_frontier(frontier_states);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - level_start;
      metrics->add_level(options.depth, s, total, elapsed.count());
      if (trace != nullptr) {
        trace->complete(
            "level", "level", span_start, trace->now_us() - span_start,
            {telemetry::TraceArg::num("depth",
                                      static_cast<std::uint64_t>(options.depth)),
             telemetry::TraceArg::num("level", static_cast<std::uint64_t>(s)),
             telemetry::TraceArg::num("states", total),
             telemetry::TraceArg::num("chunks", items.size())});
      }
    }
  }
  const int reached = shards.empty() ? 0 : shards.front().engine->level();
  analysis.depth = reached;

  // ---- Deterministic merge, in root order.
  std::vector<std::vector<ViewId>> remap(num_roots);
  for (std::size_t r = 0; r < num_roots; ++r) {
    remap[r] = analysis.interner->absorb(shards[r].interner);
  }
  // offsets[s][r] = index offset of shard r within merged level s.
  const auto offsets_of = [&](int s) {
    std::vector<int> offsets(num_roots + 1, 0);
    for (std::size_t r = 0; r < num_roots; ++r) {
      offsets[r + 1] =
          offsets[r] +
          static_cast<int>(
              shards[r].engine->level_sizes()[static_cast<std::size_t>(s)]);
    }
    return offsets;
  };
  const auto merge_level = [&](int s) {
    std::vector<PrefixState> merged;
    for (std::size_t r = 0; r < num_roots; ++r) {
      const FrontierEngine& engine = *shards[r].engine;
      const std::vector<PrefixState>& local =
          options.keep_levels ? engine.levels()[static_cast<std::size_t>(s)]
                              : engine.frontier();
      for (const PrefixState& state : local) {
        PrefixState copy = state;
        for (ViewId& id : copy.views) {
          id = remap[r][static_cast<std::size_t>(id)];
        }
        merged.push_back(std::move(copy));
      }
    }
    return merged;
  };

  if (options.keep_levels) {
    std::vector<std::vector<int>> offsets;
    offsets.reserve(static_cast<std::size_t>(reached) + 1);
    for (int s = 0; s <= reached; ++s) offsets.push_back(offsets_of(s));
    for (int s = 0; s <= reached; ++s) {
      analysis.levels.push_back(merge_level(s));
      std::vector<std::pair<int, int>> parents;
      for (std::size_t r = 0; r < num_roots; ++r) {
        for (const auto& [parent, letter] :
             shards[r].engine->first_parent()[static_cast<std::size_t>(s)]) {
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
             shards[r].engine->children()[static_cast<std::size_t>(s)]) {
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

  if (metrics != nullptr && spill) {
    const FrontierSpill::Stats totals = spill->stats();
    telemetry::SpillStats flushed;
    flushed.chunks_spilled = totals.chunks_spilled;
    flushed.bytes_written = totals.bytes_written;
    flushed.bytes_replayed = totals.bytes_replayed;
    flushed.replay_passes = totals.replay_passes;
    metrics->add_spill(flushed);
  }

  compute_components(options, analysis);
  return analysis;
}

SolvabilityResult parallel_check_solvability(
    const MessageAdversary& adversary, const SolvabilityOptions& options,
    ThreadPool& pool, const DepthProgressFn& on_depth,
    const ShardingOptions& sharding) {
  // Same iterative-deepening driver as the serial checker; only the
  // per-depth analysis is swapped for the sharded one.
  return check_solvability_with(
      adversary, options,
      [&adversary, &pool, &sharding](
          const AnalysisOptions& analysis_options,
          const std::shared_ptr<ViewInterner>& interner) {
        return parallel_analyze_depth(adversary, analysis_options, pool,
                                      interner, sharding);
      },
      on_depth);
}

}  // namespace topocon::sweep
