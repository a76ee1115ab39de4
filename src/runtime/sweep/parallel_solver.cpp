#include "runtime/sweep/parallel_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon::sweep {

namespace {

std::atomic<std::size_t> g_default_chunk_states{0};

// States per parallel_for index of the range assembly.
constexpr std::size_t kAssembleBlock = std::size_t{1} << 14;

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
  std::vector<RootShard> shards_;
  int level_ = 0;
  /// Depth of the deepest views absorbed into interner_ (-1 = none).
  int absorbed_ = -1;
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
  // Level 0: one engine (and private interner) per root.
  pool_.parallel_for(shards_.size(), [&](std::size_t r) {
    shards_[r].engine.emplace(adversary_, options_, shards_[r].interner,
                              static_cast<int>(r), static_cast<int>(r) + 1);
  });
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
  // keep_levels sets are one-shot: assembly moves the history out.
  assert(!options_.keep_levels || !shards_[0].engine->levels().empty());
  while (level_ < depth && !truncated_) advance(depth);
  const std::size_t num_roots = shards_.size();
  const int reached = level_;
  DepthAnalysis analysis;
  analysis.num_values = options_.num_values;
  analysis.num_processes = adversary_.num_processes();
  analysis.interner = interner_;
  analysis.depth = reached;
  analysis.truncated = reached < depth;
  telemetry::TraceWriter* trace =
      options_.metrics != nullptr ? options_.metrics->trace() : nullptr;
  const std::uint64_t span_start = trace != nullptr ? trace->now_us() : 0;
  const std::size_t views_before = interner_->size();

  // ---- Absorb the new views, one view depth at a time, so the shared
  // ids are those of a serial scan of the whole level (and, a level per
  // request, those of absorb_from applied shard by shard).
  std::vector<AbsorbSource> sources;
  sources.reserve(num_roots);
  for (RootShard& shard : shards_) {
    sources.push_back(AbsorbSource{&shard.interner, &shard.remap});
  }
  while (absorbed_ < reached) {
    ++absorbed_;
    absorb_depth(*interner_, sources, absorbed_, pool_);
  }

  // ---- Range assembly: root r owns [offsets[s][r], offsets[s][r + 1])
  // of merged level s and fills it on its own lanes, remapping views
  // into the shared interner; ranges are cut at kAssembleBlock states so
  // a heavy root spreads over the pool.
  const int first_level = options_.keep_levels ? 0 : reached;
  std::vector<std::vector<std::size_t>> offsets;
  struct Range {
    int level;
    std::size_t root;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Range> ranges;
  for (int s = first_level; s <= reached; ++s) {
    std::vector<std::size_t> level_offsets(num_roots + 1, 0);
    for (std::size_t r = 0; r < num_roots; ++r) {
      const std::size_t size =
          shards_[r].engine->level_sizes()[static_cast<std::size_t>(s)];
      level_offsets[r + 1] = level_offsets[r] + size;
      for (std::size_t begin = 0; begin < size; begin += kAssembleBlock) {
        ranges.push_back(
            Range{s, r, begin, std::min(size, begin + kAssembleBlock)});
      }
    }
    offsets.push_back(std::move(level_offsets));
  }
  const auto offset = [&](int s, std::size_t r) {
    return offsets[static_cast<std::size_t>(s - first_level)][r];
  };
  const auto remap_views = [&](PrefixState& state, std::size_t r) {
    for (ViewId& id : state.views) {
      id = shards_[r].remap[static_cast<std::size_t>(id)];
    }
  };

  if (options_.keep_levels) {
    std::vector<std::vector<std::vector<PrefixState>>> levels(num_roots);
    std::vector<std::vector<std::vector<std::pair<int, int>>>> parents(
        num_roots);
    std::vector<std::vector<std::vector<std::vector<int>>>> children(
        num_roots);
    for (std::size_t r = 0; r < num_roots; ++r) {
      levels[r] = shards_[r].engine->take_levels();
      parents[r] = shards_[r].engine->take_first_parent();
      children[r] = shards_[r].engine->take_children();
    }
    const auto level_count = static_cast<std::size_t>(reached) + 1;
    analysis.levels.resize(level_count);
    analysis.first_parent.resize(level_count);
    analysis.children.resize(level_count - 1);
    for (int s = 0; s <= reached; ++s) {
      const auto u = static_cast<std::size_t>(s);
      analysis.levels[u].resize(offset(s, num_roots));
      analysis.first_parent[u].resize(offset(s, num_roots));
      if (s < reached) analysis.children[u].resize(offset(s, num_roots));
    }
    pool_.parallel_for(ranges.size(), [&](std::size_t i) {
      const Range& range = ranges[i];
      const auto s = static_cast<std::size_t>(range.level);
      const std::size_t r = range.root;
      const std::size_t base = offset(range.level, r);
      for (std::size_t k = range.begin; k < range.end; ++k) {
        PrefixState& state = analysis.levels[s][base + k];
        state = std::move(levels[r][s][k]);
        remap_views(state, r);
        const auto [parent, letter] = parents[r][s][k];
        analysis.first_parent[s][base + k] = {
            parent < 0 ? -1
                       : parent + static_cast<int>(offset(range.level - 1, r)),
            letter};
        if (range.level < reached) {
          std::vector<int>& kids = analysis.children[s][base + k];
          kids = std::move(children[r][s][k]);
          const auto shift = static_cast<int>(offset(range.level + 1, r));
          for (int& child : kids) child += shift;
        }
      }
    });
  } else {
    std::vector<PrefixState> merged(offset(reached, num_roots));
    pool_.parallel_for(ranges.size(), [&](std::size_t i) {
      const Range& range = ranges[i];
      const std::vector<PrefixState>& local =
          shards_[range.root].engine->frontier();
      const std::size_t base = offset(reached, range.root);
      for (std::size_t k = range.begin; k < range.end; ++k) {
        merged[base + k] = local[k];
        remap_views(merged[base + k], range.root);
      }
    });
    analysis.levels.push_back(std::move(merged));
  }
  if (trace != nullptr) {
    trace->complete(
        "assemble", "assemble", span_start, trace->now_us() - span_start,
        {telemetry::TraceArg::num("depth", static_cast<std::uint64_t>(depth)),
         telemetry::TraceArg::num("leaves", analysis.leaves().size()),
         telemetry::TraceArg::num("views", interner_->size() - views_before)});
  }

  compute_components(options_, analysis,
                     [this](std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
                       pool_.parallel_for(count, fn);
                     });
  return analysis;
}

}  // namespace

void absorb_depth(ViewInterner& into, const std::vector<AbsorbSource>& sources,
                  int depth, ThreadPool& pool) {
  const auto translate = [&](const AbsorbSource& source,
                             const ViewInterner::Node& node,
                             std::vector<ViewId>& senders) {
    senders.clear();
    for (const ViewId sender : node.senders) {
      senders.push_back((*source.remap)[static_cast<std::size_t>(sender)]);
    }
  };
  // Phase one, per source on the pool: translate each new view of this
  // depth and look it up read-only. found[r][k] is the shared id of
  // source r's k-th new view, -1 if `into` does not hold it yet.
  std::vector<std::vector<ViewId>> found(sources.size());
  pool.parallel_for(sources.size(), [&](std::size_t r) {
    const ViewInterner& from = *sources[r].interner;
    std::vector<ViewId>& remap = *sources[r].remap;
    assert(remap.size() == from.size() ||
           from.node(static_cast<ViewId>(remap.size())).depth >= depth);
    remap.reserve(from.size());
    std::vector<ViewId> senders;
    for (auto id = static_cast<ViewId>(remap.size());
         static_cast<std::size_t>(id) < from.size() &&
         from.node(id).depth == depth;
         ++id) {
      const ViewInterner::Node& node = from.node(id);
      if (depth == 0) {
        found[r].push_back(into.find_base(node.process, node.input));
      } else {
        translate(sources[r], node, senders);
        found[r].push_back(into.find_step(node.process, node.mask, senders));
      }
    }
  });
  // Phase two, serial: intern the misses in (source, private id) order.
  // A key missed by several sources is inserted by the first and found
  // by the rest, exactly as absorb_from source by source would.
  std::vector<ViewId> senders;
  for (std::size_t r = 0; r < sources.size(); ++r) {
    const ViewInterner& from = *sources[r].interner;
    std::vector<ViewId>& remap = *sources[r].remap;
    for (ViewId shared : found[r]) {
      if (shared < 0) {
        const ViewInterner::Node& node =
            from.node(static_cast<ViewId>(remap.size()));
        if (depth == 0) {
          shared = into.base(node.process, node.input);
        } else {
          translate(sources[r], node, senders);
          shared = into.step(node.process, node.mask, senders);
        }
      }
      remap.push_back(shared);
    }
  }
}

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
