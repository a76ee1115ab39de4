#include "core/shard_set.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {

namespace {

// States per run_parallel index of the range assembly.
constexpr std::size_t kAssembleBlock = std::size_t{1} << 14;

}  // namespace

ShardSet::ShardSet(const MessageAdversary& adversary,
                   const AnalysisOptions& options,
                   const ParallelFor& parallel_for,
                   std::shared_ptr<ViewInterner> interner,
                   const ShardingOptions& sharding)
    : adversary_(adversary),
      options_(options),
      parallel_for_(parallel_for),
      interner_(interner ? std::move(interner)
                         : std::make_shared<ViewInterner>()),
      chunk_states_(sharding.chunk_states > 0 ? sharding.chunk_states
                                              : default_chunk_states()),
      on_chunk_(sharding.on_chunk),
      shards_(all_input_vectors(adversary.num_processes(),
                                options.num_values)
                  .size()) {
  // Level 0: one engine (and private interner) per root.
  run_parallel(parallel_for_, shards_.size(), [&](std::size_t r) {
    shards_[r].engine.emplace(adversary_, options_, shards_[r].interner,
                              static_cast<int>(r), static_cast<int>(r) + 1);
  });
}

// Level-synchronous: expand all (root, chunk) work items of the level on
// the lanes, merge per root in chunk order, apply the global state
// budget, then commit.
bool ShardSet::advance(int depth) {
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
  run_parallel(parallel_for_, items.size(), [&](std::size_t i) {
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
    return false;
  }

  std::vector<PendingFrontier> pending(num_roots);
  run_parallel(parallel_for_, num_roots, [&](std::size_t r) {
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
  run_parallel(parallel_for_, num_roots, [&](std::size_t r) {
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
  return true;
}

DepthAnalysis ShardSet::analyze(int depth) {
  assert(depth >= level_);
  // keep_levels sets are one-shot: assembly moves the history out.
  assert(!options_.keep_levels || !shards_[0].engine->levels().empty());
  while (level_ < depth && advance(depth)) {
  }
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
    absorb_depth(*interner_, sources, absorbed_, parallel_for_);
  }

  // ---- Range assembly: root r owns [offsets[s][r], offsets[s][r + 1])
  // of merged level s and fills it on its own lanes, remapping views
  // into the shared interner; ranges are cut at kAssembleBlock states so
  // a heavy root spreads over the lanes.
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
    run_parallel(parallel_for_, ranges.size(), [&](std::size_t i) {
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
    run_parallel(parallel_for_, ranges.size(), [&](std::size_t i) {
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

  compute_components(options_, analysis, parallel_for_);
  return analysis;
}

void absorb_depth(ViewInterner& into, const std::vector<AbsorbSource>& sources,
                  int depth, const ParallelFor& parallel_for) {
  const auto translate = [&](const AbsorbSource& source,
                             const ViewInterner::Node& node,
                             std::vector<ViewId>& senders) {
    senders.clear();
    for (const ViewId sender : node.senders) {
      senders.push_back((*source.remap)[static_cast<std::size_t>(sender)]);
    }
  };
  // Phase one, per source on the lanes: translate each new view of this
  // depth and look it up read-only. found[r][k] is the shared id of
  // source r's k-th new view, -1 if `into` does not hold it yet.
  std::vector<std::vector<ViewId>> found(sources.size());
  run_parallel(parallel_for, sources.size(), [&](std::size_t r) {
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

}  // namespace topocon
