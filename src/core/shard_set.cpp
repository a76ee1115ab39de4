#include "core/shard_set.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {

namespace {

// The scratch table of absorb_depth: a slot holds the high half of a
// key's hash above the smallest rank seen with that key, or kEmptySlot.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
constexpr std::uint64_t kRankMask = 0xffffffffu;
// ids[i] of a miss that is its key's smallest rank, until it has its id.
constexpr ViewId kWinner = -2;
// Ranks hashed and prefetched ahead of their table probes.
constexpr std::size_t kPrefetchBatch = 16;

// Inserts `rank` (whose key hashes to `hash`) into `table`, or lowers
// the rank stored for its key to `rank` if that is smaller -- a priority
// write, by CAS through std::atomic_ref, so concurrent lanes agree on
// the smallest rank whatever order they run in. `same_key(j)` says
// whether rank j has `rank`'s key. Returns the slot of the key.
template <typename SameKey>
std::size_t write_min(std::vector<std::uint64_t>& table, std::uint64_t hash,
                      std::uint32_t rank, const SameKey& same_key) {
  const std::size_t wrap = table.size() - 1;
  const std::uint64_t mine = (hash & ~kRankMask) | rank;
  for (std::size_t slot = hash & wrap;; slot = (slot + 1) & wrap) {
    std::atomic_ref<std::uint64_t> cell(table[slot]);
    std::uint64_t seen = cell.load(std::memory_order_acquire);
    if (seen == kEmptySlot &&
        cell.compare_exchange_strong(seen, mine, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return slot;
    }
    // The slot holds a key for good: only a smaller rank of the same key
    // ever replaces its entry.
    if ((seen & ~kRankMask) != (mine & ~kRankMask) ||
        !same_key(static_cast<std::uint32_t>(seen & kRankMask))) {
      continue;
    }
    while (mine < seen &&
           !cell.compare_exchange_weak(seen, mine, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    }
    return slot;
  }
}

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
                                              : kDefaultChunkStates),
      on_chunk_(sharding.on_chunk),
      pages_(std::make_shared<PagePool>()),
      shards_(all_input_vectors(adversary.num_processes(),
                                options.num_values)
                  .size()) {
  // Level 0: one engine (and private interner) per root.
  run_parallel(parallel_for_, shards_.size(), [&](std::size_t r) {
    shards_[r].engine.emplace(adversary_, options_, shards_[r].interner,
                              static_cast<int>(r), static_cast<int>(r) + 1,
                              pages_.get());
  });
}

ShardSet::~ShardSet() { pages_->drain(); }

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

  // The budget held, so no root's merge overflows, and each root merges
  // and commits in one task: the pages its chunks and its pending level
  // give back serve the roots that merge and commit after it. The set
  // expands no level after its deepest, so there a page given back is
  // worth nothing cached, and the pool unmaps it at once.
  if (s == options_.depth) pages_->drain();
  std::vector<std::size_t> root_states(num_roots, 0);
  std::vector<std::size_t> root_bytes(num_roots, 0);
  run_parallel(parallel_for_, num_roots, [&](std::size_t r) {
    std::vector<PendingFrontier> mine(
        std::make_move_iterator(expansions.begin() +
                                static_cast<std::ptrdiff_t>(first_item[r])),
        std::make_move_iterator(
            expansions.begin() +
            static_cast<std::ptrdiff_t>(first_item[r + 1])));
    PendingFrontier level = shards_[r].engine->merge(std::move(mine));
    root_states[r] = level.states.size();
    root_bytes[r] = level.mapped_bytes();
    shards_[r].engine->commit(std::move(level));
  });
  std::size_t total = 0;
  std::size_t pending_bytes = 0;
  for (std::size_t r = 0; r < num_roots; ++r) {
    total += root_states[r];
    pending_bytes += root_bytes[r];
  }
  const std::size_t pool_bytes = pages_->mapped_bytes();
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
           telemetry::TraceArg::num("chunks", items.size()),
           telemetry::TraceArg::num("pending_bytes", pending_bytes),
           telemetry::TraceArg::num("pool_bytes", pool_bytes)});
    }
  }
  return true;
}

DepthAnalysis ShardSet::analyze(int depth) {
  assert(!shards_.empty() && "the set is spent after its deepest depth");
  assert(level_ <= depth && depth <= options_.depth);
  // At the deepest depth the set serves, assembly takes the levels out of
  // the engines instead of copying them, and the set is spent. keep_levels
  // sets are one-shot, so they always are at that depth.
  const bool spend = depth == options_.depth;
  assert(spend || !options_.keep_levels);
  while (level_ < depth && advance(depth)) {
  }
  // A truncated pass stops short of the deepest level; the assembly that
  // spends the set unmaps what it releases all the same.
  if (spend) pages_->drain();
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
  const std::uint64_t absorb_start = trace != nullptr ? trace->now_us() : 0;
  std::size_t absorbed_views = 0;
  std::size_t misses = 0;
  while (absorbed_ < reached) {
    ++absorbed_;
    for (const RootShard& shard : shards_) {
      absorbed_views -= shard.remap.size();
    }
    misses += absorb_depth(*interner_, sources, absorbed_, parallel_for_);
    for (const RootShard& shard : shards_) {
      absorbed_views += shard.remap.size();
    }
  }
  if (trace != nullptr) {
    trace->complete(
        "absorb", "absorb", absorb_start, trace->now_us() - absorb_start,
        {telemetry::TraceArg::num("depth", static_cast<std::uint64_t>(depth)),
         telemetry::TraceArg::num("views", absorbed_views),
         telemetry::TraceArg::num("misses", misses)});
  }

  // ---- Assembly: level u of the analysis (level first_level + u of the
  // engines) is the roots' segments in root order. At the deepest depth
  // the set serves, the segments are the engines' own levels, taken out
  // and remapped in place, so no state is copied or moved. Below it the
  // engines expand the current level next, so each root copies it into
  // a segment of the set's pool, remapping views as it copies. Roots are
  // equal-sized (the adversary does not read inputs), so one task per
  // (level, root) balances the lanes whenever roots >= lanes.
  const int first_level = options_.keep_levels ? 0 : reached;
  const auto level_count = static_cast<std::size_t>(reached - first_level) + 1;
  std::vector<std::vector<EngineLevel>> segments(level_count);
  std::vector<std::vector<std::vector<std::pair<int, int>>>> parents(
      num_roots);
  for (std::size_t r = 0; r < num_roots; ++r) {
    std::vector<EngineLevel> taken;
    if (spend) {
      taken = shards_[r].engine->take_levels();
      parents[r] = shards_[r].engine->take_parents();
    }
    for (std::size_t u = 0; u < level_count; ++u) {
      segments[u].push_back(
          spend ? std::move(taken[u])
                : EngineLevel(PageAllocator<PrefixState>(pages_.get())));
    }
  }
  run_parallel(parallel_for_, level_count * num_roots, [&](std::size_t i) {
    const std::size_t u = i / num_roots;
    const RootShard& shard = shards_[i % num_roots];
    const auto remapped = [&](PrefixState& state) {
      for (ViewId& id : state.views) {
        id = shard.remap[static_cast<std::size_t>(id)];
      }
    };
    EngineLevel& segment = segments[u][i % num_roots];
    if (spend) {
      for (PrefixState& state : segment) remapped(state);
      return;
    }
    const EngineLevel& from = shard.engine->levels()[u];
    segment.reserve(from.size());
    for (const PrefixState& state : from) {
      remapped(segment.emplace_back(state));
    }
  });
  std::size_t level_bytes = 0;
  analysis.levels.reserve(level_count);
  for (std::vector<EngineLevel>& level : segments) {
    analysis.levels.emplace_back(std::move(level), pages_);
    level_bytes += analysis.levels.back().mapped_bytes();
  }
  if (options_.keep_levels) {
    // The parent column stays merged: root r shifts its parent indices
    // by its offset in the level above.
    analysis.parent.resize(level_count);
    for (std::size_t u = 0; u < level_count; ++u) {
      analysis.parent[u].resize(analysis.levels[u].size());
    }
    run_parallel(parallel_for_, level_count * num_roots, [&](std::size_t i) {
      const std::size_t u = i / num_roots;
      const std::size_t r = i % num_roots;
      const std::size_t base = analysis.levels[u].offsets()[r];
      for (std::size_t k = 0; k < parents[r][u].size(); ++k) {
        const auto [parent, letter] = parents[r][u][k];
        analysis.parent[u][base + k] = {
            parent < 0 ? -1
                       : parent + static_cast<int>(
                                      analysis.levels[u - 1].offsets()[r]),
            letter};
      }
    });
  }
  if (spend) {
    // Every level now lives in the analysis; the engines and private
    // interners are not needed again.
    shards_.clear();
  }
  if (trace != nullptr) {
    trace->complete(
        "assemble", "assemble", span_start, trace->now_us() - span_start,
        {telemetry::TraceArg::num("depth", static_cast<std::uint64_t>(depth)),
         telemetry::TraceArg::num("leaves", analysis.leaves().size()),
         telemetry::TraceArg::num("views", interner_->size() - views_before),
         telemetry::TraceArg::num("copied",
                                  spend ? 0 : analysis.leaves().size()),
         telemetry::TraceArg::num("level_bytes", level_bytes)});
  }

  compute_components(options_, analysis, parallel_for_);
  return analysis;
}

std::size_t absorb_depth(ViewInterner& into,
                         const std::vector<AbsorbSource>& sources, int depth,
                         const ParallelFor& parallel_for) {
  // The rank order: source r's new views of this depth, private ids
  // first[r], first[r] + 1, ..., are the ranks start[r] .. start[r + 1] -
  // 1. Their senders are one contiguous run of the source's sender
  // column, from run[r] on; translated through the remap they go to the
  // same offsets of translated[], from translated_start[r] on.
  const std::size_t num_sources = sources.size();
  std::vector<ViewId> first(num_sources);
  std::vector<std::size_t> start(num_sources + 1, 0);
  std::vector<const ViewId*> run(num_sources, nullptr);
  std::vector<std::size_t> translated_start(num_sources + 1, 0);
  for (std::size_t r = 0; r < num_sources; ++r) {
    const ViewInterner& from = *sources[r].interner;
    std::vector<ViewId>& remap = *sources[r].remap;
    assert(remap.size() == from.size() ||
           from.node(static_cast<ViewId>(remap.size())).depth >= depth);
    first[r] = static_cast<ViewId>(remap.size());
    ViewId end = first[r];
    while (static_cast<std::size_t>(end) < from.size() &&
           from.node(end).depth == depth) {
      ++end;
    }
    start[r + 1] = start[r] + static_cast<std::size_t>(end - first[r]);
    translated_start[r + 1] = translated_start[r];
    if (end > first[r]) {
      const std::span<const ViewId> head = from.key(first[r]).senders;
      const std::span<const ViewId> tail = from.key(end - 1).senders;
      run[r] = head.data();
      translated_start[r + 1] +=
          static_cast<std::size_t>(tail.data() + tail.size() - head.data());
    }
    remap.resize(static_cast<std::size_t>(end));
  }
  const std::size_t total = start[num_sources];
  if (total >= kRankMask) {
    std::fprintf(stderr, "absorb_depth: more than 2^32 new views\n");
    std::abort();
  }
  std::vector<ViewId> translated(translated_start[num_sources]);
  const auto source_of = [&](std::size_t rank) {
    return static_cast<std::size_t>(
        std::upper_bound(start.begin(), start.end(), rank) - start.begin() -
        1);
  };
  const auto private_key = [&](std::size_t r, std::size_t i) {
    return sources[r].interner->key(first[r] +
                                    static_cast<ViewId>(i - start[r]));
  };
  // Where the translation of source r's view `key` goes.
  const auto translation = [&](std::size_t r, const ViewInterner::Key& key) {
    return translated.data() + translated_start[r] +
           (key.senders.data() - run[r]);
  };
  // Rank i's key in `into`'s ids (valid once the lane that owns rank i
  // has translated it).
  const auto key_of = [&](std::size_t r, std::size_t i) {
    const ViewInterner::Key key = private_key(r, i);
    return ViewInterner::Key{key.process, key.word,
                             {translation(r, key), key.senders.size()}};
  };
  // Runs fn(r, i) for the ranks i in [begin, end), r the source of i.
  const auto each_rank = [&](std::size_t begin, std::size_t end,
                             const auto& fn) {
    std::size_t r = source_of(begin);
    for (std::size_t i = begin; i < end; ++i) {
      while (i >= start[r + 1]) ++r;
      fn(r, i);
    }
  };

  // ---- Translate, hash and look up every rank once. A hit takes its
  // shared id; a miss enters the scratch table, which keeps the smallest
  // rank of each key: its first occurrence, the one a serial loop interns.
  std::vector<ViewId> ids(total);
  std::vector<std::uint32_t> slot(total);  // a miss's slot in `table`
  std::size_t capacity = 2;
  while (capacity < 2 * total) capacity *= 2;
  std::vector<std::uint64_t> table(capacity, kEmptySlot);
  const std::size_t blocks = num_parallel_blocks(total);
  std::vector<std::size_t> block_misses(blocks, 0);
  const std::size_t wrap = capacity - 1;
  run_parallel_blocks(parallel_for, total, [&](std::size_t block,
                                               std::size_t begin,
                                               std::size_t end) {
    std::size_t misses = 0;
    std::uint64_t hashes[kPrefetchBatch];
    for (std::size_t batch = begin; batch < end; batch += kPrefetchBatch) {
      const std::size_t stop = std::min(end, batch + kPrefetchBatch);
      each_rank(batch, stop, [&](std::size_t r, std::size_t i) {
        const ViewInterner::Key own = private_key(r, i);
        const std::vector<ViewId>& remap = *sources[r].remap;
        ViewId* out = translation(r, own);
        for (std::size_t k = 0; k < own.senders.size(); ++k) {
          out[k] = remap[static_cast<std::size_t>(own.senders[k])];
        }
        const std::uint64_t hash = ViewInterner::hash(
            {own.process, own.word, {out, own.senders.size()}});
        hashes[i - batch] = hash;
        into.prefetch(hash);
        __builtin_prefetch(table.data() + (hash & wrap));
      });
      each_rank(batch, stop, [&](std::size_t r, std::size_t i) {
        const ViewInterner::Key key = key_of(r, i);
        const std::uint64_t hash = hashes[i - batch];
        ids[i] = into.find(key, hash);
        if (ids[i] >= 0) return;
        ++misses;
        slot[i] = static_cast<std::uint32_t>(write_min(
            table, hash, static_cast<std::uint32_t>(i),
            [&](std::uint32_t j) { return key_of(source_of(j), j) == key; }));
      });
    }
    block_misses[block] = misses;
  });

  // ---- The winners take the ids into.size(), into.size() + 1, ... in
  // rank order: count them per block, and a prefix sum over the blocks
  // gives each block its first id and sender offset.
  std::vector<std::size_t> block_views(blocks + 1, 0);
  std::vector<std::size_t> block_senders(blocks + 1, 0);
  run_parallel_blocks(parallel_for, total, [&](std::size_t block,
                                               std::size_t begin,
                                               std::size_t end) {
    std::size_t views = 0;
    std::size_t senders = 0;
    for (std::size_t batch = begin; batch < end; batch += kPrefetchBatch) {
      const std::size_t stop = std::min(end, batch + kPrefetchBatch);
      for (std::size_t i = batch; i < stop; ++i) {
        if (ids[i] < 0) __builtin_prefetch(table.data() + slot[i]);
      }
      each_rank(batch, stop, [&](std::size_t r, std::size_t i) {
        if (ids[i] >= 0 || (table[slot[i]] & kRankMask) != i) return;
        ids[i] = kWinner;
        ++views;
        senders += private_key(r, i).senders.size();
      });
    }
    block_views[block + 1] = views;
    block_senders[block + 1] = senders;
  });
  for (std::size_t b = 0; b < blocks; ++b) {
    block_views[b + 1] += block_views[b];
    block_senders[b + 1] += block_senders[b];
  }
  const ViewInterner::Blank blank =
      into.append_blank(block_views[blocks], block_senders[blocks]);
  run_parallel_blocks(parallel_for, blank.stale, [&](std::size_t,
                                                     std::size_t begin,
                                                     std::size_t end) {
    into.reindex(static_cast<ViewId>(begin), static_cast<ViewId>(end));
  });
  run_parallel_blocks(parallel_for, total, [&](std::size_t block,
                                               std::size_t begin,
                                               std::size_t end) {
    auto id = blank.first_id + static_cast<ViewId>(block_views[block]);
    std::size_t sender = blank.first_sender + block_senders[block];
    std::uint64_t hashes[kPrefetchBatch];
    for (std::size_t batch = begin; batch < end; batch += kPrefetchBatch) {
      const std::size_t stop = std::min(end, batch + kPrefetchBatch);
      each_rank(batch, stop, [&](std::size_t r, std::size_t i) {
        if (ids[i] != kWinner) return;
        hashes[i - batch] = ViewInterner::hash(key_of(r, i));
        into.prefetch(hashes[i - batch]);
      });
      each_rank(batch, stop, [&](std::size_t r, std::size_t i) {
        if (ids[i] != kWinner) return;
        const ViewInterner::Key key = key_of(r, i);
        into.put(id, sender, key, hashes[i - batch]);
        ids[i] = id++;
        sender += key.senders.size();
      });
    }
  });

  // ---- Every loser takes its winner's id, and the remaps take them all.
  run_parallel_blocks(parallel_for, total, [&](std::size_t,
                                               std::size_t begin,
                                               std::size_t end) {
    each_rank(begin, end, [&](std::size_t r, std::size_t i) {
      (*sources[r].remap)[static_cast<std::size_t>(first[r]) +
                          (i - start[r])] =
          ids[i] >= 0 ? ids[i] : ids[table[slot[i]] & kRankMask];
    });
  });
  std::size_t misses = 0;
  for (const std::size_t block : block_misses) misses += block;
  return misses;
}

}  // namespace topocon
