#include "core/frontier.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <span>
#include <unordered_map>

#include "telemetry/trace.hpp"

namespace topocon {

namespace {

std::size_t hash_words(const std::uint32_t* words, std::size_t count) {
  // FNV-1a over the key words; the table caches the result per entry.
  std::size_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

int WordSeqIndex::intern(const std::uint32_t* words, std::size_t count,
                         bool* inserted) {
  if (slots_.empty()) {
    // First use, or first use after release_probe_table(): size for the
    // entries already present without counting a growth rehash.
    std::size_t slots = 64;
    while ((entries_.size() + 1) * 10 > slots * 7) slots <<= 1;
    rehash(slots);
  } else if ((entries_.size() + 1) * 10 > slots_.size() * 7) {
    ++rehashes_;
    rehash(slots_.size() * 2);
  }
  const std::size_t hash = hash_words(words, count);
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = hash & mask;
  while (true) {
    const int e = slots_[pos];
    if (e < 0) {
      const auto id = static_cast<int>(entries_.size());
      Entry entry;
      entry.offset = pool_.size();
      entry.count = static_cast<std::uint32_t>(count);
      entry.hash = hash;
      pool_.append(words, count);
      entries_.push_back(entry);
      slots_[pos] = id;
      *inserted = true;
      return id;
    }
    const Entry& entry = entries_[static_cast<std::size_t>(e)];
    if (entry.hash == hash && entry.count == count &&
        std::memcmp(pool_.data() + entry.offset, words,
                    count * sizeof(std::uint32_t)) == 0) {
      *inserted = false;
      return e;
    }
    pos = (pos + 1) & mask;
  }
}

void WordSeqIndex::release_probe_table() { slots_.reset(); }

void WordSeqIndex::rehash(std::size_t slots) {
  PageColumn<int> next(slots_.pool());
  next.assign(slots, -1);
  const std::size_t mask = next.size() - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    std::size_t pos = entries_[e].hash & mask;
    while (next[pos] >= 0) pos = (pos + 1) & mask;
    next[pos] = static_cast<int>(e);
  }
  slots_ = std::move(next);
}

FrontierEngine::FrontierEngine(const MessageAdversary& adversary,
                               const AnalysisOptions& options,
                               ViewInterner& interner, int first_root,
                               int last_root, PagePool* pool)
    : adversary_(&adversary),
      options_(options),
      interner_(&interner),
      pool_(pool) {
  const int n = adversary.num_processes();
  // The expansion shape: the (letter, process) -> distinct (receiver,
  // in-mask) pair index table.
  shape_.pair_of.assign(
      static_cast<std::size_t>(adversary.alphabet_size()) *
          static_cast<std::size_t>(n),
      -1);
  std::unordered_map<std::uint64_t, std::int32_t> pair_index;
  for (int letter = 0; letter < adversary.alphabet_size(); ++letter) {
    const Digraph& g = adversary.graph(letter);
    for (int q = 0; q < n; ++q) {
      const NodeMask mask = g.in_mask(static_cast<ProcessId>(q));
      const std::uint64_t key =
          (static_cast<std::uint64_t>(q) << 32) | mask;
      auto [it, fresh] = pair_index.try_emplace(
          key, static_cast<std::int32_t>(shape_.num_pairs));
      if (fresh) ++shape_.num_pairs;
      shape_.pair_of[static_cast<std::size_t>(letter) *
                         static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(q)] = it->second;
    }
  }

  const std::vector<PrefixState> roots =
      initial_frontier(adversary, options, interner, first_root, last_root);
  levels_.emplace_back(roots.begin(), roots.end(),
                       PageAllocator<PrefixState>(pool_));
  level_sizes_.push_back(frontier().size());
  if (options_.keep_levels) {
    parents_.push_back(
        std::vector<std::pair<int, int>>(frontier().size(), {-1, -1}));
  }
}

KeyCodec FrontierEngine::level_codec() const {
  KeyCodec c;
  const int n = adversary_->num_processes();
  c.q_bits = n > 1 ? static_cast<std::uint32_t>(std::bit_width(
                         static_cast<std::uint32_t>(n - 1)))
                   : 0;
  c.mask_bits = static_cast<std::uint32_t>(n);
  // Senders are the PARENT level's interned view ids, all assigned by
  // earlier commits, so the current interner size bounds them.
  const std::uint64_t senders = interner_->size();
  c.sender_bits =
      senders > 1 ? std::min<std::uint32_t>(
                        32, static_cast<std::uint32_t>(
                                std::bit_width(senders - 1)))
                  : 0;
  return c;
}

std::vector<FrontierChunk> FrontierEngine::partition(
    std::size_t chunk_states) const {
  const std::size_t size = frontier().size();
  if (chunk_states == 0 || size <= chunk_states) {
    return {FrontierChunk{0, size}};
  }
  std::vector<FrontierChunk> chunks;
  chunks.reserve((size + chunk_states - 1) / chunk_states);
  for (std::size_t begin = 0; begin < size; begin += chunk_states) {
    chunks.push_back(
        FrontierChunk{begin, std::min(begin + chunk_states, size)});
  }
  return chunks;
}

PendingFrontier FrontierEngine::expand(const FrontierChunk& chunk,
                                       FrontierBudget* budget,
                                       int depth) const {
  const EngineLevel& frontier = this->frontier();
  assert(chunk.begin <= chunk.end && chunk.end <= frontier.size());
  const MessageAdversary& adversary = *adversary_;
  const int n = adversary.num_processes();
  const int alphabet = adversary.alphabet_size();
  PendingFrontier out(pool_);
  out.chunk = chunk;
  if (budget != nullptr && budget->exceeded()) {
    // Another chunk already tripped the level budget; this chunk's work
    // would be discarded, so don't do it.
    out.overflow = true;
    return out;
  }
  telemetry::TraceWriter* trace =
      options_.metrics != nullptr ? options_.metrics->trace() : nullptr;
  const std::uint64_t span_start = trace != nullptr ? trace->now_us() : 0;
  std::uint64_t emissions = 0;

  const std::size_t num_pairs = shape_.num_pairs;
  // The per-parent (q, mask) memo: for a fixed parent, the child view of
  // process q depends only on its expansion-shape pair, so each pair is
  // resolved at most once per parent no matter how many letters share
  // it (e.g. omission's alphabet collapses from |letters| * n view
  // interns per parent to the distinct-pair count). Epoch-stamped, so
  // there is nothing to clear between parents.
  std::vector<std::int32_t> memo_val(num_pairs, -1);
  std::vector<std::uint32_t> memo_epoch(num_pairs, 0);

  // Scratch key, reused across emissions: no per-emission allocation.
  // Keys are KeyCodec-packed (see frontier.hpp).
  const KeyCodec codec = level_codec();
  // The chunk's upper bounds: every parent emits at most one state per
  // letter and one distinct view per expansion-shape pair. Untouched
  // reserved pages cost address space only, and the columns shrink to
  // their sizes below, so no column grows or is copied on the way.
  const std::size_t parents = chunk.end - chunk.begin;
  const std::size_t max_emissions =
      std::min(parents * static_cast<std::size_t>(alphabet),
               options_.max_states + 1);
  const std::size_t max_views = parents * num_pairs;
  out.states.reserve(max_emissions);
  out.state_views.reserve(max_emissions * static_cast<std::size_t>(n));
  out.state_reach.reserve(max_emissions * static_cast<std::size_t>(n));
  out.views.reserve(
      max_views, max_views * ((codec.q_bits + codec.mask_bits +
                               static_cast<std::size_t>(n) * codec.sender_bits +
                               31) /
                              32));
  std::vector<std::uint32_t> view_key;
  view_key.reserve(static_cast<std::size_t>(n) + 2);
  const auto pack_view_key = [&](std::uint32_t recv, NodeMask in_mask,
                                 const PrefixState& par) {
    const auto senders =
        static_cast<std::uint32_t>(std::popcount(in_mask));
    const std::size_t bits =
        codec.q_bits + codec.mask_bits +
        static_cast<std::size_t>(senders) * codec.sender_bits;
    view_key.assign((bits + 31) / 32, 0);
    std::size_t pos = 0;
    put_bits(view_key.data(), pos, recv, codec.q_bits);
    pos += codec.q_bits;
    put_bits(view_key.data(), pos, in_mask, codec.mask_bits);
    pos += codec.mask_bits;
    NodeMask rest = in_mask;
    while (rest != 0) {
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      put_bits(view_key.data(), pos,
               static_cast<std::uint32_t>(
                   par.views[static_cast<std::size_t>(p)]),
               codec.sender_bits);
      pos += codec.sender_bits;
    }
  };
  std::size_t reported = 0;
  for (std::size_t i = chunk.begin; i < chunk.end && !out.overflow; ++i) {
    if (budget != nullptr && i > chunk.begin) {
      if (!budget->add(out.states.size() - reported)) {
        out.overflow = true;
        break;
      }
      reported = out.states.size();
    }
    const PrefixState& parent = frontier[i];
    const auto epoch = static_cast<std::uint32_t>(i - chunk.begin) + 1;
    for (int letter = 0; letter < alphabet; ++letter) {
      const AdvState adv_next = adversary.transition(parent.adv_state, letter);
      if (adv_next == kRejectState) continue;
      const Digraph& g = adversary.graph(letter);
      for (int q = 0; q < n; ++q) {
        // The child's reach mask of q: the union of its senders' parent
        // masks (ptg/reach.hpp's advance_reach, written in place).
        const NodeMask in_mask = g.in_mask(static_cast<ProcessId>(q));
        NodeMask reach = 0;
        for (NodeMask rest = in_mask; rest != 0; rest &= rest - 1) {
          reach |= parent.reach[static_cast<std::size_t>(
              std::countr_zero(rest))];
        }
        out.state_reach.push_back(reach);
        const auto pair = static_cast<std::size_t>(
            shape_.pair_of[static_cast<std::size_t>(letter) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(q)]);
        std::int32_t view_index;
        if (memo_epoch[pair] == epoch) {
          view_index = memo_val[pair];
        } else {
          pack_view_key(static_cast<std::uint32_t>(q), in_mask, parent);
          bool view_inserted;
          view_index = out.views.intern(view_key.data(), view_key.size(),
                                        &view_inserted);
          memo_val[pair] = view_index;
          memo_epoch[pair] = epoch;
        }
        out.state_views.push_back(static_cast<std::uint32_t>(view_index));
      }
      ++emissions;
      out.states.push_back(
          PendingState{adv_next, static_cast<int>(i), letter});
      if (out.states.size() > options_.max_states) {
        out.overflow = true;
        break;
      }
    }
  }
  if (budget != nullptr && !out.overflow &&
      !budget->add(out.states.size() - reported)) {
    out.overflow = true;
  }
  out.stats.chunks = 1;
  out.stats.emissions = emissions;
  out.stats.pending_views = out.views.size();
  out.stats.rehashes = out.views.rehashes();
  out.views.release_probe_table();
  out.views.shrink_to_fit();
  out.states.shrink_to_fit();
  out.state_views.shrink_to_fit();
  out.state_reach.shrink_to_fit();
  if (trace != nullptr) {
    trace->complete(
        "chunk", "expand", span_start, trace->now_us() - span_start,
        {telemetry::TraceArg::num(
             "depth", static_cast<std::uint64_t>(
                          depth > 0 ? depth : options_.depth)),
         telemetry::TraceArg::num("level",
                                  static_cast<std::uint64_t>(level_) + 1),
         telemetry::TraceArg::num("begin", chunk.begin),
         telemetry::TraceArg::num("end", chunk.end),
         telemetry::TraceArg::num("states", out.states.size())});
  }
  return out;
}

PendingFrontier FrontierEngine::merge(
    std::vector<PendingFrontier> chunks) const {
  for (const PendingFrontier& chunk : chunks) {
    if (chunk.overflow) {
      PendingFrontier level;
      level.overflow = true;
      return level;
    }
  }
  if (chunks.size() == 1) {
    // The single chunk covered the whole frontier: its view dedup is
    // already global and its parent indexing is the frontier's.
    return std::move(chunks.front());
  }

  // The merged columns continue the first chunk's: its views are the
  // first the merged table interns, so they keep their indices, and its
  // states are the level's first. Each later chunk grows them by exactly
  // its size, in place (mremap, no copy), and then gives its own pages
  // back to the pool.
  PendingFrontier level(pool_);
  level.chunk = FrontierChunk{0, frontier().size()};
  level.states = std::move(chunks.front().states);
  level.state_views = std::move(chunks.front().state_views);
  level.state_reach = std::move(chunks.front().state_reach);
  std::vector<std::uint32_t> view_remap;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    PendingFrontier& chunk = chunks[c];
    level.stats.add(chunk.stats);
    // Re-key the chunk's distinct views in the merged view table (one
    // long-key lookup per distinct view, not per state). Every chunk of
    // a level packs with the same KeyCodec, so the packed bytes carry
    // over verbatim.
    view_remap.resize(chunk.views.size());
    for (std::size_t v = 0; v < chunk.views.size(); ++v) {
      bool inserted;
      view_remap[v] = static_cast<std::uint32_t>(level.views.intern(
          chunk.views.words_of(static_cast<int>(v)),
          chunk.views.count_of(static_cast<int>(v)), &inserted));
      assert(c > 0 || view_remap[v] == v);
    }
    if (c > 0) {
      std::uint32_t* views = level.state_views.extend(chunk.state_views.size());
      for (const std::uint32_t v : chunk.state_views) *views++ = view_remap[v];
      level.state_reach.append(chunk.state_reach.data(),
                               chunk.state_reach.size());
      level.states.append(chunk.states.data(), chunk.states.size());
    }
    if (level.states.size() > options_.max_states) {
      level.overflow = true;
      return level;
    }
    // Fully folded in: free the chunk's tables before the next folds in.
    chunk = PendingFrontier();
  }
  // The distinct view tally becomes the merged table's size.
  level.stats.pending_views = level.views.size();
  level.stats.rehashes += level.views.rehashes();
  level.views.release_probe_table();
  level.views.shrink_to_fit();
  return level;
}

void FrontierEngine::commit(PendingFrontier level) {
  assert(!level.overflow && "commit of an overflowed level");
  // The codec of the level being committed: derived BEFORE any interner
  // mutation below, so it matches what expand() used.
  const KeyCodec codec = level_codec();
  // Sequential hand-off: commits of one engine happen one at a time but
  // possibly from different pool threads across levels.
  interner_->attach_to_current_thread();
  const std::size_t views_before = interner_->size();
  const auto n = static_cast<std::size_t>(adversary_->num_processes());
  const EngineLevel& parents_level = frontier();
  // The states first, before any view is interned: the level is one
  // block of inline states (core/state_vector.hpp) written in level
  // order, so every later pass over it (assembly, components, release)
  // walks memory in order.
  EngineLevel next(level.states.size(), PageAllocator<PrefixState>(pool_));
  std::vector<std::pair<int, int>> parents;
  if (options_.keep_levels) parents.reserve(level.states.size());
  for (std::size_t s = 0; s < level.states.size(); ++s) {
    const PendingState& state = level.states[s];
    const NodeMask* state_reach = level.state_reach.data() + s * n;
    PrefixState& out = next[s];
    out.inputs =
        parents_level[static_cast<std::size_t>(state.parent)].inputs;
    out.reach.assign(std::span<const NodeMask>(state_reach, n));
    out.adv_state = state.adv_state;
    out.views.resize(n);
    if (options_.keep_levels) parents.emplace_back(state.parent, state.letter);
  }
  // Install the level; without keep_levels this frees its parent level.
  // Only the view columns of `level` are read from here on.
  ++level_;
  level_sizes_.push_back(next.size());
  if (options_.keep_levels) {
    levels_.push_back(std::move(next));
    parents_.push_back(std::move(parents));
  } else {
    levels_.back() = std::move(next);
  }
  level.states.reset();
  level.state_reach.reset();
  // Each distinct pending view is interned exactly once, on first use;
  // states are walked in merged (= serial discovery) order and views in
  // process order, so ids are assigned in the serial scan's order.
  std::vector<ViewId> resolved(level.views.size(), -1);
  std::vector<ViewId> senders;
  EngineLevel& installed = levels_.back();
  for (std::size_t s = 0; s < installed.size(); ++s) {
    const std::uint32_t* state_views = level.state_views.data() + s * n;
    StateVector<ViewId>& views = installed[s].views;
    for (std::size_t q = 0; q < n; ++q) {
      ViewId& id = resolved[state_views[q]];
      if (id < 0) {
        const std::uint32_t* words =
            level.views.words_of(static_cast<int>(state_views[q]));
        std::size_t pos = 0;
        const std::uint32_t recv = get_bits(words, pos, codec.q_bits);
        pos += codec.q_bits;
        const auto in_mask =
            static_cast<NodeMask>(get_bits(words, pos, codec.mask_bits));
        pos += codec.mask_bits;
        senders.clear();
        NodeMask rest = in_mask;
        while (rest != 0) {
          rest &= rest - 1;
          senders.push_back(
              static_cast<ViewId>(get_bits(words, pos, codec.sender_bits)));
          pos += codec.sender_bits;
        }
        id = interner_->step(static_cast<ProcessId>(recv), in_mask, senders);
      }
      views[q] = id;
    }
  }
  // The single counter-flush point: only committed levels reach it, so
  // every count is identical at any thread count (see telemetry/metrics).
  if (options_.metrics != nullptr) {
    options_.metrics->add_pending(level.stats);
    options_.metrics->add_commit(frontier().size(), interner_->size() -
                                                        views_before);
  }
}

}  // namespace topocon
