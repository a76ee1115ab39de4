#include "core/frontier.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <iterator>
#include <limits>
#include <unordered_map>

#include "ptg/reach.hpp"
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

/// Hard cap on one direct-indexed table (entries, i.e. 4 bytes each):
/// above it even a forced kDense chunk falls back to hashing. Bounds the
/// per-chunk scratch at 8 MiB per table regardless of the key space.
constexpr std::uint64_t kDenseSlotCap = std::uint64_t{1} << 21;

/// GBBS-style density threshold for kAuto: a key space is "dense enough"
/// when it is at most this many times the chunk's expected insertions --
/// then the O(space) table initialization amortizes against the hashing
/// it replaces.
constexpr std::uint64_t kDenseHeadroom = 4;

constexpr std::uint64_t kSpaceOverflow =
    std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kSpaceOverflow / b) return kSpaceOverflow;
  return a * b;
}

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kSpaceOverflow - b ? kSpaceOverflow : a + b;
}

/// Chunk-local open-addressed map from non-negative int32 keys to int32
/// values, used by the dense expansion path to assign compact digits to
/// parent view ids. Sized once for a known entry cap; the caller never
/// inserts more than `max_entries` distinct keys.
class ScratchMap {
 public:
  void init(std::size_t max_entries) {
    std::size_t slots = 16;
    while (slots < max_entries * 2 + 2) slots <<= 1;
    keys_.assign(slots, -1);
    vals_.resize(slots);
  }

  /// Value of `key`, inserting `fresh` if absent; `*inserted` reports
  /// which happened.
  std::int32_t find_or_insert(std::int32_t key, std::int32_t fresh,
                              bool* inserted) {
    const std::size_t mask = keys_.size() - 1;
    std::size_t pos =
        (static_cast<std::uint32_t>(key) * 2654435761u) & mask;
    while (true) {
      if (keys_[pos] < 0) {
        keys_[pos] = key;
        vals_[pos] = fresh;
        *inserted = true;
        return fresh;
      }
      if (keys_[pos] == key) {
        *inserted = false;
        return vals_[pos];
      }
      pos = (pos + 1) & mask;
    }
  }

 private:
  std::vector<std::int32_t> keys_;
  std::vector<std::int32_t> vals_;
};

std::atomic<int> g_default_frontier_mode{
    static_cast<int>(FrontierMode::kAuto)};

}  // namespace

void set_default_frontier_mode(FrontierMode mode) {
  if (mode == FrontierMode::kDefault) mode = FrontierMode::kAuto;
  g_default_frontier_mode.store(static_cast<int>(mode),
                                std::memory_order_relaxed);
}

FrontierMode default_frontier_mode() {
  return static_cast<FrontierMode>(
      g_default_frontier_mode.load(std::memory_order_relaxed));
}

std::optional<FrontierMode> frontier_mode_from_name(std::string_view name) {
  if (name == "auto") return FrontierMode::kAuto;
  if (name == "dense") return FrontierMode::kDense;
  if (name == "sparse") return FrontierMode::kSparse;
  return std::nullopt;
}

const char* to_string(FrontierMode mode) {
  switch (mode) {
    case FrontierMode::kDefault:
      return "default";
    case FrontierMode::kAuto:
      return "auto";
    case FrontierMode::kSparse:
      return "sparse";
    case FrontierMode::kDense:
      return "dense";
  }
  return "?";
}

int WordSeqIndex::intern(const std::uint32_t* words, std::size_t count,
                         bool* inserted) {
  assert(!appended_ && "intern() on a table frozen by append_new()");
  if (slots_.empty()) {
    slots_.assign(64, -1);
  } else if ((entries_.size() + 1) * 10 > slots_.size() * 7) {
    grow();
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
      pool_.insert(pool_.end(), words, words + count);
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

int WordSeqIndex::append_new(const std::uint32_t* words, std::size_t count) {
  appended_ = true;
  const auto id = static_cast<int>(entries_.size());
  Entry entry;
  entry.offset = pool_.size();
  entry.count = static_cast<std::uint32_t>(count);
  // The probe table is not maintained (see the header contract), so the
  // hash is never needed; skipping it is the point of the dense path.
  entry.hash = 0;
  pool_.insert(pool_.end(), words, words + count);
  entries_.push_back(entry);
  return id;
}

void WordSeqIndex::grow() {
  ++rehashes_;
  std::vector<int> next(slots_.size() * 2, -1);
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
                               int last_root)
    : adversary_(&adversary), options_(options), interner_(&interner) {
  const int n = adversary.num_processes();
  // The expansion shape: distinct (receiver, in-mask) pairs across the
  // whole alphabet, plus the (letter, process) -> pair index table.
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
          key, static_cast<std::int32_t>(shape_.pairs.size()));
      if (fresh) {
        shape_.pairs.push_back(
            {static_cast<std::uint32_t>(q), mask});
      }
      shape_.pair_of[static_cast<std::size_t>(letter) *
                         static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(q)] = it->second;
    }
  }

  frontier_ =
      initial_frontier(adversary, options, interner, first_root, last_root);
  // Distinct level-0 views per process (the roots are few: one class per
  // input vector of this shard).
  frontier_distinct_.assign(static_cast<std::size_t>(n), 0);
  std::vector<ViewId> ids;
  for (int p = 0; p < n; ++p) {
    ids.clear();
    for (const PrefixState& state : frontier_) {
      ids.push_back(state.views[static_cast<std::size_t>(p)]);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    frontier_distinct_[static_cast<std::size_t>(p)] =
        static_cast<std::uint32_t>(ids.size());
  }

  level_sizes_.push_back(frontier_.size());
  if (options_.keep_levels) {
    levels_.push_back(frontier_);
    first_parent_.push_back(
        std::vector<std::pair<int, int>>(frontier_.size(), {-1, -1}));
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
  const std::size_t size = frontier_.size();
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
  assert(chunk.begin <= chunk.end && chunk.end <= frontier_.size());
  const MessageAdversary& adversary = *adversary_;
  const int n = adversary.num_processes();
  const int alphabet = adversary.alphabet_size();
  PendingFrontier out;
  out.chunk = chunk;
  if (budget != nullptr && budget->exceeded()) {
    // Another chunk already tripped the level budget; this chunk's work
    // would be discarded, so don't do it.
    out.overflow = true;
    return out;
  }
  if (options_.keep_levels) out.children.resize(chunk.end - chunk.begin);
  telemetry::TraceWriter* trace =
      options_.metrics != nullptr ? options_.metrics->trace() : nullptr;
  const std::uint64_t span_start = trace != nullptr ? trace->now_us() : 0;
  std::uint64_t emissions = 0;

  const std::size_t chunk_size = chunk.end - chunk.begin;
  const std::size_t num_pairs = shape_.pairs.size();
  FrontierMode mode = options_.frontier;
  if (mode == FrontierMode::kDefault) mode = default_frontier_mode();

  // ---- Dense planning, O(pairs) arithmetic before any expansion.
  //
  // A child-view key is [q, mask, senders...] where the senders are the
  // PARENT level's interned view ids of the processes in mask. Within
  // this chunk the sender in digit position p takes at most
  // U_p = min(|chunk|, distinct views of p in the whole frontier)
  // values, so the keys of pair (q, mask) enumerate a range of size
  // prod_{p in mask} U_p once sender ids are remapped to compact
  // per-process digits, and the whole chunk's key space has size
  // S_v = sum over distinct pairs of that product -- computable up
  // front. The chunk goes dense when S_v fits the slot cap and (under
  // kAuto) is at most kDenseHeadroom times the expected insertions, the
  // GBBS vertexSubset densification rule transplanted to dedup keys.
  bool dense_views = false;
  std::vector<std::uint32_t> radix;      // U_p per process
  std::vector<std::uint64_t> pair_base;  // dense offset per pair
  std::uint64_t view_space = 0;
  if (mode != FrontierMode::kSparse && chunk_size > 0) {
    radix.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      radix[static_cast<std::size_t>(p)] =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(
              chunk_size, frontier_distinct_[static_cast<std::size_t>(p)]));
    }
    pair_base.resize(num_pairs);
    for (std::size_t pr = 0; pr < num_pairs; ++pr) {
      pair_base[pr] = view_space;
      std::uint64_t pair_space = 1;
      NodeMask rest = shape_.pairs[pr].mask;
      while (rest != 0) {
        const int p = std::countr_zero(rest);
        rest &= rest - 1;
        pair_space = sat_mul(pair_space, radix[static_cast<std::size_t>(p)]);
      }
      view_space = sat_add(view_space, pair_space);
    }
    // After the per-parent (q, mask) memo below, at most one view
    // insertion happens per parent and pair.
    const std::uint64_t expected_views = sat_mul(chunk_size, num_pairs);
    dense_views = view_space <= kDenseSlotCap &&
                  (mode == FrontierMode::kDense ||
                   view_space <= sat_mul(kDenseHeadroom, expected_views));
  }

  // ---- Per-chunk scratch.
  std::vector<std::int32_t> dense_view_slot;
  if (dense_views) {
    dense_view_slot.assign(static_cast<std::size_t>(view_space), -1);
  }
  ScratchMap view_remap;  // parent view id -> compact per-process digit
  std::vector<std::uint32_t> digits(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> next_digit(static_cast<std::size_t>(n), 0);
  if (dense_views) {
    std::size_t digit_cap = 0;
    for (int p = 0; p < n; ++p) {
      digit_cap += radix[static_cast<std::size_t>(p)];
    }
    view_remap.init(digit_cap);
  }
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
    const PrefixState& parent = frontier_[i];
    const auto epoch = static_cast<std::uint32_t>(i - chunk.begin) + 1;
    if (dense_views) {
      for (int p = 0; p < n; ++p) {
        bool fresh;
        const std::int32_t d = view_remap.find_or_insert(
            parent.views[static_cast<std::size_t>(p)],
            next_digit[static_cast<std::size_t>(p)], &fresh);
        if (fresh) ++next_digit[static_cast<std::size_t>(p)];
        digits[static_cast<std::size_t>(p)] =
            static_cast<std::uint32_t>(d);
      }
    }
    for (int letter = 0; letter < alphabet; ++letter) {
      const AdvState adv_next = adversary.transition(parent.adv_state, letter);
      if (adv_next == kRejectState) continue;
      const Digraph& g = adversary.graph(letter);
      for (int q = 0; q < n; ++q) {
        const auto pair = static_cast<std::size_t>(
            shape_.pair_of[static_cast<std::size_t>(letter) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(q)]);
        std::int32_t view_index;
        if (memo_epoch[pair] == epoch) {
          view_index = memo_val[pair];
        } else {
          const NodeMask mask = g.in_mask(static_cast<ProcessId>(q));
          if (dense_views) {
            std::uint64_t local = 0;
            NodeMask rest = mask;
            while (rest != 0) {
              const int p = std::countr_zero(rest);
              rest &= rest - 1;
              local = local * radix[static_cast<std::size_t>(p)] +
                      digits[static_cast<std::size_t>(p)];
            }
            const std::size_t addr =
                static_cast<std::size_t>(pair_base[pair] + local);
            view_index = dense_view_slot[addr];
            if (view_index < 0) {
              pack_view_key(static_cast<std::uint32_t>(q), mask, parent);
              view_index =
                  out.views.append_new(view_key.data(), view_key.size());
              dense_view_slot[addr] = view_index;
            }
          } else {
            pack_view_key(static_cast<std::uint32_t>(q), mask, parent);
            bool view_inserted;
            view_index = out.views.intern(view_key.data(), view_key.size(),
                                          &view_inserted);
          }
          memo_val[pair] = view_index;
          memo_epoch[pair] = epoch;
        }
        out.state_views.push_back(static_cast<std::uint32_t>(view_index));
      }
      ++emissions;
      PendingState state;
      state.inputs = parent.inputs;
      state.reach = advance_reach(parent.reach, g);
      state.adv_state = adv_next;
      state.parent = static_cast<int>(i);
      state.letter = letter;
      out.states.push_back(std::move(state));
      if (options_.keep_levels) {
        out.children[i - chunk.begin].push_back(
            static_cast<int>(out.states.size()) - 1);
      }
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
  out.stats.dense_view_chunks = dense_views ? 1 : 0;
  out.stats.emissions = emissions;
  out.stats.pending_views = out.views.size();
  out.stats.rehashes = out.views.rehashes();
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
         telemetry::TraceArg::num("states", out.states.size()),
         telemetry::TraceArg::num("dense", dense_views ? 1 : 0)});
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

  PendingFrontier level;
  level.chunk = FrontierChunk{0, frontier_.size()};
  if (options_.keep_levels) level.children.resize(frontier_.size());
  std::vector<std::uint32_t> view_remap;
  for (PendingFrontier& chunk : chunks) {
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
    }
    const auto offset = static_cast<int>(level.states.size());
    for (const std::uint32_t v : chunk.state_views) {
      level.state_views.push_back(view_remap[v]);
    }
    std::move(chunk.states.begin(), chunk.states.end(),
              std::back_inserter(level.states));
    if (level.states.size() > options_.max_states) {
      level.overflow = true;
      return level;
    }
    if (options_.keep_levels) {
      for (std::size_t p = 0; p < chunk.children.size(); ++p) {
        std::vector<int>& kids = level.children[chunk.chunk.begin + p];
        kids = std::move(chunk.children[p]);
        for (int& child : kids) child += offset;
      }
    }
    // Fully folded in: free the chunk's tables before the next folds in.
    chunk = PendingFrontier{};
  }
  // The distinct view tally becomes the merged table's size.
  level.stats.pending_views = level.views.size();
  level.stats.rehashes += level.views.rehashes();
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
  const int n = adversary_->num_processes();
  std::vector<PrefixState> next;
  next.reserve(level.states.size());
  std::vector<std::pair<int, int>> parents;
  parents.reserve(level.states.size());
  // Each distinct pending view is interned exactly once, on first use;
  // states are walked in merged (= serial discovery) order and views in
  // process order, so ids are assigned in the serial scan's order.
  std::vector<ViewId> resolved(level.views.size(), -1);
  std::vector<ViewId> senders;
  for (std::size_t s = 0; s < level.states.size(); ++s) {
    PendingState& state = level.states[s];
    const std::uint32_t* state_views =
        level.state_views.data() + s * static_cast<std::size_t>(n);
    PrefixState out;
    out.inputs = std::move(state.inputs);
    out.reach = std::move(state.reach);
    out.adv_state = state.adv_state;
    out.views.resize(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) {
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
      out.views[static_cast<std::size_t>(q)] = id;
    }
    next.push_back(std::move(out));
    parents.emplace_back(state.parent, state.letter);
  }
  frontier_ = std::move(next);
  // level.views holds exactly the distinct views of the new frontier
  // (every entry was part of some committed state's key), so the
  // per-process tally feeding the dense heuristic is one scan of it.
  frontier_distinct_.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t v = 0; v < level.views.size(); ++v) {
    ++frontier_distinct_[get_bits(level.views.words_of(static_cast<int>(v)),
                                  0, codec.q_bits)];
  }
  ++level_;
  level_sizes_.push_back(frontier_.size());
  if (options_.keep_levels) {
    children_.push_back(std::move(level.children));
    levels_.push_back(frontier_);
    first_parent_.push_back(std::move(parents));
  }
  // The single counter-flush point: only committed levels reach it, so
  // every count is identical at any thread count (see telemetry/metrics).
  if (options_.metrics != nullptr) {
    options_.metrics->add_pending(level.stats);
    options_.metrics->add_commit(frontier_.size(), interner_->size() -
                                                       views_before);
  }
}

bool FrontierEngine::advance(std::size_t chunk_states) {
  std::vector<PendingFrontier> expansions;
  for (const FrontierChunk& chunk : partition(chunk_states)) {
    expansions.push_back(expand(chunk));
  }
  PendingFrontier level = merge(std::move(expansions));
  if (level.overflow) {
    truncated_ = true;
    return false;
  }
  commit(std::move(level));
  return true;
}

}  // namespace topocon
