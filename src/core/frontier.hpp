// The frontier engine: the per-level BFS expansion of the depth-t
// epsilon-approximation (Definition 6.2), exposed as ordered chunks so
// callers can shard one level's work below the input-vector root.
//
// The engine owns one shard of the prefix space -- a contiguous range of
// input-vector roots with a dedicated ViewInterner -- and expands it one
// level at a time in three phases:
//
//   partition  the current frontier is cut into deterministic chunks of
//              at most `chunk_states` parents, in frontier order;
//   expand     each chunk is expanded by one letter. Expansion is
//              *interner-free*: a child view is recorded as its pending
//              (process, round in-mask, parent-level sender ids) word
//              sequence, which is exactly the structural identity
//              ViewInterner::step interns -- two child views are equal
//              iff their pending views are equal. Pending views are
//              deduplicated chunk-locally and no shared state is
//              written, so any number of chunks of one engine may expand
//              concurrently on different threads;
//   merge +    chunk results are concatenated in chunk order, their
//   commit     pending views deduplicated across chunks, and only then
//              interned: commit resolves each distinct pending view
//              exactly once, in first-use order. Because chunk order is
//              frontier order, the merged level -- states, parent
//              links, and even the interner's id assignment order --
//              is identical to what a single serial scan of the whole
//              frontier produces, for EVERY chunk size. Chunking is an
//              execution detail that can never change a result.
//
// States need no deduplication: every (parent, letter) emission is a new
// prefix class. Level-0 states have pairwise distinct views (one per
// input vector). Every graph carries its self-loops, so a child's view
// of p contains its parent's view of p: children of distinct parents
// differ in some view. Two letters are distinct graphs (enforced by
// MessageAdversary), so they differ in some receiver's in-mask, and the
// children of one parent differ in that receiver's view. A level is
// therefore parent-ordered: its states are its emissions in frontier
// order, and the children of frontier state i are the contiguous run of
// states whose parent is i, by increasing letter. The parent column is
// the level's only tree link.
//
// merge() is separated from commit() so the level driver, which
// coordinates one engine per root (core/shard_set.hpp), can apply the
// global truncation budget to the sum of the pending level sizes BEFORE
// any interner mutation happens: an overflowing level leaves every
// interner exactly as if the level had never been attempted, matching
// the reference checker's truncation semantics bit for bit. Only the
// driver tracks truncation; an engine holds committed levels only.
//
// Where the columns live: a pending slice's columns (states, view
// indices, reach masks, and the packed keys, entries and probe table of
// its WordSeqIndex) are PageColumns (memory/page_column.hpp), and each
// committed level is an EngineLevel (core/level.hpp), all in the
// mappings of the engine's PagePool, which the level driver
// (core/shard_set.hpp) owns for a whole job. expand() reserves a chunk's upper bound and shrinks
// to its size; merge() grows the first chunk's columns in place by each
// later chunk's size. A slice hands each mapping back to the pool as
// soon as it is folded in or committed, and a level as soon as the next
// replaces it, so the next level writes into pages already faulted in.
// The pool unmaps what it holds when the job's ShardSet reaches its
// deepest level or when the pool dies, which is after the last analysis
// level in its mappings; a slice dies with the merge or commit that
// consumes it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/epsilon_approx.hpp"
#include "memory/page_column.hpp"
#include "ptg/view_intern.hpp"
#include "telemetry/metrics.hpp"

namespace topocon {

/// One deterministic slice [begin, end) of a frontier, in frontier order.
struct FrontierChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Chunk size a ShardSet uses when ShardingOptions::chunk_states is 0
/// (its constructor resolves it).
inline constexpr std::size_t kDefaultChunkStates = 4096;

/// Fixed-width bit layout of the engine's pending view keys, derived
/// once per level from quantities that are constant while that level
/// expands (n and the parent interner size). A view key [q, mask,
/// senders...] is packed LSB-first into little-endian uint32 words;
/// packing is injective, so dedup equality classes -- and with them
/// every result byte -- are exactly those of the unpacked keys, while
/// the WordSeqIndex pools shrink by the ratio of the summed bit widths
/// to full words. Every chunk of one level uses the same widths, so
/// merge() can re-intern chunk view keys byte for byte.
struct KeyCodec {
  std::uint32_t q_bits = 0;       ///< receiver process, < n
  std::uint32_t mask_bits = 0;    ///< round in-mask, n bits
  std::uint32_t sender_bits = 0;  ///< parent-level interned view ids
};

/// Writes the low `bits` (<= 32) bits of `value` at absolute bit
/// position `pos` of a zero-initialized little-endian word buffer.
/// `value` must fit in `bits` bits; fields never overlap, so plain OR
/// suffices.
inline void put_bits(std::uint32_t* words, std::size_t pos,
                     std::uint32_t value, std::uint32_t bits) {
  if (bits == 0) return;
  const std::size_t w = pos >> 5;
  const unsigned off = pos & 31;
  const std::uint64_t shifted = static_cast<std::uint64_t>(value) << off;
  words[w] |= static_cast<std::uint32_t>(shifted);
  if (off + bits > 32) {
    words[w + 1] |= static_cast<std::uint32_t>(shifted >> 32);
  }
}

/// Reads the `bits` (<= 32) bits at absolute bit position `pos`.
inline std::uint32_t get_bits(const std::uint32_t* words, std::size_t pos,
                              std::uint32_t bits) {
  if (bits == 0) return 0;
  const std::size_t w = pos >> 5;
  const unsigned off = pos & 31;
  std::uint64_t value = words[w] >> off;
  if (off + bits > 32) {
    value |= static_cast<std::uint64_t>(words[w + 1]) << (32 - off);
  }
  const std::uint64_t mask =
      bits >= 32 ? 0xffffffffull : ((std::uint64_t{1} << bits) - 1);
  return static_cast<std::uint32_t>(value & mask);
}

/// Append-only open-addressed map from word sequences (dedup keys) to
/// dense indices, with the key material owned by the table -- the
/// allocation-free workhorse behind pending-view deduplication. Exposed
/// here only because PendingFrontier embeds one. Its key words, entries
/// and probe table are PageColumns of `pool`.
class WordSeqIndex {
 public:
  explicit WordSeqIndex(PagePool* pool = nullptr)
      : pool_(pool), entries_(pool), slots_(pool) {}

  /// Index of the key `words[0..count)`, inserting it if absent;
  /// `*inserted` reports which happened.
  int intern(const std::uint32_t* words, std::size_t count, bool* inserted);

  /// Frees the probe table and keeps the entries: size(), words_of() and
  /// count_of() are unchanged, and a later intern() rebuilds the table
  /// from the cached hashes. expand() and merge() call it on the table
  /// they return, so a finished slice holds its keys and nothing more
  /// while it waits for merge() or commit(), which only read entries.
  void release_probe_table();

  /// Capacity for `entries` keys of `words` key words in total.
  void reserve(std::size_t entries, std::size_t words) {
    entries_.reserve(entries);
    pool_.reserve(words);
  }
  /// Unmaps the key and entry pages past their sizes.
  void shrink_to_fit() {
    entries_.shrink_to_fit();
    pool_.shrink_to_fit();
  }
  /// Bytes of the table's mappings.
  std::size_t mapped_bytes() const {
    return pool_.mapped_bytes() + entries_.mapped_bytes() +
           slots_.mapped_bytes();
  }

  std::size_t size() const { return entries_.size(); }
  /// Probe-table growth rehashes performed so far (telemetry).
  std::uint64_t rehashes() const { return rehashes_; }
  const std::uint32_t* words_of(int index) const {
    return pool_.data() + entries_[static_cast<std::size_t>(index)].offset;
  }
  std::size_t count_of(int index) const {
    return entries_[static_cast<std::size_t>(index)].count;
  }

 private:
  struct Entry {
    std::size_t offset = 0;
    std::uint32_t count = 0;
    std::size_t hash = 0;
  };
  /// Re-inserts every entry into a fresh probe table of `slots` slots.
  void rehash(std::size_t slots);

  PageColumn<std::uint32_t> pool_;
  PageColumn<Entry> entries_;
  /// Power-of-two probe table of entry indices; -1 = empty. Empty also
  /// after release_probe_table().
  PageColumn<int> slots_;
  std::uint64_t rehashes_ = 0;
};

/// Per-state metadata of a pending (not yet interned) level: no heap
/// member, so an emission allocates nothing of its own. The views and
/// reach masks live in flat PendingFrontier columns, and commit() copies
/// the inputs from the parent (a child's inputs are its root's).
struct PendingState {
  AdvState adv_state = 0;
  /// Frontier index and letter of the emission.
  int parent = -1;
  int letter = -1;
};

/// One expanded-but-not-yet-interned level slice: the output of
/// expand() (covering one chunk) and of merge() (covering the whole
/// frontier). Views are stored as slice-local dedup indices into
/// `views`, whose key words are [process, mask, senders...] with sender
/// ids referring to the PARENT level's interned views.
///
/// Every column is a PageColumn of the engine's PagePool: a slice must
/// not outlive the engine's pool, and it gives its mappings back when it
/// dies (a default-constructed slice holds none).
struct PendingFrontier {
  PendingFrontier() = default;
  explicit PendingFrontier(PagePool* pool)
      : states(pool), views(pool), state_views(pool), state_reach(pool) {}

  /// Bytes of the slice's mappings.
  std::size_t mapped_bytes() const {
    return states.mapped_bytes() + views.mapped_bytes() +
           state_views.mapped_bytes() + state_reach.mapped_bytes();
  }

  FrontierChunk chunk;
  PageColumn<PendingState> states;
  /// Distinct pending views of this slice; key words of view v are
  /// the KeyCodec packing of [process, mask, senders...].
  WordSeqIndex views;
  /// The states' view indices, n per state: process q's view in state s
  /// is entry state_views[s * n + q] of `views`.
  PageColumn<std::uint32_t> state_views;
  /// The states' reach masks, n per state like state_views: process q's
  /// mask in state s is state_reach[s * n + q].
  PageColumn<NodeMask> state_reach;
  /// True iff the slice exceeded max_states (states incomplete).
  bool overflow = false;
  /// Expansion statistics of this slice, flushed into
  /// AnalysisOptions::metrics only at commit() so truncated levels never
  /// contribute (the determinism contract in telemetry/metrics.hpp).
  telemetry::PendingStats stats;
};

/// Shared early-abort accumulator for one level's concurrent chunk
/// expansions: chunks report their growth and stop once the running
/// total exceeds the per-level state cap, so a level that is going to
/// overflow costs O(max_states) instead of a full expansion. Chunk counts
/// are exact (every emission is a new class; see the header comment), so
/// a tripped budget is exactly the serial truncation condition.
class FrontierBudget {
 public:
  explicit FrontierBudget(std::size_t max_states)
      : max_states_(max_states) {}

  /// Reports `delta` newly discovered states; returns false once the
  /// running total exceeds the cap.
  bool add(std::size_t delta) {
    return total_.fetch_add(delta, std::memory_order_relaxed) + delta <=
           max_states_;
  }
  bool exceeded() const {
    return total_.load(std::memory_order_relaxed) > max_states_;
  }

 private:
  std::atomic<std::size_t> total_{0};
  const std::size_t max_states_;
};

/// One shard of the chunked BFS (see the header comment).
class FrontierEngine {
 public:
  /// Initializes the level-0 frontier: one class per input vector with
  /// dense index in [first_root, last_root). Mutates `interner` (which
  /// must outlive the engine), like every commit() does. Pending slices
  /// map their columns in `pool`, which must outlive them; without one
  /// each column maps and unmaps its own pages.
  FrontierEngine(const MessageAdversary& adversary,
                 const AnalysisOptions& options, ViewInterner& interner,
                 int first_root, int last_root, PagePool* pool = nullptr);

  /// Depth expanded so far (0 right after construction).
  int level() const { return level_; }
  /// The current level. It is the last entry of levels(), not a copy of
  /// it: every committed level exists once. Invalid after take_levels().
  const EngineLevel& frontier() const { return levels_.back(); }

  /// Deterministic partition of the current frontier into chunks of at
  /// most `chunk_states` parents (0 = one chunk). Never empty: an empty
  /// frontier yields one empty chunk.
  std::vector<FrontierChunk> partition(std::size_t chunk_states) const;

  /// Expands one chunk by one letter with chunk-local view dedup.
  /// Read-only: chunks of one engine may be expanded concurrently. When
  /// `budget` is given the chunk reports its growth there and aborts
  /// (overflow set) once the shared total trips.
  ///
  /// Pending views are deduplicated through the chunk's WordSeqIndex,
  /// one lookup per parent and distinct (process, in-mask) pair (the
  /// ExpansionShape memo). The returned slice's probe table is already
  /// released: only its entries live on until merge().
  ///
  /// `depth` is the target depth of the analysis pass this level belongs
  /// to, the `depth` arg of the chunk's trace span. An engine advanced
  /// across several depths (core/shard_set.hpp) must pass it; 0 stands
  /// for the depth of the options the engine was built with, which is
  /// right only for an engine serving a single pass.
  PendingFrontier expand(const FrontierChunk& chunk,
                         FrontierBudget* budget = nullptr,
                         int depth = 0) const;

  /// Concatenates the chunk expansions -- which must be all chunks of
  /// the current frontier, in partition order -- deduplicating their
  /// pending views across chunks. Does not touch the interner or the
  /// engine. A single chunk passes through.
  PendingFrontier merge(std::vector<PendingFrontier> chunks) const;

  /// Interns the pending views (each distinct view once, in first-use
  /// order -- the id assignment order of a serial scan) and installs the
  /// level as the new frontier; the inputs come from the parent states.
  /// Without keep_levels the new level replaces the old one. Must not be
  /// called with an overflowed level. Re-binds the interner to the
  /// calling thread (sequential hand-off); at most one commit per engine
  /// may run at a time.
  void commit(PendingFrontier level);

  /// Sizes of every committed level, 0..level().
  const std::vector<std::size_t>& level_sizes() const { return level_sizes_; }

  // History, indexed like the corresponding DepthAnalysis members
  // restricted to this shard. Under options.keep_levels levels() holds
  // every level 0..level(), and parents() their parent columns;
  // otherwise levels() holds the current level only and parents() is
  // empty.
  const std::vector<EngineLevel>& levels() const { return levels_; }
  const std::vector<std::vector<std::pair<int, int>>>& parents() const {
    return parents_;
  }

  // Move-out variants for building a DepthAnalysis from a finished
  // engine without copying multi-million-state histories; the engine is
  // done afterwards (history empty, frontier() invalid).
  std::vector<EngineLevel> take_levels() { return std::move(levels_); }
  std::vector<std::vector<std::pair<int, int>>> take_parents() {
    return std::move(parents_);
  }

 private:
  /// The adversary's per-round expansion shape, fixed at construction:
  /// the distinct (receiver, in-mask) pairs over all (letter, process)
  /// combinations. A parent's child view for process q depends only on
  /// its pair, so `num_pairs` bounds the per-parent view-intern work (the
  /// expand memo).
  struct ExpansionShape {
    std::size_t num_pairs = 0;
    /// [letter * n + q] -> index of its distinct pair, < num_pairs.
    std::vector<std::int32_t> pair_of;
  };

  /// The key bit-widths of the level currently being expanded, derived
  /// from pre-commit state only -- expand() and the head of commit()
  /// (before any interner mutation) both see the same codec.
  KeyCodec level_codec() const;

  const MessageAdversary* adversary_;
  AnalysisOptions options_;
  ViewInterner* interner_;
  PagePool* pool_;
  ExpansionShape shape_;
  int level_ = 0;
  std::vector<std::size_t> level_sizes_;
  std::vector<EngineLevel> levels_;
  std::vector<std::vector<std::pair<int, int>>> parents_;
};

}  // namespace topocon
