// Exact hash-consing of process views V_p(a^t).
//
// The view of process p at time t in a run a (paper, Definition 4.1 applied
// to process-time graphs) is the causal cone of the node (p, t): the sub-DAG
// of the process-time graph induced by all nodes with a path to (p, t),
// including the input values at the time-0 nodes. Because process-time-graph
// nodes carry explicit identities (q, s), two views are "the same view" iff
// they are *equal* as labelled graphs -- not merely isomorphic.
//
// This module assigns a small integer ViewId to every distinct view via
// structural interning:
//
//   base(p, x)                 <-> the cone of (p, 0) with input x
//   step(q, M, ids)            <-> the cone of (q, t); M is q's round-t
//                                  in-neighbour mask and ids are the cone
//                                  ids of the senders at time t-1, listed in
//                                  increasing process order.
//
// Invariant (proved by induction on t, and cross-checked against explicit
// process-time graphs in tests/ptg_test.cpp): for runs a, b and any process
// p,   id of V_p(a^t) == id of V_p(b^t)  <=>  V_p(a^t) = V_p(b^t).
//
// Consequently the process-view pseudo-metric of Section 4.1 becomes
//   d_{p}(a, b) = 2^{-min{ t : id_p(a, t) != id_p(b, t) }},
// computable in O(1) per round per process, and the minimum distance d_min
// (Section 4.2) is the min over p. Since all communication graphs contain
// self-loops, every cone at time t contains the sender chain of its own
// process, so ids at different depths never coincide and views are
// cumulative: equality at time t implies equality at all s <= t.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "graph/digraph.hpp"
#include "memory/page_column.hpp"
#include "ptg/prefix.hpp"

namespace topocon {

/// Identifier of an interned view. Ids are dense, starting at 0.
using ViewId = std::int32_t;

/// The views of all processes at a common time, indexed by process id.
using ViewVector = std::vector<ViewId>;

/// Structural interner for process views.
///
/// Threading contract: an interner is single-threaded state. Mutating
/// operations (base, step, and everything built on them) bind the
/// instance to the first mutating thread and abort on mutation from any
/// other thread; sequential hand-off between threads is legitimate and is
/// declared with attach_to_current_thread(). Concurrent expansion uses one
/// interner per shard, merged afterwards with absorb_depth
/// (core/shard_set.hpp). That absorb is the one place where lanes mutate
/// an interner: the owning thread sizes it with append_blank(), and the
/// lanes then fill the blank nodes with put(), each a distinct id,
/// through pre-sized columns and atomic index slots. One instance is
/// shared by an analysis and any simulations replaying its decision
/// tables.
///
/// Layout: nodes are stored in columns, not one object per view. A
/// 16-byte record (process, depth, input or in-mask, first sender) per
/// node, and the sender ids of all step nodes in one flat column in id
/// order (compressed sparse rows: a step node's senders are the
/// popcount(mask) entries from its first sender on). A view costs 16 B
/// plus 4 B per sender, with no heap block of its own, plus its share of
/// the index (8 B slots, at most half full). The three columns are
/// PageColumns (memory/page_column.hpp): they grow by mremap without
/// copying, and their pages go back to the system when the interner
/// dies instead of staying in the arena of the thread that grew them.
class ViewInterner {
 public:
  ViewInterner() = default;
  ViewInterner(const ViewInterner&) = delete;
  ViewInterner& operator=(const ViewInterner&) = delete;

  /// Id of the time-0 view of process p with input value x.
  ViewId base(ProcessId p, Value x);

  /// Id of the time-t view of process q whose round-t in-mask is `mask` and
  /// whose senders' time-(t-1) views are `sender_ids` (increasing process
  /// order, one entry per bit of mask). Aborts if the sender count does not
  /// match the mask; debug builds additionally verify that the sender ids
  /// are listed in mask (= increasing process) order at a common depth.
  ViewId step(ProcessId q, NodeMask mask, const std::vector<ViewId>& sender_ids);

  /// Views of all processes at time 0 for the given inputs.
  ViewVector initial(const InputVector& inputs);

  /// Advances all views by one round under communication graph g.
  ViewVector advance(std::span<const ViewId> views, const Digraph& g);

  /// Views of all processes at time prefix.length() (applies advance along
  /// the whole prefix).
  ViewVector of_prefix(const RunPrefix& prefix);

  /// Total number of distinct views interned so far.
  std::size_t size() const { return records_.size(); }

  /// Re-interns every view of `other` into this interner (parents before
  /// children, so sender references resolve) and returns the translation
  /// vector: remap[id in other] = id in this. Structural dedup makes the
  /// operation idempotent.
  std::vector<ViewId> absorb(const ViewInterner& other);

  /// Incremental absorb(): re-interns only the views of `other` with ids
  /// from remap.size() on and appends their translations to `remap`,
  /// which must hold the translations of every earlier id of `other`.
  /// Absorbing a growing interner in steps assigns exactly the ids one
  /// absorb() of its final state would. The serial reference of the
  /// parallel per-depth absorb (topocon::absorb_depth,
  /// core/shard_set.hpp).
  void absorb_from(const ViewInterner& other, std::vector<ViewId>& remap);

  /// Re-binds the instance to the calling thread. Required before mutating
  /// an interner that a *different* thread mutated earlier (sequential
  /// hand-off, e.g. results returned from a worker pool); without it the
  /// next cross-thread mutation aborts.
  void attach_to_current_thread();

  /// Metadata of an interned view (for reconstruction, debugging, tests).
  /// A small value that views the interner's columns: `senders` is
  /// invalidated by any mutation of the interner. The senders of
  /// consecutive ids are consecutive in one column, so the senders of an
  /// id range form one contiguous run.
  struct Node {
    ProcessId process = -1;
    int depth = 0;          // time t of the cone's apex (q, t)
    Value input = -1;       // input value, for depth-0 nodes only
    NodeMask mask = 0;      // round-t in-mask, for depth > 0
    std::span<const ViewId> senders;  // cone ids of senders at t-1, mask order
  };
  Node node(ViewId id) const;

  // ---- The interface of the parallel absorb (absorb_depth,
  // core/shard_set.hpp).

  /// What the interner hash-conses: a base view is (p, x, no senders), a
  /// step view (q, in-mask, sender ids). A step view has at least one
  /// sender (its own self-loop), so the two kinds never compare equal.
  struct Key {
    ProcessId process = -1;
    std::uint32_t word = 0;  // input value (base) or in-mask (step)
    std::span<const ViewId> senders;
    friend bool operator==(const Key& a, const Key& b);
  };
  /// The key of node(id)'s view.
  Key key(ViewId id) const;
  static std::uint64_t hash(const Key& key);
  /// Read-only lookup: the id of the view `key` (whose hash is `hash`) if
  /// it is interned already, -1 otherwise. Never mutates, so any number of
  /// threads may look up concurrently while no thread mutates.
  ViewId find(const Key& key, std::uint64_t hash) const;

  /// Where the blank nodes of one append_blank() start, and how many
  /// older nodes a grown index lacks.
  struct Blank {
    ViewId first_id = 0;
    std::size_t first_sender = 0;
    /// Ids 0 .. stale - 1 must be re-indexed with reindex().
    std::size_t stale = 0;
  };
  /// Appends `views` blank nodes with room for `senders` sender ids in
  /// all, and makes the index big enough to hold them; if it had to grow,
  /// the new index is empty and the older nodes must be re-indexed. Owning
  /// thread only. Every stale node must be re-indexed and every blank node
  /// filled by put() before the interner is used in any other way.
  Blank append_blank(std::size_t views, std::size_t senders);
  /// Re-enters the stale nodes begin .. end - 1 into the index. Safe on
  /// concurrent lanes with disjoint ranges.
  void reindex(ViewId begin, ViewId end);
  /// Hints that the probe run of `hash` is read soon. Lanes that look up
  /// or put a batch of keys prefetch them all first, so that the batch's
  /// cache misses overlap.
  void prefetch(std::uint64_t hash) const {
    if (!slots_.empty()) {
      __builtin_prefetch(slots_.data() + (hash & (slots_.size() - 1)));
    }
  }
  /// Fills blank node `id` with view `key` (not interned yet; `hash` is
  /// its hash), its senders from column offset `first_sender` on, and
  /// indexes it. Safe on concurrent lanes as long as each fills its own
  /// ids and sender ranges.
  void put(ViewId id, std::size_t first_sender, const Key& key,
           std::uint64_t hash);

 private:
  /// One node: its key's process and word, its depth, and where its
  /// senders start in senders_.
  struct Record {
    ProcessId process = -1;
    std::int32_t depth = 0;
    std::uint32_t word = 0;
    std::uint32_t first_sender = 0;
  };
  static_assert(sizeof(Record) == 16);

  /// Interns `key`: the id of the equal view, or a new node.
  ViewId intern(const Key& key);
  /// Depth of the view `key`: 0 for a base view, else its senders' + 1.
  int depth_of(const Key& key) const;
  /// Slot of `key` in slots_: the slot holding its id, or the empty slot
  /// where it would go. slots_ must be nonempty.
  std::size_t slot_of(const Key& key, std::uint64_t hash) const;
  /// Makes the index big enough for `views` nodes at most half full;
  /// returns false if it had to grow, leaving it empty.
  bool reserve_index(std::size_t views);
  /// Enters node `id` (whose key hashes to `hash`) in the first free slot
  /// of its probe run. Lane-safe: the slot is claimed by CAS.
  void index(ViewId id, std::uint64_t hash);

  /// Aborts unless the calling thread owns this interner, claiming
  /// ownership on the first mutation. Cheap: one relaxed load on the
  /// owning thread.
  void check_owner();

  PageColumn<Record> records_;
  PageColumn<ViewId> senders_;
  /// Open-addressed index of all nodes (linear probing, at most half
  /// full): a slot holds the high half of its key's hash above the node
  /// id, or kEmptySlot. Keys are compared against the columns, so the
  /// table stores no key of its own.
  PageColumn<std::uint64_t> slots_;
  /// Id of the thread that owns mutation rights; default-constructed until
  /// the first mutation.
  std::atomic<std::thread::id> owner_{};
};

}  // namespace topocon
