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
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/digraph.hpp"
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
/// interner per shard, merged afterwards with sweep::absorb_depth -- see
/// runtime/sweep/. One instance is shared by an analysis and any
/// simulations replaying its decision tables.
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
  ViewVector advance(const ViewVector& views, const Digraph& g);

  /// Views of all processes at time prefix.length() (applies advance along
  /// the whole prefix).
  ViewVector of_prefix(const RunPrefix& prefix);

  /// Total number of distinct views interned so far.
  std::size_t size() const { return nodes_.size(); }

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
  /// parallel solver's per-depth absorb (sweep::absorb_depth).
  void absorb_from(const ViewInterner& other, std::vector<ViewId>& remap);

  /// Read-only lookups: the id base() / step() would return if the view
  /// is interned already, -1 otherwise. They never mutate, so any number
  /// of threads may look up concurrently while no thread mutates (the
  /// parallel absorb's first phase, runtime/sweep/parallel_solver.*).
  ViewId find_base(ProcessId p, Value x) const;
  ViewId find_step(ProcessId q, NodeMask mask,
                   const std::vector<ViewId>& sender_ids) const;

  /// Re-binds the instance to the calling thread. Required before mutating
  /// an interner that a *different* thread mutated earlier (sequential
  /// hand-off, e.g. results returned from a worker pool); without it the
  /// next cross-thread mutation aborts.
  void attach_to_current_thread();

  /// Metadata of an interned view (for reconstruction, debugging, tests).
  struct Node {
    ProcessId process = -1;
    int depth = 0;          // time t of the cone's apex (q, t)
    Value input = -1;       // input value, for depth-0 nodes only
    NodeMask mask = 0;      // round-t in-mask, for depth > 0
    std::vector<ViewId> senders;  // cone ids of senders at t-1, mask order
  };
  const Node& node(ViewId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

 private:
  /// Hash of a step key (q, mask, sender ids).
  static std::uint64_t step_hash(ProcessId q, NodeMask mask,
                                 const std::vector<ViewId>& sender_ids);
  /// Slot of the step key in step_slots_: the slot holding its id, or
  /// the empty slot where it would go. step_slots_ must be nonempty.
  std::size_t step_slot(ProcessId q, NodeMask mask,
                        const std::vector<ViewId>& sender_ids,
                        std::uint64_t hash) const;
  /// Doubles step_slots_ and re-inserts every step node.
  void grow_steps();

  /// Aborts unless the calling thread owns this interner, claiming
  /// ownership on the first mutation. Cheap: one relaxed load on the
  /// owning thread.
  void check_owner();

  std::unordered_map<std::uint64_t, ViewId> base_table_;
  /// Open-addressed index of the step nodes (linear probing, at most half
  /// full): a slot holds the high half of its key's hash above the node
  /// id, or kEmptySlot. Keys are compared against nodes_, so the table
  /// stores no key of its own.
  std::vector<std::uint64_t> step_slots_;
  std::size_t num_steps_ = 0;
  std::vector<Node> nodes_;
  /// Id of the thread that owns mutation rights; default-constructed until
  /// the first mutation.
  std::atomic<std::thread::id> owner_{};
};

}  // namespace topocon
