#include "ptg/view_intern.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace topocon {

namespace {

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

[[noreturn]] void die(const char* message) {
  std::fprintf(stderr, "ViewInterner misuse: %s\n", message);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void ViewInterner::check_owner() {
  const std::thread::id self = std::this_thread::get_id();
  if (owner_.load(std::memory_order_relaxed) == self) return;
  std::thread::id expected{};
  if (!owner_.compare_exchange_strong(expected, self,
                                      std::memory_order_relaxed)) {
    die(
        "mutated from a second thread; interners are single-threaded -- "
        "give each shard its own instance and merge with absorb(), or "
        "declare a sequential hand-off with attach_to_current_thread()");
  }
}

void ViewInterner::attach_to_current_thread() {
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

ViewId ViewInterner::base(ProcessId p, Value x) {
  check_owner();
  assert(p >= 0 && x >= 0);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(x);
  const auto [it, inserted] =
      base_table_.try_emplace(key, static_cast<ViewId>(nodes_.size()));
  if (inserted) {
    Node node;
    node.process = p;
    node.depth = 0;
    node.input = x;
    nodes_.push_back(std::move(node));
  }
  return it->second;
}

ViewId ViewInterner::step(ProcessId q, NodeMask mask,
                          const std::vector<ViewId>& sender_ids) {
  check_owner();
  assert(mask_contains(mask, q));  // self-loop invariant
  if (std::popcount(mask) != static_cast<int>(sender_ids.size())) {
    die("step() sender count does not match the in-mask popcount");
  }
#ifndef NDEBUG
  // The k-th sender id must be the view of the k-th process in the mask
  // (increasing process order) and all senders must sit at one depth --
  // the shape advance() produces. Catches hand-rolled unsorted calls.
  {
    NodeMask rest = mask;
    for (const ViewId id : sender_ids) {
      assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size() &&
             "step() sender id not interned here");
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      const Node& sender = nodes_[static_cast<std::size_t>(id)];
      assert(sender.process == p &&
             "step() sender ids not in increasing process (mask) order");
      assert(sender.depth ==
                 nodes_[static_cast<std::size_t>(sender_ids.front())].depth &&
             "step() senders at mixed depths");
    }
  }
#endif
  const std::uint64_t hash = step_hash(q, mask, sender_ids);
  if (2 * (num_steps_ + 1) > step_slots_.size()) grow_steps();
  const std::size_t slot = step_slot(q, mask, sender_ids, hash);
  if (step_slots_[slot] != kEmptySlot) {
    return static_cast<ViewId>(step_slots_[slot] & 0xffffffffu);
  }
  const auto id = static_cast<ViewId>(nodes_.size());
  step_slots_[slot] = (hash & ~std::uint64_t{0xffffffffu}) |
                      static_cast<std::uint32_t>(id);
  ++num_steps_;
  Node node;
  node.process = q;
  // Depth = sender depth + 1; the self-loop guarantees q itself appears
  // among the senders, so every step node has depth >= 1.
  node.depth =
      nodes_[static_cast<std::size_t>(sender_ids.front())].depth + 1;
  node.mask = mask;
  node.senders = sender_ids;
  nodes_.push_back(std::move(node));
  return id;
}

ViewId ViewInterner::find_base(ProcessId p, Value x) const {
  const auto it = base_table_.find((static_cast<std::uint64_t>(p) << 32) |
                                   static_cast<std::uint32_t>(x));
  return it == base_table_.end() ? -1 : it->second;
}

ViewId ViewInterner::find_step(ProcessId q, NodeMask mask,
                               const std::vector<ViewId>& sender_ids) const {
  if (step_slots_.empty()) return -1;
  const std::uint64_t entry =
      step_slots_[step_slot(q, mask, sender_ids,
                            step_hash(q, mask, sender_ids))];
  return entry == kEmptySlot ? -1
                             : static_cast<ViewId>(entry & 0xffffffffu);
}

std::uint64_t ViewInterner::step_hash(ProcessId q, NodeMask mask,
                                      const std::vector<ViewId>& sender_ids) {
  std::uint64_t h =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(q)) << 32) ^
      mask;
  for (const ViewId id : sender_ids) {
    h = (h ^ static_cast<std::uint32_t>(id)) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  // Final avalanche: the low bits pick the slot, the high bits tag it.
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

std::size_t ViewInterner::step_slot(ProcessId q, NodeMask mask,
                                    const std::vector<ViewId>& sender_ids,
                                    std::uint64_t hash) const {
  const std::size_t wrap = step_slots_.size() - 1;
  const std::uint64_t tag = hash & ~std::uint64_t{0xffffffffu};
  for (std::size_t slot = hash & wrap;; slot = (slot + 1) & wrap) {
    const std::uint64_t entry = step_slots_[slot];
    if (entry == kEmptySlot) return slot;
    if ((entry & ~std::uint64_t{0xffffffffu}) != tag) continue;
    const Node& node = nodes_[entry & 0xffffffffu];
    if (node.process == q && node.mask == mask && node.senders == sender_ids) {
      return slot;
    }
  }
}

void ViewInterner::grow_steps() {
  std::vector<std::uint64_t> old = std::move(step_slots_);
  step_slots_.assign(std::max<std::size_t>(64, 2 * old.size()), kEmptySlot);
  const std::size_t wrap = step_slots_.size() - 1;
  for (const std::uint64_t entry : old) {
    if (entry == kEmptySlot) continue;
    const Node& node = nodes_[entry & 0xffffffffu];
    std::size_t slot = step_hash(node.process, node.mask, node.senders) & wrap;
    while (step_slots_[slot] != kEmptySlot) slot = (slot + 1) & wrap;
    step_slots_[slot] = entry;
  }
}

ViewVector ViewInterner::initial(const InputVector& inputs) {
  ViewVector views(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    views[p] = base(static_cast<ProcessId>(p), inputs[p]);
  }
  return views;
}

ViewVector ViewInterner::advance(const ViewVector& views, const Digraph& g) {
  const int n = g.num_processes();
  assert(static_cast<std::size_t>(n) == views.size());
  ViewVector next(views.size());
  std::vector<ViewId> senders;
  for (int q = 0; q < n; ++q) {
    const NodeMask mask = g.in_mask(q);
    senders.clear();
    NodeMask rest = mask;
    while (rest != 0) {
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      senders.push_back(views[static_cast<std::size_t>(p)]);
    }
    next[static_cast<std::size_t>(q)] = step(q, mask, senders);
  }
  return next;
}

ViewVector ViewInterner::of_prefix(const RunPrefix& prefix) {
  ViewVector views = initial(prefix.inputs);
  for (const Digraph& g : prefix.graphs) {
    views = advance(views, g);
  }
  return views;
}

std::vector<ViewId> ViewInterner::absorb(const ViewInterner& other) {
  std::vector<ViewId> remap;
  absorb_from(other, remap);
  return remap;
}

void ViewInterner::absorb_from(const ViewInterner& other,
                               std::vector<ViewId>& remap) {
  check_owner();
  assert(remap.size() <= other.nodes_.size());
  remap.reserve(other.nodes_.size());
  std::vector<ViewId> senders;
  for (std::size_t id = remap.size(); id < other.nodes_.size(); ++id) {
    const Node& node = other.nodes_[id];
    if (node.depth == 0) {
      remap.push_back(base(node.process, node.input));
      continue;
    }
    senders.clear();
    senders.reserve(node.senders.size());
    for (const ViewId sender : node.senders) {
      // Step nodes only reference earlier ids, so the remap entry exists.
      senders.push_back(remap[static_cast<std::size_t>(sender)]);
    }
    remap.push_back(step(node.process, node.mask, senders));
  }
}

}  // namespace topocon
