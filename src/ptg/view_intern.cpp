#include "ptg/view_intern.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace topocon {

namespace {

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
/// The low half of an index slot: the node id.
constexpr std::uint64_t kIdMask = 0xffffffffu;
/// Keys hashed and prefetched ahead of their index probes.
constexpr ViewId kPrefetchBatch = 16;

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
  return intern(Key{p, static_cast<std::uint32_t>(x), {}});
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
      assert(id >= 0 && static_cast<std::size_t>(id) < records_.size() &&
             "step() sender id not interned here");
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      const Record& sender = records_[static_cast<std::size_t>(id)];
      assert(sender.process == p &&
             "step() sender ids not in increasing process (mask) order");
      assert(sender.depth ==
                 records_[static_cast<std::size_t>(sender_ids.front())]
                     .depth &&
             "step() senders at mixed depths");
    }
  }
#endif
  return intern(Key{q, mask, sender_ids});
}

ViewId ViewInterner::intern(const Key& key) {
  const std::uint64_t h = hash(key);
  if (!reserve_index(records_.size() + 1)) {
    reindex(0, static_cast<ViewId>(records_.size()));
  }
  const std::size_t slot = slot_of(key, h);
  if (slots_[slot] != kEmptySlot) {
    return static_cast<ViewId>(slots_[slot] & kIdMask);
  }
  if (senders_.size() + key.senders.size() > kIdMask) {
    die("more than 2^32 sender ids");
  }
  const auto id = static_cast<ViewId>(records_.size());
  slots_[slot] = (h & ~kIdMask) | static_cast<std::uint32_t>(id);
  records_.push_back(Record{key.process, depth_of(key), key.word,
                            static_cast<std::uint32_t>(senders_.size())});
  senders_.append(key.senders.data(), key.senders.size());
  return id;
}

int ViewInterner::depth_of(const Key& key) const {
  // The self-loop guarantees a step view's own process among its
  // senders, so every step node has depth >= 1.
  return key.senders.empty()
             ? 0
             : records_[static_cast<std::size_t>(key.senders.front())].depth +
                   1;
}

ViewInterner::Node ViewInterner::node(ViewId id) const {
  const Record& record = records_[static_cast<std::size_t>(id)];
  Node node;
  node.process = record.process;
  node.depth = record.depth;
  if (record.depth == 0) {
    node.input = static_cast<Value>(record.word);
  } else {
    node.mask = record.word;
  }
  node.senders = key(id).senders;
  return node;
}

ViewInterner::Key ViewInterner::key(ViewId id) const {
  const Record& record = records_[static_cast<std::size_t>(id)];
  const std::size_t count =
      record.depth == 0 ? 0 : static_cast<std::size_t>(
                                  std::popcount(record.word));
  return Key{record.process, record.word,
             std::span<const ViewId>(senders_.data() + record.first_sender,
                                     count)};
}

bool operator==(const ViewInterner::Key& a, const ViewInterner::Key& b) {
  return a.process == b.process && a.word == b.word &&
         std::ranges::equal(a.senders, b.senders);
}

ViewId ViewInterner::find(const Key& key, std::uint64_t hash) const {
  if (slots_.empty()) return -1;
  const std::uint64_t entry = slots_[slot_of(key, hash)];
  return entry == kEmptySlot ? -1 : static_cast<ViewId>(entry & kIdMask);
}

std::uint64_t ViewInterner::hash(const Key& key) {
  std::uint64_t h =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.process))
       << 32) ^
      key.word;
  for (const ViewId id : key.senders) {
    h = (h ^ static_cast<std::uint32_t>(id)) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  // Final avalanche: the low bits pick the slot, the high bits tag it.
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

std::size_t ViewInterner::slot_of(const Key& key, std::uint64_t hash) const {
  const std::size_t wrap = slots_.size() - 1;
  const std::uint64_t tag = hash & ~kIdMask;
  for (std::size_t slot = hash & wrap;; slot = (slot + 1) & wrap) {
    const std::uint64_t entry = slots_[slot];
    if (entry == kEmptySlot) return slot;
    if ((entry & ~kIdMask) == tag &&
        this->key(static_cast<ViewId>(entry & kIdMask)) == key) {
      return slot;
    }
  }
}

bool ViewInterner::reserve_index(std::size_t views) {
  std::size_t capacity = std::max<std::size_t>(64, slots_.size());
  while (capacity < 2 * views) capacity *= 2;
  if (capacity == slots_.size()) return true;
  slots_.reset();
  slots_.assign(capacity, kEmptySlot);
  return false;
}

void ViewInterner::index(ViewId id, std::uint64_t hash) {
  // Every key is in the index at most once, so the node takes the first
  // free slot of its probe run; a lost race only means that another
  // lane's node took that one. Relaxed suffices: no lane reads the index
  // before the lanes that fill it have joined.
  const std::size_t wrap = slots_.size() - 1;
  const std::uint64_t entry =
      (hash & ~kIdMask) | static_cast<std::uint32_t>(id);
  for (std::size_t slot = hash & wrap;; slot = (slot + 1) & wrap) {
    std::uint64_t expected = kEmptySlot;
    if (std::atomic_ref<std::uint64_t>(slots_[slot])
            .compare_exchange_strong(expected, entry,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
}

ViewInterner::Blank ViewInterner::append_blank(std::size_t views,
                                               std::size_t senders) {
  check_owner();
  if (senders_.size() + senders > kIdMask) die("more than 2^32 sender ids");
  Blank blank{static_cast<ViewId>(records_.size()), senders_.size(), 0};
  if (!reserve_index(records_.size() + views)) blank.stale = records_.size();
  records_.extend(views);
  senders_.extend(senders);
  return blank;
}

void ViewInterner::reindex(ViewId begin, ViewId end) {
  std::uint64_t hashes[kPrefetchBatch];
  for (ViewId batch = begin; batch < end; batch += kPrefetchBatch) {
    const ViewId stop = std::min<ViewId>(end, batch + kPrefetchBatch);
    for (ViewId id = batch; id < stop; ++id) {
      hashes[id - batch] = hash(key(id));
      prefetch(hashes[id - batch]);
    }
    for (ViewId id = batch; id < stop; ++id) index(id, hashes[id - batch]);
  }
}

void ViewInterner::put(ViewId id, std::size_t first_sender, const Key& key,
                       std::uint64_t hash) {
  records_[static_cast<std::size_t>(id)] =
      Record{key.process, depth_of(key), key.word,
             static_cast<std::uint32_t>(first_sender)};
  std::ranges::copy(key.senders, senders_.begin() +
                                     static_cast<std::ptrdiff_t>(first_sender));
  index(id, hash);
}

ViewVector ViewInterner::initial(const InputVector& inputs) {
  ViewVector views(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    views[p] = base(static_cast<ProcessId>(p), inputs[p]);
  }
  return views;
}

ViewVector ViewInterner::advance(std::span<const ViewId> views,
                                 const Digraph& g) {
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
  assert(remap.size() <= other.size());
  remap.reserve(other.size());
  std::vector<ViewId> senders;
  for (std::size_t id = remap.size(); id < other.size(); ++id) {
    const Key key = other.key(static_cast<ViewId>(id));
    senders.clear();
    for (const ViewId sender : key.senders) {
      // Step nodes only reference earlier ids, so the remap entry exists.
      senders.push_back(remap[static_cast<std::size_t>(sender)]);
    }
    remap.push_back(intern(Key{key.process, key.word, senders}));
  }
}

}  // namespace topocon
