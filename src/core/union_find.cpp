#include "core/union_find.hpp"

#include <atomic>
#include <numeric>
#include <utility>

namespace topocon {

namespace {

// Concurrent threads read and write parent links through atomic_ref. A
// link only ever moves to an ancestor, so relaxed order suffices: a
// stale read yields an older ancestor of the same set, and the linking
// CAS re-checks that its target is still a root.
int load(int& cell) {
  return std::atomic_ref<int>(cell).load(std::memory_order_relaxed);
}

}  // namespace

UnionFind::UnionFind(std::size_t n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), 0);
}

int UnionFind::find(int x) {
  while (true) {
    const int parent = load(parent_[static_cast<std::size_t>(x)]);
    if (parent == x) return x;
    const int grandparent = load(parent_[static_cast<std::size_t>(parent)]);
    if (grandparent != parent) {
      std::atomic_ref<int>(parent_[static_cast<std::size_t>(x)])
          .store(grandparent, std::memory_order_relaxed);
    }
    x = grandparent;
  }
}

bool UnionFind::unite(int a, int b) {
  while (true) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (a < b) std::swap(a, b);
    int expected = a;
    if (std::atomic_ref<int>(parent_[static_cast<std::size_t>(a)])
            .compare_exchange_weak(expected, b, std::memory_order_relaxed)) {
      return true;
    }
  }
}

int UnionFind::num_sets() const {
  int roots = 0;
  for (std::size_t x = 0; x < parent_.size(); ++x) {
    roots += parent_[x] == static_cast<int>(x) ? 1 : 0;
  }
  return roots;
}

std::vector<int> UnionFind::component_ids(const ParallelFor& parallel_for) {
  std::vector<int> ids(parent_.size());
  run_parallel_blocks(parallel_for, parent_.size(),
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t x = begin; x < end; ++x) {
                          ids[x] = find(static_cast<int>(x));
                        }
                      });
  // A root is its set's smallest member, so it precedes (or is) every
  // member: one forward pass numbers roots in first-occurrence order and
  // resolves every other member through its already-numbered root.
  int next = 0;
  for (std::size_t x = 0; x < ids.size(); ++x) {
    const auto root = static_cast<std::size_t>(ids[x]);
    ids[x] = root == x ? next++ : ids[root];
  }
  return ids;
}

}  // namespace topocon
