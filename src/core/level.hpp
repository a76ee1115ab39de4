// The prefix states of one BFS level, and the Level a DepthAnalysis holds
// them in: the roots' own segments in root order, plus their offsets.
//
// The level driver (core/shard_set.hpp) expands one engine per root, and
// root r's states of a level are one EngineLevel in the mappings of the
// job's PagePool. A Level keeps those segments as they are: the states
// of root r are [offsets()[r], offsets()[r + 1]) of the level, in the
// order a single serial scan lists them, so index i names the same state
// at every root count. Hot loops walk the segments with a Cursor; cold
// readers index through the offsets.
//
// A Level built by a ShardSet keeps the job's PagePool alive through a
// shared_ptr until its segments are unmapped, so an analysis may outlive
// the ShardSet that built it. A Level is move-only.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/state_vector.hpp"
#include "memory/page_column.hpp"
#include "ptg/prefix.hpp"
#include "ptg/view_intern.hpp"

namespace topocon {

/// One admissible prefix (input vector, letter sequence) at some level
/// of the BFS. Its three per-process columns are inline for n <= 5
/// (core/state_vector.hpp), so a state owns no heap block there.
struct PrefixState {
  StateVector<Value> inputs;
  StateVector<ViewId> views;
  StateVector<NodeMask> reach;
  AdvState adv_state = 0;

  friend bool operator==(const PrefixState&, const PrefixState&) = default;
};
// A level holds millions of states: keep the layout from growing back.
static_assert(sizeof(PrefixState) <= 80);

/// One root's states of one level, in the mappings of a pool (or, with
/// a pool-less allocator, in mappings of their own).
using EngineLevel = std::vector<PrefixState, PageAllocator<PrefixState>>;

class Level {
 public:
  /// A forward iterator over the states in level order. Stepping stays
  /// inside one segment until it ends, so a walk costs no offset search.
  class Cursor {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PrefixState;
    using difference_type = std::ptrdiff_t;
    using pointer = const PrefixState*;
    using reference = const PrefixState&;

    /// The end cursor of every level.
    Cursor() = default;
    reference operator*() const { return *state_; }
    pointer operator->() const { return state_; }
    Cursor& operator++() {
      if (++state_ == end_) enter(segment_ + 1);
      return *this;
    }
    Cursor operator++(int) {
      Cursor old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Cursor& a, const Cursor& b) {
      return a.state_ == b.state_;
    }

   private:
    friend class Level;
    Cursor(const std::vector<EngineLevel>& segments, std::size_t segment,
           std::size_t index)
        : segments_(&segments) {
      enter(segment);
      if (state_ != nullptr) state_ += index;
    }
    /// Moves to the first state of the first nonempty segment from
    /// `segment` on, or to the end.
    void enter(std::size_t segment) {
      while (segment < segments_->size() && (*segments_)[segment].empty()) {
        ++segment;
      }
      segment_ = segment;
      if (segment == segments_->size()) {
        state_ = end_ = nullptr;
        return;
      }
      state_ = (*segments_)[segment].data();
      end_ = state_ + (*segments_)[segment].size();
    }

    const std::vector<EngineLevel>* segments_ = nullptr;
    std::size_t segment_ = 0;
    const PrefixState* state_ = nullptr;
    const PrefixState* end_ = nullptr;
  };

  Level() = default;
  /// One pool-less segment holding a copy of `states`.
  explicit Level(std::span<const PrefixState> states) : offsets_{0} {
    segments_.emplace_back(states.begin(), states.end(),
                           PageAllocator<PrefixState>());
    offsets_.push_back(states.size());
  }
  /// The segments in root order; `pages` is the pool they are mapped
  /// in (null for pool-less ones), kept alive until they are unmapped.
  Level(std::vector<EngineLevel> segments, std::shared_ptr<PagePool> pages)
      : pages_(std::move(pages)), segments_(std::move(segments)),
        offsets_{0} {
    for (const EngineLevel& segment : segments_) {
      offsets_.push_back(offsets_.back() + segment.size());
    }
  }
  /// Move-only, so a level's states are never held twice.
  Level(const Level&) = delete;
  Level(Level&& other) noexcept = default;
  /// By swap, so the old segments are unmapped before their pool dies.
  Level& operator=(Level other) noexcept {
    pages_.swap(other.pages_);
    segments_.swap(other.segments_);
    offsets_.swap(other.offsets_);
    return *this;
  }

  std::size_t size() const { return offsets_.empty() ? 0 : offsets_.back(); }
  bool empty() const { return size() == 0; }
  /// State i, found by a search of the offsets: for cold readers.
  const PrefixState& operator[](std::size_t i) const {
    assert(i < size());
    return *at(i);
  }
  /// A cursor at state i (one offset search); end() at i == size().
  Cursor at(std::size_t i) const {
    if (i >= size()) return Cursor();
    const auto r = static_cast<std::size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), i) -
        offsets_.begin() - 1);
    return Cursor(segments_, r, i - offsets_[r]);
  }
  Cursor begin() const { return at(0); }
  Cursor end() const { return Cursor(); }

  /// The segments in root order, for hot loops.
  const std::vector<EngineLevel>& segments() const { return segments_; }
  /// offsets()[r] is the index of segment r's first state; the last
  /// entry is size().
  const std::vector<std::size_t>& offsets() const { return offsets_; }
  /// Bytes the segments map.
  std::size_t mapped_bytes() const {
    std::size_t bytes = 0;
    for (const EngineLevel& segment : segments_) {
      if (segment.capacity() != 0) {
        bytes +=
            PagePool::page_round(segment.capacity() * sizeof(PrefixState));
      }
    }
    return bytes;
  }

  /// Element-wise: levels with the same states in the same order are
  /// equal however they are cut into segments.
  friend bool operator==(const Level& a, const Level& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  /// Declared first, so it dies after the segments it maps.
  std::shared_ptr<PagePool> pages_;
  std::vector<EngineLevel> segments_;
  std::vector<std::size_t> offsets_;
};

}  // namespace topocon
