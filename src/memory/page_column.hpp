// Page-backed columns: the large columns of the view interner
// (ptg/view_intern.hpp) and the transient expansion buffers of the
// frontier engine (core/frontier.hpp) -- a level's pending states, view
// indices, reach masks and packed view keys, and its committed states --
// held in anonymous mappings instead of malloc's arenas.
//
// A std::vector grown by push_back doubles through copies, and on pool
// threads its freed 4-16 MiB blocks stay in glibc's per-thread arenas,
// resident after the job that used them ends (README "Memory"). A
// PageColumn grows by mremap, which moves page-table entries and copies
// no element, so a column is never held twice, and its pages go back to
// the system when it dies. A column of a PagePool hands its mapping back
// to the pool instead, which gives it to the next acquire that fits: the
// next level of the same job writes into pages the last one already
// faulted in. The pool unmaps every mapping it holds when it drains or
// dies, so a finished job keeps none of them. Untouched pages of a
// mapping cost address space only, which lets a writer reserve an upper
// bound and shrink to its size when done.
//
// Under AddressSanitizer the spare capacity [size(), capacity()) and
// every mapping waiting in a pool are poisoned, so an overrun into
// mapped memory is still reported.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define TOPOCON_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define TOPOCON_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define TOPOCON_POISON(addr, size) ((void)(addr), (void)(size))
#define TOPOCON_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace topocon {

/// One anonymous private mapping: `bytes` is a whole number of pages.
struct PageSpan {
  void* base = nullptr;
  std::size_t bytes = 0;
};

/// The mappings of one job. release() caches a mapping, and the pool
/// hands its pages out again: acquire() cuts its mapping from the
/// smallest cached one that fits (the rest stays cached), else grows the
/// largest cached one (mremap, no copy), else maps fresh pages; resize()
/// gives a cut tail back to the cache. Every member function is
/// thread-safe.
class PagePool {
 public:
  PagePool() = default;
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;
  /// Unmaps the cached mappings. Every acquired one must be released
  /// first.
  ~PagePool();

  /// A mapping of `bytes` (> 0) rounded up to whole pages, poisoned in
  /// full under ASan.
  PageSpan acquire(std::size_t bytes);
  /// A mapping acquired here, resized to `bytes` rounded up to whole
  /// pages with its contents kept up to the smaller size.
  PageSpan resize(PageSpan span, std::size_t bytes);
  /// Caches `span`, acquired here, for the next acquire(); unmaps it
  /// once the pool is draining.
  void release(PageSpan span);
  /// Unmaps every cached mapping, and from now on every released one:
  /// for a job whose remaining work acquires no mapping worth reusing.
  void drain();

  /// Bytes of every mapping this pool has made and not unmapped, held
  /// by a column or cached.
  std::size_t mapped_bytes() const;
  /// Bytes mapped by every pool and pool-less column of the process.
  static std::size_t process_mapped_bytes();

  // The primitives behind a pool, also used directly by a column that
  // has none. `bytes` is rounded up to whole pages. remap() keeps the
  // contents up to the smaller size without copying them (mremap) and
  // returns the possibly moved mapping. map() and remap() return their
  // mapping poisoned in full under ASan.
  static PageSpan map(std::size_t bytes);
  static PageSpan remap(PageSpan span, std::size_t bytes);
  static void unmap(PageSpan span);
  /// `bytes` rounded up to whole pages.
  static std::size_t page_round(std::size_t bytes);

 private:
  mutable std::mutex mutex_;
  /// Released mappings, poisoned in full under ASan.
  std::vector<PageSpan> cached_;
  std::size_t mapped_ = 0;
  bool draining_ = false;
};

/// A growable column of trivially copyable values in one mapping of its
/// pool (or, without a pool, one mapping of its own). Moving hands the
/// mapping over; the moved-from column is empty and owns nothing.
template <typename T>
class PageColumn {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PageColumn() = default;
  explicit PageColumn(PagePool* pool) : pool_(pool) {}
  PageColumn(const PageColumn&) = delete;
  PageColumn& operator=(const PageColumn&) = delete;
  PageColumn(PageColumn&& other) noexcept { steal(other); }
  PageColumn& operator=(PageColumn&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~PageColumn() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  /// Bytes of the column's mapping (0 when it has none).
  std::size_t mapped_bytes() const { return span_.bytes; }
  PagePool* pool() const { return pool_; }

  T* data() { return static_cast<T*>(span_.base); }
  const T* data() const { return static_cast<const T*>(span_.base); }
  T& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  void push_back(const T& value) {
    if (size_ == capacity()) grow(size_ + 1);
    TOPOCON_UNPOISON(data() + size_, sizeof(T));
    data()[size_++] = value;
  }
  /// Appends `count` values, which must not lie in this column.
  void append(const T* values, std::size_t count) {
    assert(values + count <= data() || values >= data() + capacity_);
    if (count != 0) std::memcpy(extend(count), values, count * sizeof(T));
  }
  /// Adds `count` values of unspecified content (zero or recycled) to
  /// be written through the returned pointer, growing to exactly the
  /// pages they need.
  T* extend(std::size_t count) {
    reserve(size_ + count);
    T* const added = data() + size_;
    TOPOCON_UNPOISON(added, count * sizeof(T));
    size_ += count;
    return added;
  }
  /// Replaces the contents with `count` copies of `value`.
  void assign(std::size_t count, const T& value) {
    clear();
    reserve(count);
    TOPOCON_UNPOISON(data(), count * sizeof(T));
    for (std::size_t i = 0; i < count; ++i) data()[i] = value;
    size_ = count;
  }
  /// Capacity for at least `count` values. Growing keeps the contents
  /// without copying them.
  void reserve(std::size_t count) {
    if (count > capacity()) resize_span(count);
  }
  /// Gives the mapping back (to the pool, if any) and empties the
  /// column, which keeps its pool.
  void reset() { release(); }
  /// Gives the pages past size() back (to the pool, if any); an empty
  /// column gives its whole mapping back.
  void shrink_to_fit() {
    if (size_ == 0) {
      release();
    } else {
      resize_span(size_);
    }
  }
  void clear() {
    TOPOCON_POISON(span_.base, span_.bytes);
    size_ = 0;
  }

  friend bool operator==(const PageColumn& a, const PageColumn& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // Geometric growth of the address space: untouched pages are never
  // resident, and mremap moves the touched ones, so growing copies
  // nothing and a column holds at most its size in resident pages.
  void grow(std::size_t count) { resize_span(std::max(count, 2 * capacity())); }

  void resize_span(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    if (span_.base == nullptr) {
      span_ = pool_ != nullptr ? pool_->acquire(bytes) : PagePool::map(bytes);
    } else {
      span_ = pool_ != nullptr ? pool_->resize(span_, bytes)
                               : PagePool::remap(span_, bytes);
    }
    capacity_ = span_.bytes / sizeof(T);
    TOPOCON_UNPOISON(span_.base, size_ * sizeof(T));
  }

  void release() {
    if (span_.base != nullptr) {
      if (pool_ != nullptr) {
        pool_->release(span_);
      } else {
        PagePool::unmap(span_);
      }
    }
    span_ = PageSpan{};
    size_ = 0;
    capacity_ = 0;
  }

  void steal(PageColumn& other) {
    pool_ = other.pool_;
    span_ = std::exchange(other.span_, PageSpan{});
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }

  PagePool* pool_ = nullptr;
  PageSpan span_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// A std allocator in the mappings of a pool (or, without one, in
/// mappings of its own), for containers of values that are not
/// trivially copyable: one mapping per allocation.
template <typename T>
class PageAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;

  PageAllocator() = default;
  explicit PageAllocator(PagePool* pool) : pool_(pool) {}
  template <typename U>
  PageAllocator(const PageAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    const PageSpan span =
        pool_ != nullptr ? pool_->acquire(bytes) : PagePool::map(bytes);
    TOPOCON_UNPOISON(span.base, bytes);
    return static_cast<T*>(span.base);
  }
  void deallocate(T* values, std::size_t count) {
    const PageSpan span{values, PagePool::page_round(count * sizeof(T))};
    if (pool_ != nullptr) {
      pool_->release(span);
    } else {
      PagePool::unmap(span);
    }
  }

  PagePool* pool() const { return pool_; }
  template <typename U>
  friend bool operator==(const PageAllocator& a, const PageAllocator<U>& b) {
    return a.pool() == b.pool();
  }

 private:
  PagePool* pool_ = nullptr;
};

}  // namespace topocon
