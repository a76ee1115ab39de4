#include "memory/page_column.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace topocon {

namespace {

std::atomic<std::size_t> g_process_mapped{0};

}  // namespace

std::size_t PagePool::page_round(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

PageSpan PagePool::map(std::size_t bytes) {
  bytes = page_round(bytes);
  void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  g_process_mapped.fetch_add(bytes, std::memory_order_relaxed);
  TOPOCON_POISON(base, bytes);
  return PageSpan{base, bytes};
}

PageSpan PagePool::remap(PageSpan span, std::size_t bytes) {
  bytes = page_round(bytes);
  if (bytes == span.bytes) {
    TOPOCON_POISON(span.base, span.bytes);
    return span;
  }
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer does not intercept mremap, so the range a mapping
  // moves to would keep the access history of what lived there before,
  // and a later access would be reported as a race. Copy instead.
  const PageSpan moved = map(bytes);
  std::memcpy(moved.base, span.base, std::min(bytes, span.bytes));
  unmap(span);
  return moved;
#else
  // The shadow of the old range must not stay poisoned for whatever is
  // mapped there next.
  TOPOCON_UNPOISON(span.base, span.bytes);
  void* base = mremap(span.base, span.bytes, bytes, MREMAP_MAYMOVE);
  if (base == MAP_FAILED) {
    TOPOCON_POISON(span.base, span.bytes);
    throw std::bad_alloc();
  }
  if (bytes > span.bytes) {
    g_process_mapped.fetch_add(bytes - span.bytes, std::memory_order_relaxed);
  } else {
    g_process_mapped.fetch_sub(span.bytes - bytes, std::memory_order_relaxed);
  }
  TOPOCON_POISON(base, bytes);
  return PageSpan{base, bytes};
#endif
}

void PagePool::unmap(PageSpan span) {
  TOPOCON_UNPOISON(span.base, span.bytes);
  if (munmap(span.base, span.bytes) != 0) {
    std::perror("munmap");
    std::abort();
  }
  g_process_mapped.fetch_sub(span.bytes, std::memory_order_relaxed);
}

std::size_t PagePool::process_mapped_bytes() {
  return g_process_mapped.load(std::memory_order_relaxed);
}

PagePool::~PagePool() { drain(); }

PageSpan PagePool::acquire(std::size_t bytes) {
  bytes = page_round(bytes);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t best = cached_.size();
  for (std::size_t i = 0; i < cached_.size(); ++i) {
    const std::size_t size = cached_[i].bytes;
    if (size >= bytes &&
        (best == cached_.size() || size < cached_[best].bytes)) {
      best = i;
    }
  }
  if (best != cached_.size()) {
    // Any page range of a mapping can be moved or unmapped on its own,
    // so the rest of the mapping stays cached as a mapping of its own.
    PageSpan& from = cached_[best];
    const PageSpan span{from.base, bytes};
    if (from.bytes == bytes) {
      from = cached_.back();
      cached_.pop_back();
    } else {
      from.base = static_cast<char*>(from.base) + bytes;
      from.bytes -= bytes;
    }
    return span;
  }
  if (cached_.empty()) {
    const PageSpan span = map(bytes);
    mapped_ += span.bytes;
    return span;
  }
  // No cached mapping fits: grow the largest, whose faulted-in pages are
  // worth the most to keep. (A mapping stays one kernel mapping this way:
  // mremap cannot grow or move a range that spans several.)
  const auto largest = std::max_element(
      cached_.begin(), cached_.end(),
      [](const PageSpan& a, const PageSpan& b) { return a.bytes < b.bytes; });
  const PageSpan from = *largest;
  *largest = cached_.back();
  cached_.pop_back();
  const PageSpan span = remap(from, bytes);
  mapped_ += span.bytes - from.bytes;
  return span;
}

PageSpan PagePool::resize(PageSpan span, std::size_t bytes) {
  bytes = page_round(bytes);
  if (bytes == span.bytes) return span;
  if (bytes < span.bytes) {
    release(
        PageSpan{static_cast<char*>(span.base) + bytes, span.bytes - bytes});
    return PageSpan{span.base, bytes};
  }
  const PageSpan grown = remap(span, bytes);
  const std::lock_guard<std::mutex> lock(mutex_);
  mapped_ += grown.bytes - span.bytes;
  return grown;
}

void PagePool::release(PageSpan span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    unmap(span);
    mapped_ -= span.bytes;
    return;
  }
  TOPOCON_POISON(span.base, span.bytes);
  cached_.push_back(span);
}

void PagePool::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  for (const PageSpan& span : cached_) {
    unmap(span);
    mapped_ -= span.bytes;
  }
  cached_.clear();
}

std::size_t PagePool::mapped_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return mapped_;
}

}  // namespace topocon
