// StateVector: the per-process column of a PrefixState (inputs, views,
// reach masks), sized for the millions of states one BFS level holds.
//
// Up to kInline entries live inside the object; a longer column keeps one
// exact-size heap buffer whose pointer shares the inline storage. With
// 4-byte entries a column takes 24 B, the size of a std::vector, so a
// prefix state costs no heap block at all for n <= kInline processes:
// copying a state is a memcpy, and a level is freed with one buffer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace topocon {

template <typename T>
class StateVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  /// Entries stored inline; a column of more entries is heap-allocated.
  static constexpr std::size_t kInline = 5;

  StateVector() = default;
  StateVector(const StateVector& other) {
    assign(std::span<const T>(other.data(), other.size()));
  }
  StateVector(StateVector&& other) noexcept { steal(other); }
  StateVector& operator=(const StateVector& other) {
    if (this != &other) assign(std::span<const T>(other.data(), other.size()));
    return *this;
  }
  StateVector& operator=(StateVector&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~StateVector() { release(); }

  /// Replaces the entries with a copy of `values` (which may alias this
  /// column). A heap column of the same length reuses its buffer.
  void assign(std::span<const T> values) {
    const std::size_t count = values.size();
    T* const old = on_heap() ? heap() : nullptr;
    if (count > kInline) {
      T* const buffer = old != nullptr && count == size_ ? old : new T[count];
      std::memmove(buffer, values.data(), count * sizeof(T));
      if (old != nullptr && old != buffer) delete[] old;
      set_heap(buffer);
    } else {
      // `old` is saved, so overwriting the pointer's storage is safe.
      if (count != 0) std::memmove(inline_, values.data(), count * sizeof(T));
      delete[] old;
    }
    size_ = static_cast<std::uint32_t>(count);
  }

  /// Keeps the first min(size(), count) entries; new ones are zero.
  void resize(std::size_t count) {
    if (count == size_) return;
    const std::size_t keep = std::min<std::size_t>(size_, count);
    T* const old = on_heap() ? heap() : nullptr;
    if (count > kInline) {
      T* const buffer = new T[count]();
      std::memcpy(buffer, data(), keep * sizeof(T));
      delete[] old;
      set_heap(buffer);
    } else {
      if (old != nullptr) std::memcpy(inline_, old, keep * sizeof(T));
      std::fill(inline_ + keep, inline_ + count, T{});
      delete[] old;
    }
    size_ = static_cast<std::uint32_t>(count);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return on_heap() ? heap() : inline_; }
  const T* data() const { return on_heap() ? heap() : inline_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  friend bool operator==(const StateVector& a, const StateVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  /// Against a plain run of entries, e.g. a std::vector.
  friend bool operator==(const StateVector& a, std::span<const T> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool on_heap() const { return size_ > kInline; }
  T* heap() const {
    T* pointer;
    std::memcpy(&pointer, inline_, sizeof(pointer));
    return pointer;
  }
  void set_heap(T* pointer) {
    std::memcpy(inline_, &pointer, sizeof(pointer));
  }
  void release() {
    if (on_heap()) delete[] heap();
    size_ = 0;
  }
  /// Takes `other`'s entries (and buffer) and leaves it empty.
  void steal(StateVector& other) {
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    size_ = other.size_;
    other.size_ = 0;
  }

  // The heap pointer, when size_ > kInline, is stored in the first bytes
  // of inline_ (memcpy, so it needs no pointer alignment).
  static_assert(sizeof(T) * kInline >= sizeof(T*));
  T inline_[kInline]{};
  std::uint32_t size_ = 0;
};

}  // namespace topocon
