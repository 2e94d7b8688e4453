// Call-local scratch arrays sized once from a count the caller knows.
//
// The analytic kernels stage their work in short-lived arrays: query lists,
// answer lists and per-row columns whose length is known, or bounded, before
// the first element is written. A std::vector grown by push_back pays one
// allocation per doubling, and a vector even of known length pays one
// allocation per array. Scratch<T, N> takes its capacity once, at
// construction: up to N elements live inline (on the caller's stack), more
// take one heap allocation. A scalar solve() stages a batch of one, whose
// arrays all fit inline, so it allocates nothing here; a shard of thousands
// of scenarios allocates each array once, as a reserved vector would.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

#include "util/error.hpp"

namespace vmcons::util {

/// An array of at most `capacity` T, fixed at construction: inline when
/// capacity <= N, else one heap allocation. It starts empty; push_back
/// appends and resize() sets the length. The storage is never initialized,
/// so an unused inline capacity costs nothing and the elements a resize()
/// adds hold garbage until the caller writes them. Neither copyable nor
/// movable: pointers and spans into it stay valid for its lifetime.
template <typename T, std::size_t N>
class Scratch {
  // Elements are neither constructed nor destroyed. A trivially copyable,
  // trivially destructible T is an implicit-lifetime type, so the byte
  // storage implicitly creates the array of T that data_ points to.
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  explicit Scratch(std::size_t capacity) : capacity_(capacity) {
    if (capacity > N) {
      heap_ =
          std::make_unique_for_overwrite<std::byte[]>(capacity * sizeof(T));
      data_ = std::launder(reinterpret_cast<T*>(heap_.get()));
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::size_t size() const noexcept { return size_; }
  T* data() noexcept { return data_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  operator std::span<T>() noexcept { return {data_, size_}; }
  operator std::span<const T>() const noexcept { return {data_, size_}; }

  void push_back(const T& value) {
    VMCONS_ASSERT(size_ < capacity_);
    data_[size_++] = value;
  }

  void resize(std::size_t size) {
    VMCONS_ASSERT(size <= capacity_);
    size_ = size;
  }

 private:
  std::size_t capacity_;
  std::size_t size_ = 0;
  alignas(T) std::byte inline_[N * sizeof(T)];
  std::unique_ptr<std::byte[]> heap_;
  T* data_ = std::launder(reinterpret_cast<T*>(inline_));
};

}  // namespace vmcons::util
