// Heap-allocation counting for vmcons_alloc_tests.
//
// heap_counter.cpp replaces the global operator new and delete, which
// applies to the whole binary it links into. That is why these tests build
// as an executable of their own (tests/alloc/*.cpp) instead of joining
// vmcons_tests: any check that pins allocation counts belongs here.
#pragma once

#include <cstdint>

namespace vmcons::testing {

/// operator new calls the calling thread has made since it started.
std::uint64_t thread_allocations() noexcept;

/// Heap allocations `call()` makes on the calling thread.
template <typename Call>
std::uint64_t allocations_of(Call&& call) {
  const std::uint64_t before = thread_allocations();
  call();
  return thread_allocations() - before;
}

}  // namespace vmcons::testing
