#ifndef KGACC_TESTS_LARGEST_ALLOC_H_
#define KGACC_TESTS_LARGEST_ALLOC_H_

// Replaces the global operator new/delete with a malloc-backed pair that
// records the largest single heap request since the last reset: a decoder
// trusting a hostile length prefix or count shows up as a huge allocation.
// Include from exactly one translation unit of a test binary (every fuzz
// test is one file, so its own .cc).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace kgacc::testing_alloc {

inline std::atomic<size_t> largest_alloc{0};

inline void* CountedAlloc(std::size_t size) {
  size_t seen = largest_alloc.load(std::memory_order_relaxed);
  while (size > seen &&
         !largest_alloc.compare_exchange_weak(seen, size,
                                              std::memory_order_relaxed)) {
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace kgacc::testing_alloc

void* operator new(std::size_t size) {
  return kgacc::testing_alloc::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return kgacc::testing_alloc::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // KGACC_TESTS_LARGEST_ALLOC_H_
