#ifndef KGACC_UTIL_ALLOC_COUNTER_H_
#define KGACC_UTIL_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

/// \file alloc_counter.h
/// Process-wide heap-allocation counter for allocation-accounting tests and
/// benches: defines the replaceable global operator new/delete to tick
/// `kgacc::alloc_counter::count` on every allocation and add its size to
/// `kgacc::alloc_counter::bytes`.
///
/// Include from exactly ONE translation unit per binary (it *defines* the
/// operators). Library code must never include it — it exists for the
/// zero-allocation steady-state test (tests/eval/session_alloc_test.cc),
/// the bounded-allocation decoder fuzz test (tests/net/protocol_fuzz_test.cc)
/// and the allocations-per-audit column of bench_service_throughput.

namespace kgacc::alloc_counter {

inline std::atomic<uint64_t> count{0};
inline std::atomic<uint64_t> bytes{0};

/// Current process-wide allocation count.
inline uint64_t Current() { return count.load(std::memory_order_relaxed); }
/// Bytes requested by every allocation so far.
inline uint64_t Bytes() { return bytes.load(std::memory_order_relaxed); }

}  // namespace kgacc::alloc_counter

void* operator new(std::size_t size) {
  kgacc::alloc_counter::count.fetch_add(1, std::memory_order_relaxed);
  kgacc::alloc_counter::bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  kgacc::alloc_counter::count.fetch_add(1, std::memory_order_relaxed);
  kgacc::alloc_counter::bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // KGACC_UTIL_ALLOC_COUNTER_H_
