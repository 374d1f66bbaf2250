#include "counting_alloc.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace lcb::alloc {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_allocations{0};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void NoteAllocation(void* ptr) {
  const auto bytes = static_cast<int64_t>(malloc_usable_size(ptr));
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const int64_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Enable() { g_enabled.store(true, std::memory_order_relaxed); }
void Disable() { g_enabled.store(false, std::memory_order_relaxed); }
uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }
int64_t LiveBytes() { return g_live.load(std::memory_order_relaxed); }
int64_t PeakBytes() { return g_peak.load(std::memory_order_relaxed); }
void ResetPeak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace lcb::alloc

// The array, nothrow and sized forms of the standard library forward to
// these two, so replacing them covers every non-aligned allocation.
void* operator new(std::size_t size) {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  if (lcb::alloc::g_enabled.load(std::memory_order_relaxed)) {
    lcb::alloc::NoteAllocation(ptr);
  }
  return ptr;
}

void operator delete(void* ptr) noexcept {
  if (ptr == nullptr) return;
  if (lcb::alloc::g_enabled.load(std::memory_order_relaxed)) {
    lcb::alloc::g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(ptr)),
                                 std::memory_order_relaxed);
  }
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t) noexcept { operator delete(ptr); }
