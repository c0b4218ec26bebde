// Counting replacement of the global operator new/delete family for the
// carlbench executable only. Every allocation in the process — engine,
// serving layer, loadgen — bumps two relaxed counters, so allocs and
// bytes per operation are exact counts, not hand-placed estimates. The
// hook also keeps the bytes live (by the allocator's usable size) and
// their peak.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_live{0};
std::atomic<uint64_t> g_peak{0};

void* Count(void* p, std::size_t n) {
  if (p == nullptr) return p;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  uint64_t usable = malloc_usable_size(p);
  uint64_t live = g_live.fetch_add(usable, std::memory_order_relaxed) + usable;
  uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* Allocate(std::size_t n) { return Count(std::malloc(n == 0 ? 1 : n), n); }

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  // aligned_alloc wants a size that is a multiple of the alignment.
  std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return Count(std::aligned_alloc(a, size), n);
}

void Free(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace carlbench {

HeapCounts HeapNow() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

double PeakHeapMb() {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

}  // namespace carlbench

void* operator new(std::size_t n) {
  void* p = Allocate(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t align) {
  void* p = AllocateAligned(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return operator new(n, align);
}
void* operator new(std::size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, align);
}
void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, align);
}

void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Free(p);
}
