// Counting replacements of the global allocation functions, for the
// binary that includes this header: include it from exactly one .cc of
// that binary. Every replaceable form (plain, array, nothrow and
// aligned) counts one allocation and its bytes and takes its memory from
// malloc or aligned_alloc; every delete form hands it back to free.
// Routing all of them keeps one allocator family, which ASan checks, and
// leaves no form uncounted.
//
// bench_table2_runtime reads the counts around its warm passes and
// CHECKs them against fixed bounds; graph_store_test bounds a warm
// grounding pass the same way.

#ifndef CARL_BENCH_HEAP_HOOK_H_
#define CARL_BENCH_HEAP_HOOK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace carl {
namespace heap_hook {

inline std::atomic<uint64_t> g_allocs{0};
inline std::atomic<uint64_t> g_bytes{0};

/// Heap allocations (bytes) requested so far by the whole process.
inline uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }
inline uint64_t Bytes() { return g_bytes.load(std::memory_order_relaxed); }

inline void* Allocate(std::size_t n, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  // aligned_alloc takes a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

inline void* AllocateOrThrow(std::size_t n, std::size_t align) {
  void* p = Allocate(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace heap_hook
}  // namespace carl

void* operator new(std::size_t n) {
  return carl::heap_hook::AllocateOrThrow(n, 0);
}
void* operator new[](std::size_t n) {
  return carl::heap_hook::AllocateOrThrow(n, 0);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return carl::heap_hook::Allocate(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return carl::heap_hook::Allocate(n, 0);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return carl::heap_hook::AllocateOrThrow(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return carl::heap_hook::AllocateOrThrow(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return carl::heap_hook::Allocate(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return carl::heap_hook::Allocate(n, static_cast<std::size_t>(al));
}

// Not inlined: inlined into a caller, GCC pairs the caller's operator new
// with this free and reports a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // CARL_BENCH_HEAP_HOOK_H_
