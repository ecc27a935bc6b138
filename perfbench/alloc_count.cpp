#include "alloc_count.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// Plain-old-data thread_locals: zero-initialised without a constructor, so
// operator new may touch them on any thread at any time.
thread_local uint64_t tl_calls = 0;
thread_local uint64_t tl_bytes = 0;

// Bytes of live operator-new blocks in the process (as malloc sized them)
// and their peak since the last take_peak_heap_bytes().
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void count(std::size_t size) {
  ++tl_calls;
  tl_bytes += size;
}

void* track(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const auto n = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* allocate(std::size_t size) {
  count(size);
  return track(std::malloc(size == 0 ? 1 : size));
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count(size);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return track(std::aligned_alloc(a, rounded));
}

}  // namespace

AllocCounts thread_allocs() { return {tl_calls, tl_bytes}; }

int64_t take_peak_heap_bytes() {
  return g_peak_bytes.exchange(g_live_bytes.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { perfbench::release(p); }
