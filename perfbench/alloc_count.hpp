// Heap-allocation counters of the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family, so every
// allocation in the process — library code included — is counted against
// the calling thread; the traced loop attributes a thread's count to the
// span it has open. It also keeps the process's live heap bytes and their
// peak, the end-to-end memory metric.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

/// Allocations made by the calling thread since it started.
AllocCounts thread_allocs();

/// Peak bytes of live operator-new blocks in the whole process since the
/// previous call (or process start); restarts the peak at the live bytes.
/// Unlike the resident set, it does not depend on how much freed memory
/// malloc keeps mapped.
int64_t take_peak_heap_bytes();

}  // namespace perfbench
