// AlignedAllocator — cache-line-aligned storage for hot numeric buffers.
//
// Tensor storage and the comm::Arena both hand their memory to SIMD
// micro-kernels (linalg) and to collectives that slice buffers at
// arbitrary offsets. Aligning every base pointer to one cache line
// (64 bytes = one AVX-512 vector, two AVX2 vectors) makes the aligned
// fast paths in those kernels eligible without per-call checks, and keeps
// concurrently-reduced neighbouring buffers from false-sharing a line.
//
// Standard allocator contract: stateless, so every instance compares
// equal and containers can steal each other's memory on move/swap.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace dkfac {

template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T), "alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not a power of two");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  /// Default- rather than value-initialises where a container would
  /// value-initialise (resize(n), vector(n)), so growing storage that a
  /// kernel overwrites in full skips the zero fill. Construction from an
  /// explicit value — vector(n, 0.0f) — is unaffected.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// The storage type of every Tensor: a float vector whose base pointer is
/// cache-line aligned.
using AlignedFloatVector = std::vector<float, AlignedAllocator<float, 64>>;

}  // namespace dkfac
