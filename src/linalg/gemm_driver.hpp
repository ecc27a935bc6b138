// Goto-style GEMM macro-kernel, shared by the fp32 public kernels
// (blas.cpp) and the fp64 decomposition internals (householder.cpp,
// tridiag_dc.cpp, cholesky.cpp).
//
// The driver computes C += alpha·op(A)·op(B) over an arbitrary-leading-
// dimension output (so decomposition code can hit trailing submatrices in
// place), with an `upper_only` mode that skips micro-tiles strictly below
// the diagonal — the SYRK/rank-2k path. The caller owns the beta pass.
//
// Schedule. The output is cut into kMr×kNr micro-tiles, numbered row
// sliver by row sliver — or column sliver by column sliver when C is a
// rectangle wider than tall; with `upper_only` only the tiles that touch
// the upper triangle count. Each thread takes one contiguous run of that
// numbering with an equal share of the tiles, so a triangle splits as
// evenly as a rectangle. The split depends only on the shape and the team
// size. Each thread then walks the loop nest jc → pc → ic → jr → ir over
// its own tiles, k-slabs ascending:
//
//   - A-panels (kMc rows × kKc): each thread packs the rows of its tiles
//     into a private buffer. Numbered by row, a row sliver split between
//     two threads is packed twice; numbered by column, every thread packs
//     nearly all of op(A), the smaller operand then.
//   - B-slivers (kKc × kNr) may be read by several threads. Per k-slab each
//     thread claims every sliver it needs that no one has claimed yet and
//     packs it into a buffer shared by the team; a sliver is packed once.
//     Before computing, a thread waits for the slivers it needs that others
//     claimed — only for packs already under way, never for a thread to
//     reach some point. There is no barrier in the loop.
//
// Per-element order. Each output element receives alpha·acc(slab) once per
// k-slab, slabs ascending, where acc is the micro-kernel over that slab's
// packed A and B slivers. A sliver's packed content depends only on its
// rows/columns and its slab, not on who packs it, and the thread count only
// moves tile boundaries. So the result is the same bit for bit at every
// thread count, and equal to that of any schedule with the same slabs,
// slivers and micro-kernel.
//
// Buffers come from a per-thread workspace that grows on demand and is
// reused across calls, so repeated calls of a shape allocate nothing.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/microkernel.hpp"
#include "linalg/pack.hpp"
#include "linalg/threading.hpp"

namespace dkfac::linalg::detail {

/// Writes the valid region of one accumulated micro-tile into C (leading
/// dimension ldc), applying alpha; with `upper_only` it drops elements
/// below the diagonal.
template <typename T>
inline void write_tile(T alpha, const T* acc, T* c, int64_t ldc, int64_t i0,
                       int64_t mr, int64_t j0, int64_t nr, bool upper_only) {
  constexpr int64_t nr_tile = MicroTile<T>::kNr;
  for (int64_t r = 0; r < mr; ++r) {
    T* crow = c + (i0 + r) * ldc;
    const T* arow = acc + r * nr_tile;
    const int64_t c_begin = upper_only ? std::max<int64_t>(0, i0 + r - j0) : 0;
    for (int64_t cc = c_begin; cc < nr; ++cc) {
      crow[j0 + cc] += alpha * arow[cc];
    }
  }
}

/// Pack buffers of one thread, kept across calls.
template <typename T>
struct GemmWorkspace {
  std::vector<T> bpack;        // op(B) over all k-slabs, shared by the team
  std::vector<int64_t> state;  // per (k-slab, column sliver) of bpack
  int64_t call = 0;            // calls that used bpack; stamps `state`
  std::vector<T> apack;        // one A-panel, private
};

template <typename T>
inline GemmWorkspace<T>& thread_workspace() {
  thread_local GemmWorkspace<T> ws;
  return ws;
}

/// Storage of `buf` with room for `count` elements; grows, never shrinks.
template <typename T>
inline T* reserve(std::vector<T>& buf, int64_t count) {
  if (buf.size() < static_cast<size_t>(count)) {
    buf.resize(static_cast<size_t>(count));
  }
  return buf.data();
}

/// Pack state of one shared sliver during call number `call`: below
/// 2·call−1 it is unpacked, 2·call−1 claimed by a packer, 2·call packed.
/// Stamping with the call number means the states never need clearing.
class SliverState {
 public:
  SliverState(int64_t& word, int64_t call) : word_(word), call_(call) {}

  /// True when the caller won the sliver and must pack it, then publish().
  bool claim() {
    int64_t seen = word_.load(std::memory_order_relaxed);
    while (seen < 2 * call_ - 1) {
      if (word_.compare_exchange_weak(seen, 2 * call_ - 1,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void publish() { word_.store(2 * call_, std::memory_order_release); }

  /// Returns once the sliver is packed. Called only after this thread's own
  /// claim() attempt, so the sliver is packed or being packed by a thread
  /// that does nothing else until it publishes.
  void wait_packed() const {
    for (int spins = 0; word_.load(std::memory_order_acquire) != 2 * call_;) {
      if (spins < 64) {
        ++spins;
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  std::atomic_ref<int64_t> word_;
  int64_t call_;
};

/// The micro-tiles of one call: `rows` row slivers × `cols` column slivers,
/// numbered row by row, or column by column when `by_col` (never with
/// `upper_only`). With `upper_only`, row `it` starts at the first column
/// sliver holding an element with col ≥ row.
struct TileGrid {
  int64_t rows, cols;
  int64_t mr, nr;  // sliver widths
  int64_t n;       // output columns
  bool upper_only;
  bool by_col;

  int64_t first_col(int64_t it) const {
    if (!upper_only) return 0;
    const int64_t i0 = it * mr;
    return i0 >= n ? cols : i0 / nr;
  }

  int64_t count() const {
    if (!upper_only) return rows * cols;
    int64_t total = 0;
    for (int64_t it = 0; it < rows; ++it) total += cols - first_col(it);
    return total;
  }

  /// (row, column) sliver of tile number `idx`; count() maps to one past
  /// the last line: (rows, 0), or (0, cols) when numbering by column.
  std::pair<int64_t, int64_t> locate(int64_t idx) const {
    if (by_col) return {idx % rows, idx / rows};
    if (!upper_only) return {idx / cols, idx % cols};
    for (int64_t it = 0; it < rows; ++it) {
      const int64_t c0 = first_col(it);
      if (idx < cols - c0) return {it, c0 + idx};
      idx -= cols - c0;
    }
    return {rows, 0};
  }
};

/// C(m×n, row-major, leading dimension ldc) += alpha·op(A)·op(B).
/// When `upper_only`, only elements with col ≥ row are written; computed
/// elements follow the exact same accumulation order as the full product,
/// so they match the unrestricted call bitwise.
template <typename T>
inline void gemm_driver(T alpha, const OpViewT<T>& a, const OpViewT<T>& b,
                        T* c, int64_t ldc, int64_t m, int64_t n, int64_t k,
                        bool upper_only) {
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;

  constexpr int64_t mr_tile = MicroTile<T>::kMr;
  constexpr int64_t nr_tile = MicroTile<T>::kNr;
  constexpr int64_t mc_blk = GemmBlocking<T>::kMc;
  constexpr int64_t kc_blk = GemmBlocking<T>::kKc;
  constexpr int64_t nc_blk = GemmBlocking<T>::kNc;
  static_assert(mc_blk % mr_tile == 0, "A-panel height must be a sliver multiple");
  static_assert(nc_blk % nr_tile == 0, "B-panel width must be a sliver multiple");
  constexpr int64_t panel_rows = mc_blk / mr_tile;  // row slivers per A-panel

  // A C wider than tall is numbered by column, so that the threads split
  // its wide dimension and each packs mostly B-slivers of its own.
  const TileGrid grid{(m + mr_tile - 1) / mr_tile, (n + nr_tile - 1) / nr_tile,
                      mr_tile, nr_tile, n, upper_only, m < n && !upper_only};
  // Slab number p of op(B) starts at bpack + p·npad·kKc, its column sliver
  // jt at + jt·kNr·kc: the layout pack_b gives a whole panel. A team keeps
  // every slab at its own place, since a fast thread may pack slab p+1 while
  // a slow one still reads slab p; a lone thread reuses slab 0's place,
  // which stays in cache.
  const int64_t npad = grid.cols * nr_tile;
  const int64_t num_slabs = (k + kc_blk - 1) / kc_blk;
  const bool par = parallel_kernels_allowed() && m * n * k >= (1 << 15);
  GemmWorkspace<T>& shared = thread_workspace<T>();
  T* const bpack =
      reserve(shared.bpack, npad * (par ? k : std::min(k, kc_blk)));
  int64_t* const state = reserve(shared.state, num_slabs * grid.cols);
  const int64_t call = ++shared.call;

#pragma omp parallel if (par)
  {
    // This thread's tiles: numbers [lo, hi), from (r0, c0) up to (r1, c1).
    const int64_t threads = omp_get_num_threads();
    const int64_t tid = omp_get_thread_num();
    const int64_t total = grid.count();
    const auto [r0, c0] = grid.locate(total * tid / threads);
    const auto [r1, c1] = grid.locate(total * (tid + 1) / threads);
    const int64_t row_begin = grid.by_col ? 0 : r0;
    const int64_t row_end =
        grid.by_col ? grid.rows : std::min(grid.rows, r1 + 1);
    const int64_t slab_step = threads > 1 ? npad * kc_blk : 0;
    // Column slivers [lo, hi) of row `it` that are this thread's.
    const auto cols_of = [&](int64_t it) {
      if (grid.by_col) {
        return std::pair<int64_t, int64_t>{
            c0 + (it < r0 ? 1 : 0),
            std::min(grid.cols, c1 + (it < r1 ? 1 : 0))};
      }
      return std::pair<int64_t, int64_t>{
          std::max(grid.first_col(it), it == r0 ? c0 : 0),
          it == r1 ? c1 : grid.cols};
    };
    T* const apack = reserve(thread_workspace<T>().apack,
                             mc_blk * std::min(k, kc_blk));
    alignas(32) T acc[mr_tile * nr_tile];
    int64_t col_lo[panel_rows];
    int64_t col_hi[panel_rows];

    for (int64_t jc = 0; jc < n; jc += nc_blk) {
      // The column slivers of this panel that our tiles read.
      const int64_t panel_lo = jc / nr_tile;
      const int64_t panel_hi = std::min(grid.cols, (jc + nc_blk) / nr_tile);
      int64_t need_lo = panel_hi;
      int64_t need_hi = panel_lo;
      for (int64_t it = row_begin; it < row_end; ++it) {
        const auto [lo, hi] = cols_of(it);
        if (std::max(lo, panel_lo) >= std::min(hi, panel_hi)) continue;
        need_lo = std::min(need_lo, std::max(lo, panel_lo));
        need_hi = std::max(need_hi, std::min(hi, panel_hi));
      }
      if (need_lo >= need_hi) continue;
      const int64_t need = need_hi - need_lo;

      for (int64_t pc = 0; pc < k; pc += kc_blk) {
        const int64_t kc = std::min(kc_blk, k - pc);
        T* const bslab = bpack + pc / kc_blk * slab_step;
        int64_t* const slab_state = state + pc / kc_blk * grid.cols;
        // Pack every needed B sliver no one has claimed yet, starting at a
        // per-thread offset so that the team's packers spread out.
        for (int64_t s = 0; s < need; ++s) {
          const int64_t jt = need_lo + (s + need * tid / threads) % need;
          SliverState sliver(slab_state[jt], call);
          if (!sliver.claim()) continue;
          const int64_t j0 = jt * nr_tile;
          pack_b(b, pc, kc, j0, std::min(nr_tile, n - j0), bslab + j0 * kc);
          sliver.publish();
        }
        bool b_ready = false;

        for (int64_t ib = row_begin; ib < row_end; ib += panel_rows) {
          const int64_t ie = std::min(ib + panel_rows, row_end);
          bool any = false;
          for (int64_t it = ib; it < ie; ++it) {
            const auto [lo, hi] = cols_of(it);
            col_lo[it - ib] = std::max(lo, need_lo);
            col_hi[it - ib] = std::min(hi, need_hi);
            any = any || col_lo[it - ib] < col_hi[it - ib];
          }
          if (!any) continue;
          const int64_t i_begin = ib * mr_tile;
          pack_a(a, i_begin, std::min(ie * mr_tile, m) - i_begin, pc, kc,
                 apack);
          // The other packers have had our A pack's time to finish.
          for (int64_t jt = need_lo; jt < need_hi && !b_ready; ++jt) {
            SliverState(slab_state[jt], call).wait_packed();
          }
          b_ready = true;
          for (int64_t jt = need_lo; jt < need_hi; ++jt) {
            const int64_t j0 = jt * nr_tile;
            const int64_t nr = std::min(nr_tile, n - j0);
            for (int64_t it = ib; it < ie; ++it) {
              if (jt < col_lo[it - ib] || jt >= col_hi[it - ib]) continue;
              const int64_t i0 = it * mr_tile;
              std::memset(acc, 0, sizeof(acc));
              microkernel(kc, apack + (i0 - i_begin) * kc, bslab + j0 * kc,
                          acc);
              write_tile(alpha, acc, c, ldc, i0, std::min(mr_tile, m - i0),
                         j0, nr, upper_only);
            }
          }
        }
      }
    }
  }
}

/// C(m×n, leading dim ldc) += alpha·op(A)·op(B) — raw-pointer convenience
/// wrapper used by the decomposition internals. `ta`/`tb` flag transposed
/// operands; `lda`/`ldb` are the *storage* leading dimensions.
template <typename T>
inline void gemm_accum(T alpha, const T* a, int64_t lda, bool ta, const T* b,
                       int64_t ldb, bool tb, T* c, int64_t ldc, int64_t m,
                       int64_t n, int64_t k) {
  gemm_driver<T>(alpha, OpViewT<T>{a, lda, ta}, OpViewT<T>{b, ldb, tb}, c,
                 ldc, m, n, k, /*upper_only=*/false);
}

}  // namespace dkfac::linalg::detail
