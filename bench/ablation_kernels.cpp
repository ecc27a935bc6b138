// Ablation: legacy scalar linalg kernels vs the packed micro-kernel rewrite.
//
// PR 5 replaced the row-panel scalar GEMM with a Goto-style packed,
// register-blocked micro-kernel (AVX2/FMA when DKFAC_NATIVE_ARCH is on),
// added a dedicated SYRK for the AᵀA/GᵀG factor statistics, and blocked /
// parallelized the Cholesky and eigensolve. This bench keeps a verbatim
// copy of the seed kernels ("legacy") and times both on the shapes the
// paper puts on the critical path (Table 1 / Fig 10): square GEMMs from the
// im2col path and the tall-skinny 4096×d AᵀA factor shape. Results land in
// BENCH_kernels.json so the kernel-perf trajectory is a recorded artifact.
//
// A second section times the kernels a ResNet-20 width-8 training step runs
// on every iteration — the K-FAC factor syrks and the conv weight-gradient
// gemms — at 1 and 2 OpenMP threads, so a schedule that stops scaling with
// the thread count shows up here. Every number is report-only.
//
// A third section times the element-wise glue around the conv GEMMs —
// im2col, col2im, ReLU and BatchNorm forward/backward — on the ResNet-20
// width-8 stage shapes at 1 and 2 threads, the reference loops of
// tests/nn/legacy_kernels.hpp against the library's layers.
//
// This file is compiled WITHOUT the native-arch flags (bench/ uses the
// default arch), so "legacy" is measured exactly as the seed built it.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "legacy_decomp.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/legacy_kernels.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dkfac;
using linalg::Trans;

// ---- verbatim seed kernels (PR 0 state of src/linalg/blas.cpp) ------------

void legacy_gemm(float alpha, const Tensor& a, Trans trans_a, const Tensor& b,
                 Trans trans_b, float beta, Tensor& c) {
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t k = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const int64_t n = trans_b == Trans::kNo ? b.dim(1) : b.dim(0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const int64_t lda = a.dim(1);
  const int64_t ldb = b.dim(1);
  if (beta != 1.0f) {
    if (beta == 0.0f) {
      c.zero_();
    } else {
      c.scale_(beta);
    }
  }
  constexpr int64_t kBlock = 64;
#pragma omp parallel for schedule(static)
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const int64_t k1 = std::min(k0 + kBlock, k);
      for (int64_t i = i0; i < i1; ++i) {
        float* crow = pc + i * n;
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float aval =
              alpha * (trans_a == Trans::kNo ? pa[i * lda + kk] : pa[kk * lda + i]);
          if (aval == 0.0f) continue;
          if (trans_b == Trans::kNo) {
            const float* brow = pb + kk * ldb;
            for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
          } else {
            const float* bcol = pb + kk;
            for (int64_t j = 0; j < n; ++j) crow[j] += aval * bcol[j * ldb];
          }
        }
      }
    }
  }
}

void legacy_gemv(float alpha, const Tensor& a, Trans trans_a, const Tensor& x,
                 float beta, Tensor& y) {
  const int64_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const int64_t k = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const int64_t lda = a.dim(1);
  for (int64_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const float aij =
          trans_a == Trans::kNo ? a.data()[i * lda + j] : a.data()[j * lda + i];
      acc += static_cast<double>(aij) * x[j];
    }
    y[i] = alpha * static_cast<float>(acc) + beta * y[i];
  }
}

Tensor legacy_transpose(const Tensor& a) {
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape{n, m});
  constexpr int64_t kBlock = 32;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
      const int64_t i1 = std::min(i0 + kBlock, m);
      const int64_t j1 = std::min(j0 + kBlock, n);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) {
          out.data()[j * m + i] = a.data()[i * n + j];
        }
      }
    }
  }
  return out;
}

// ---- measurement ----------------------------------------------------------

/// Median-of-repeats wall time for `fn`, after one untimed warm-up.
template <typename Fn>
double time_ms(Fn&& fn, int repeats) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start) * 1e3);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Row {
  std::string kernel;
  double legacy_ms = 0.0;
  double new_ms = 0.0;
  double flops = 0.0;  // 0 → report ms only
  int threads = 1;
};

double gflops(double flops, double ms) {
  return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
}

}  // namespace

int main() {
  // Pin to one thread: the recorded trajectory is a single-thread GFLOP/s
  // comparison, stable across CI runners with different core counts. Only
  // the training-kernel rows also run at 2 threads.
  omp_set_num_threads(1);
  std::printf("\n================================================================\n");
  std::printf("Ablation — legacy scalar kernels vs packed micro-kernel linalg\n");
  std::printf("================================================================\n");
  std::printf("threads pinned to 1 (single-thread kernel comparison); "
              "training-kernel rows at 1 and 2\n");

  std::vector<Row> rows;
  const int reps = 5;

  // Square GEMM (the im2col forward/backward shape). 512 is the acceptance
  // shape; 128/256 show the trend.
  for (int64_t n : {128, 256, 512}) {
    Rng rng(1);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor b = Tensor::randn(Shape{n, n}, rng);
    Tensor c(Shape{n, n});
    Row row{"gemm_nn_" + std::to_string(n), 0, 0,
            2.0 * static_cast<double>(n) * n * n};
    row.legacy_ms = time_ms(
        [&] { legacy_gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c); }, reps);
    row.new_ms = time_ms(
        [&] { linalg::gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c); }, reps);
    rows.push_back(row);
  }

  // The factor-statistics shape: AᵀA with A = [4096, d] (N·OH·OW patches ×
  // patch dim). Legacy pays strided reads on the transposed operand; the
  // packed kernel normalizes the transpose away, and syrk halves the flops.
  for (int64_t d : {27, 144, 288}) {
    const int64_t r = 4096;
    Rng rng(2);
    Tensor a = Tensor::randn(Shape{r, d}, rng);
    Tensor c(Shape{d, d});
    const double flops = 2.0 * static_cast<double>(r) * d * d;
    Row gemm_row{"gemm_ata_4096x" + std::to_string(d), 0, 0, flops};
    gemm_row.legacy_ms = time_ms(
        [&] {
          legacy_gemm(1.0f / r, a, Trans::kYes, a, Trans::kNo, 0.0f, c);
        },
        reps);
    gemm_row.new_ms = time_ms(
        [&] {
          linalg::gemm(1.0f / r, a, Trans::kYes, a, Trans::kNo, 0.0f, c);
        },
        reps);
    rows.push_back(gemm_row);

    Row syrk_row{"syrk_ata_4096x" + std::to_string(d), 0, 0, flops};
    syrk_row.legacy_ms = gemm_row.legacy_ms;  // legacy had no syrk: full gemm
    syrk_row.new_ms = time_ms(
        [&] { linalg::syrk(1.0f / r, a, Trans::kYes, 0.0f, c); }, reps);
    rows.push_back(syrk_row);
  }

  // gemv and transpose (satellite kernels).
  {
    const int64_t n = 1024;
    Rng rng(3);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor x = Tensor::randn(Shape{n}, rng);
    Tensor y(Shape{n});
    Row row{"gemv_n_1024", 0, 0, 2.0 * static_cast<double>(n) * n};
    row.legacy_ms =
        time_ms([&] { legacy_gemv(1.0f, a, Trans::kNo, x, 0.0f, y); }, reps);
    row.new_ms =
        time_ms([&] { linalg::gemv(1.0f, a, Trans::kNo, x, 0.0f, y); }, reps);
    rows.push_back(row);

    Row trow{"transpose_1024", 0, 0, 0.0};
    trow.legacy_ms = time_ms([&] { legacy_transpose(a); }, reps);
    trow.new_ms = time_ms([&] { linalg::transpose(a); }, reps);
    rows.push_back(trow);
  }

  // Decompositions (Table 1 critical path): blocked Cholesky + triangular
  // inverse and the blocked-Householder/divide-and-conquer eigensolve,
  // against the seed kernels (EISPACK tred2/tql2, unblocked Cholesky with
  // dense triangular solves) embedded in legacy_decomp.hpp.
  for (int64_t n : {128, 256}) {
    Rng rng(4);
    Tensor m = Tensor::randn(Shape{n, n}, rng);
    Tensor spd(Shape{n, n});
    linalg::syrk(1.0f, m, Trans::kYes, 0.0f, spd);
    linalg::add_diagonal(spd, 0.1f);
    Row inv_row{"spd_inverse_" + std::to_string(n), 0, 0, 0.0};
    inv_row.legacy_ms =
        time_ms([&] { bench_legacy::legacy_spd_inverse(spd); }, 3);
    inv_row.new_ms = time_ms([&] { linalg::spd_inverse(spd); }, 3);
    rows.push_back(inv_row);
    Row eig_row{"sym_eig_" + std::to_string(n), 0, 0, 0.0};
    eig_row.legacy_ms = time_ms([&] { bench_legacy::legacy_sym_eig(spd); }, 3);
    eig_row.new_ms = time_ms([&] { linalg::sym_eig(spd); }, 3);
    rows.push_back(eig_row);
  }

  // ResNet-20 width-8 training kernels at batch 32 on 16×16 inputs, at 1 and
  // 2 threads: the K-FAC A/G factor syrks (rows = N·OH·OW, d = factor dim)
  // and the conv weight gradient dW = grad_rowsᵀ·patches (out-channels ×
  // patch dim, reduced over the same rows).
  struct TrainShape {
    const char* kind;
    int64_t rows, m, n;  // syrk: m = n = d
  };
  const TrainShape train_shapes[] = {
      {"syrk_factor", 8192, 8, 8},     {"syrk_factor", 8192, 27, 27},
      {"syrk_factor", 8192, 72, 72},   {"syrk_factor", 2048, 144, 144},
      {"syrk_factor", 512, 288, 288},  {"gemm_conv_dw", 8192, 8, 27},
      {"gemm_conv_dw", 8192, 8, 72},   {"gemm_conv_dw", 2048, 16, 72},
      {"gemm_conv_dw", 2048, 16, 144}, {"gemm_conv_dw", 512, 32, 144},
      {"gemm_conv_dw", 512, 32, 288}};
  const int train_reps = 41;
  for (const TrainShape& shape : train_shapes) {
    const bool is_syrk = std::string(shape.kind) == "syrk_factor";
    Rng rng(5);
    const Tensor x = Tensor::randn(Shape{shape.rows, shape.n}, rng);
    const Tensor g = Tensor::randn(Shape{shape.rows, shape.m}, rng);
    Tensor c(Shape{shape.m, shape.n});
    const float scale = 1.0f / static_cast<float>(shape.rows);
    for (int threads : {1, 2}) {
      omp_set_num_threads(threads);
      Row row{std::string(shape.kind) + "_" + std::to_string(shape.rows) +
                  "x" + std::to_string(shape.m) + "x" + std::to_string(shape.n),
              0, 0,
              2.0 * static_cast<double>(shape.rows) * shape.m * shape.n,
              threads};
      const Tensor& lhs = is_syrk ? x : g;
      row.legacy_ms = time_ms(
          [&] { legacy_gemm(scale, lhs, Trans::kYes, x, Trans::kNo, 0.0f, c); },
          train_reps);
      row.new_ms = time_ms(
          [&] {
            if (is_syrk) {
              linalg::syrk(scale, x, Trans::kYes, 0.0f, c);
            } else {
              linalg::gemm(scale, g, Trans::kYes, x, Trans::kNo, 0.0f, c);
            }
          },
          train_reps);
      rows.push_back(row);
    }
  }
  omp_set_num_threads(1);

  // nn glue on the ResNet-20 width-8 stage inputs at batch 32: stage s of
  // 1..3 is [32, 8·2^(s−1), 16/2^(s−1), 16/2^(s−1)], through a 3×3 s1 p1 conv.
  // Legacy is the reference loop; new is the library's kernel, or its layer
  // in a steady step (kept buffers already sized).
  const int glue_reps = 41;
  for (int stage = 1; stage <= 3; ++stage) {
    const int64_t channels = 8 << (stage - 1), side = 16 >> (stage - 1);
    const Shape shape{32, channels, side, side};
    const std::string suffix = "_s" + std::to_string(stage) + "_32x" +
                               std::to_string(channels) + "x" +
                               std::to_string(side) + "x" + std::to_string(side);
    Rng rng(6);
    const Tensor x = Tensor::randn(shape, rng);
    const Tensor dy = Tensor::randn(shape, rng);
    const Tensor grad_cols = Tensor::randn(nn::im2col(x, 3, 1, 1).shape(), rng);
    nn::ReLU relu;
    nn::BatchNorm2d bn(channels);
    std::vector<uint8_t> mask;
    nn::legacy::BatchNorm ref;
    ref.gamma = Tensor::ones(Shape{channels});
    ref.beta = ref.gamma_grad = ref.beta_grad = ref.running_mean =
        Tensor(Shape{channels});
    ref.running_var = Tensor::ones(Shape{channels});
    for (int threads : {1, 2}) {
      omp_set_num_threads(threads);
      const auto add = [&](const char* kernel, auto&& legacy, auto&& current) {
        Row row{kernel + suffix, 0, 0, 0.0, threads};
        row.legacy_ms = time_ms(legacy, glue_reps);
        row.new_ms = time_ms(current, glue_reps);
        rows.push_back(row);
      };
      add("im2col", [&] { nn::legacy::im2col(x, 3, 1, 1); },
          [&] { nn::im2col(x, 3, 1, 1); });
      add("col2im", [&] { nn::legacy::col2im(grad_cols, shape, 3, 1, 1); },
          [&] { nn::col2im(grad_cols, shape, 3, 1, 1); });
      add("relu_fwd", [&] { nn::legacy::relu_forward(x, mask); },
          [&] { relu.forward(x); });
      add("relu_bwd", [&] { nn::legacy::relu_backward(dy, mask); },
          [&] { relu.backward(dy); });
      add("batchnorm_fwd", [&] { nn::legacy::batchnorm_forward(ref, x, true); },
          [&] { bn.forward(x); });
      add("batchnorm_bwd", [&] { nn::legacy::batchnorm_backward(ref, dy); },
          [&] { bn.backward(dy); });
    }
  }
  omp_set_num_threads(1);

  // ---- report -------------------------------------------------------------
  std::printf("\n%-28s %7s %12s %12s %10s %10s %9s\n", "kernel", "threads",
              "legacy ms", "new ms", "legacy GF", "new GF", "speedup");
  for (const Row& row : rows) {
    const double speedup =
        row.legacy_ms > 0.0 && row.new_ms > 0.0 ? row.legacy_ms / row.new_ms : 0.0;
    std::printf("%-28s %7d %12.3f %12.3f %10.2f %10.2f %8.2fx\n",
                row.kernel.c_str(), row.threads, row.legacy_ms, row.new_ms,
                gflops(row.flops, row.legacy_ms), gflops(row.flops, row.new_ms),
                speedup);
  }

  FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"ablation_kernels\",\n");
    std::fprintf(json, "  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double speedup =
          row.legacy_ms > 0.0 && row.new_ms > 0.0 ? row.legacy_ms / row.new_ms
                                                  : 0.0;
      std::fprintf(json,
                   "    {\"kernel\": \"%s\", \"threads\": %d, "
                   "\"legacy_ms\": %.4f, \"new_ms\": %.4f, "
                   "\"legacy_gflops\": %.3f, \"new_gflops\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   row.kernel.c_str(), row.threads, row.legacy_ms, row.new_ms,
                   gflops(row.flops, row.legacy_ms),
                   gflops(row.flops, row.new_ms), speedup,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_kernels.json\n");
  }
  return 0;
}
