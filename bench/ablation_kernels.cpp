// Ablation: the linalg and nn kernels on the shapes the paper puts on the
// critical path (Table 1 / Fig 10), recorded as ablation_kernels rows of
// LEDGER.jsonl. Every number is report-only; a kernel change is judged by
// rerunning this bench on the parent commit and on the change.
//
//  1. Single-thread kernels: square GEMMs from the im2col path, the
//     tall-skinny 4096×d AᵀA factor shape through gemm and syrk, gemv and
//     transpose.
//  2. Decompositions at n = 64…512 on one thread, each against a same-order
//     fp64 gemm through the packed driver (dgemm_<n>): the decomposition's
//     classical flop count is converted to "ms at gemm speed" — sym_eig ≈
//     9n³ flops (4/3 n³ reduction + 4/3 n³ orthogonal-matrix formation +
//     ~6n³ for the tridiagonal eigensolve with vectors), spd_inverse ≈ n³
//     (potrf + trtri + lauum at n³/3 each), gemm = 2n³ — and
//     ratio_vs_gemm_equiv is the measured time over that.
//  3. The kernels a ResNet-20 width-8 training step runs every iteration —
//     the K-FAC factor syrks and the conv weight-gradient gemms — at 1 and 2
//     OpenMP threads, so a schedule that stops scaling shows up.
//  4. The element-wise glue around the conv GEMMs — im2col, col2im, ReLU
//     and BatchNorm forward/backward — on the ResNet-20 width-8 stage shapes
//     at 1 and 2 threads.
//  5. The batched factor-decomposition scheduler against a plain serial
//     loop over a ResNet-ish factor multiset, at 1, 2 and 4 threads (capped
//     at the core count). bitwise_match is the load-bearing bit: batched
//     and serial results must be identical.
//
// Configs are "<kernel>/t<threads>".
#include <omp.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "linalg/batch.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dkfac;
using linalg::Trans;

double gflops(double flops, double ms) {
  return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
}

Tensor make_spd(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor m = Tensor::randn(Shape{n, n}, rng);
  Tensor spd(Shape{n, n});
  linalg::syrk(1.0f / static_cast<float>(n), m, Trans::kYes, 0.0f, spd);
  linalg::add_diagonal(spd, 0.1f);
  return spd;
}

std::string config(const std::string& kernel, int threads) {
  return kernel + "/t" + std::to_string(threads);
}

}  // namespace

int main() {
  const double yardstick = bench::yardstick_ms();
  bench::Ledger ledger("ablation_kernels", yardstick);
  std::printf("\n================================================================\n");
  std::printf("Ablation — linalg and nn kernels (yardstick %.3f ms)\n",
              yardstick);
  std::printf("================================================================\n");
  std::printf("\n%-32s %10s %10s %10s\n", "config", "ms", "norm", "GFLOP/s");

  // One ms row (plus GFLOP/s when the flop count is known), printed as it
  // is recorded.
  const auto record = [&](const std::string& cfg, double ms, double flops) {
    ledger.add(cfg, "ms", ms);
    if (flops > 0.0) ledger.add(cfg, "gflops", gflops(flops, ms));
    std::printf("%-32s %10.3f %10.3f", cfg.c_str(), ms, ms / yardstick);
    if (flops > 0.0) {
      std::printf(" %10.2f\n", gflops(flops, ms));
    } else {
      std::printf(" %10s\n", "-");
    }
  };

  omp_set_num_threads(1);
  const int reps = 5;

  // ---- 1. single-thread kernels --------------------------------------------
  for (int64_t n : {128, 256, 512}) {
    Rng rng(1);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor b = Tensor::randn(Shape{n, n}, rng);
    Tensor c(Shape{n, n});
    record(config("gemm_nn_" + std::to_string(n), 1),
           bench::time_ms(
               [&] { linalg::gemm(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c); },
               reps),
           2.0 * static_cast<double>(n) * n * n);
  }
  for (int64_t d : {27, 144, 288}) {
    const int64_t r = 4096;
    Rng rng(2);
    Tensor a = Tensor::randn(Shape{r, d}, rng);
    Tensor c(Shape{d, d});
    const double flops = 2.0 * static_cast<double>(r) * d * d;
    const std::string shape = "_ata_4096x" + std::to_string(d);
    record(config("gemm" + shape, 1),
           bench::time_ms(
               [&] {
                 linalg::gemm(1.0f / r, a, Trans::kYes, a, Trans::kNo, 0.0f, c);
               },
               reps),
           flops);
    record(config("syrk" + shape, 1),
           bench::time_ms(
               [&] { linalg::syrk(1.0f / r, a, Trans::kYes, 0.0f, c); }, reps),
           flops);
  }
  {
    const int64_t n = 1024;
    Rng rng(3);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor x = Tensor::randn(Shape{n}, rng);
    Tensor y(Shape{n});
    record(config("gemv_n_1024", 1),
           bench::time_ms(
               [&] { linalg::gemv(1.0f, a, Trans::kNo, x, 0.0f, y); }, reps),
           2.0 * static_cast<double>(n) * n);
    record(config("transpose_1024", 1),
           bench::time_ms([&] { linalg::transpose(a); }, reps), 0.0);
  }

  // ---- 2. decompositions against their gemm-flop equivalent ----------------
  ledger.add("flop_model", "sym_eig", "9n^3");
  ledger.add("flop_model", "spd_inverse", "n^3 (potrf+trtri+lauum)");
  ledger.add("flop_model", "gemm", "2n^3");
  for (int64_t n : {64, 128, 256, 512}) {
    const double n3 = static_cast<double>(n) * n * n;
    const int decomp_reps = n >= 512 ? 1 : 3;
    const Tensor spd = make_spd(n, 4);
    const double gemm_ms = bench::dgemm_ms(n, decomp_reps);
    record(config("dgemm_" + std::to_string(n), 1), gemm_ms, 2.0 * n3);
    const auto decomp = [&](const char* kernel, double flops, auto&& fn) {
      const std::string cfg = config(kernel + ("_" + std::to_string(n)), 1);
      const double ms = bench::time_ms(fn, decomp_reps);
      const double equiv_ms = gemm_ms * flops / (2.0 * n3);
      record(cfg, ms, flops);
      ledger.add(cfg, "gemm_equiv_ms", equiv_ms);
      ledger.add(cfg, "ratio_vs_gemm_equiv", ms / equiv_ms);
    };
    decomp("sym_eig", 9.0 * n3, [&] { linalg::sym_eig(spd); });
    decomp("spd_inverse", n3, [&] { linalg::spd_inverse(spd); });
  }

  // ---- 3. ResNet-20 width-8 training kernels at 1 and 2 threads ------------
  // Batch 32 on 16×16 inputs: the K-FAC A/G factor syrks (rows = N·OH·OW,
  // d = factor dim) and the conv weight gradient dW = grad_rowsᵀ·patches
  // (out-channels × patch dim, reduced over the same rows).
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
    const std::string kernel = std::string(shape.kind) + "_" +
                               std::to_string(shape.rows) + "x" +
                               std::to_string(shape.m) + "x" +
                               std::to_string(shape.n);
    for (int threads : {1, 2}) {
      omp_set_num_threads(threads);
      record(config(kernel, threads),
             bench::time_ms(
                 [&] {
                   if (is_syrk) {
                     linalg::syrk(scale, x, Trans::kYes, 0.0f, c);
                   } else {
                     linalg::gemm(scale, g, Trans::kYes, x, Trans::kNo, 0.0f, c);
                   }
                 },
                 train_reps),
             2.0 * static_cast<double>(shape.rows) * shape.m * shape.n);
    }
  }

  // ---- 4. nn glue at 1 and 2 threads ---------------------------------------
  // Stage s of 1..3 of ResNet-20 width 8 at batch 32 is
  // [32, 8·2^(s−1), 16/2^(s−1), 16/2^(s−1)], through a 3×3 s1 p1 conv. The
  // layers run a steady step (kept buffers already sized).
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
    for (int threads : {1, 2}) {
      omp_set_num_threads(threads);
      const auto glue = [&](const char* kernel, auto&& fn) {
        record(config(kernel + suffix, threads), bench::time_ms(fn, glue_reps),
               0.0);
      };
      glue("im2col", [&] { nn::im2col(x, 3, 1, 1); });
      glue("col2im", [&] { nn::col2im(grad_cols, shape, 3, 1, 1); });
      glue("relu_fwd", [&] { relu.forward(x); });
      glue("relu_bwd", [&] { relu.backward(dy); });
      glue("batchnorm_fwd", [&] { bn.forward(x); });
      glue("batchnorm_bwd", [&] { bn.backward(dy); });
    }
  }

  // ---- 5. batched vs serial factor decompositions --------------------------
  // A ResNet-ish rank's factor multiset: many small A/G factors, a couple of
  // large ones. The serial reference decomposes them one at a time (each
  // free to use intra-matrix parallelism); the scheduler overlaps the small
  // ones across the team instead.
  const std::vector<int64_t> dims{27,  64,  64,  73,  128, 144, 147,
                                  160, 192, 256, 288, 512, 576};
  std::vector<Tensor> factors;
  factors.reserve(dims.size());
  for (size_t i = 0; i < dims.size(); ++i) {
    factors.push_back(make_spd(dims[i], 10 + i));
  }
  std::printf("\n%-16s %10s %10s %8s %6s %6s %8s\n", "config", "serial ms",
              "batched ms", "speedup", "intra", "inter", "bitwise");
  for (int threads : {1, 2, 4}) {
    if (threads > omp_get_num_procs()) break;
    omp_set_num_threads(threads);
    std::vector<linalg::SymEig> serial_out(dims.size());
    std::vector<linalg::SymEig> batched_out(dims.size());
    const double serial_ms = bench::time_ms(
        [&] {
          for (size_t i = 0; i < factors.size(); ++i) {
            serial_out[i] = linalg::sym_eig(factors[i]);
          }
        },
        3);
    linalg::BatchReport report;
    const double batched_ms = bench::time_ms(
        [&] {
          std::vector<linalg::BatchTask> tasks;
          tasks.reserve(factors.size());
          for (size_t i = 0; i < factors.size(); ++i) {
            tasks.push_back({dims[i], [&, i] {
                               batched_out[i] = linalg::sym_eig(factors[i]);
                             }});
          }
          report = linalg::run_decomposition_batch(tasks);
        },
        3);
    bool bitwise = true;
    for (size_t i = 0; i < dims.size(); ++i) {
      const size_t d = static_cast<size_t>(dims[i]);
      bitwise = bitwise &&
                std::memcmp(serial_out[i].values.data(),
                            batched_out[i].values.data(),
                            d * sizeof(float)) == 0 &&
                std::memcmp(serial_out[i].vectors.data(),
                            batched_out[i].vectors.data(),
                            d * d * sizeof(float)) == 0;
    }
    const std::string cfg = config("decomp_batch", threads);
    const double speedup = batched_ms > 0.0 ? serial_ms / batched_ms : 0.0;
    ledger.add(cfg, "factors", static_cast<double>(dims.size()));
    ledger.add(cfg, "serial_ms", serial_ms);
    ledger.add(cfg, "batched_ms", batched_ms);
    ledger.add(cfg, "speedup", speedup);
    ledger.add(cfg, "intra_tasks", static_cast<double>(report.intra_tasks));
    ledger.add(cfg, "inter_tasks", static_cast<double>(report.inter_tasks));
    ledger.add(cfg, "bitwise_match", bitwise ? 1.0 : 0.0);
    std::printf("%-16s %10.2f %10.2f %7.2fx %6lld %6lld %8s\n", cfg.c_str(),
                serial_ms, batched_ms, speedup,
                static_cast<long long>(report.intra_tasks),
                static_cast<long long>(report.inter_tasks),
                bitwise ? "true" : "false");
  }

  ledger.write();
  return 0;
}
