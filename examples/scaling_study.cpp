// Cluster scaling study: plan a large-scale training run before buying the
// GPU hours. Uses the calibrated performance model to project
// time-to-solution for SGD vs the two distributed K-FAC variants on the
// real ResNet architectures, and recommends an update interval.
//
//   usage: scaling_study [depth] [gpus]   (defaults: 50 256)
//
// depth is one of sim::resnet_imagenet_arch's depths; the table doubles the
// GPU count from 16 up to gpus. Bad input exits 2.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "sim/perf_model.hpp"

namespace {

[[noreturn]] void reject(const char* arg, const char* expected,
                         const char* got, const char* detail = nullptr) {
  std::fprintf(stderr, "scaling_study: %s: expected %s, got '%s'%s%s%s\n",
               arg, expected, got, detail ? " (" : "", detail ? detail : "",
               detail ? ")" : "");
  std::exit(2);
}

int integer(const char* arg, const char* text) {
  int value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) reject(arg, "an integer", text);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dkfac;
  using kfac::DistributionStrategy;

  if (argc > 3) reject("arguments", "at most [depth] [gpus]", argv[3]);
  const int depth = argc > 1 ? integer("depth", argv[1]) : 50;
  const int max_gpus = argc > 2 ? integer("gpus", argv[2]) : 256;
  if (max_gpus < 16) reject("gpus", "an integer >= 16", argv[2]);
  constexpr int64_t kSamples = 1'281'167;

  sim::ArchInfo arch;
  try {
    arch = sim::resnet_imagenet_arch(depth);
  } catch (const Error& e) {
    reject("depth", "an ImageNet ResNet depth", argv[1], e.what());
  }
  sim::ClusterSim cluster(std::move(arch));
  std::printf("scaling study: ResNet-%d (%lld params, %zu K-FAC layers), "
              "ImageNet-1k, batch 32/GPU\n\n",
              depth, static_cast<long long>(cluster.arch().total_params()),
              cluster.arch().layers.size());

  std::printf("%-6s %10s %12s %12s %14s %16s\n", "GPUs", "SGD(min)",
              "K-FAC-lw", "K-FAC-opt", "best interval", "eig imbalance");
  for (int gpus = 16; gpus <= max_gpus; gpus *= 2) {
    const double sgd = cluster.sgd_time_to_solution_s(gpus, 90, kSamples) / 60.0;

    // Sweep the update interval and keep the fastest K-FAC-opt setting.
    double best_opt = 1e300;
    int best_interval = 0;
    for (int interval : {100, 250, 500, 1000, 2000}) {
      const double t = cluster.kfac_time_to_solution_s(
          gpus, DistributionStrategy::kFactorWise, 55, kSamples,
          std::max(1, interval / 10), interval);
      if (t < best_opt) {
        best_opt = t;
        best_interval = interval;
      }
    }
    const int paper_interval = sim::ClusterSim::update_interval_for_scale(gpus);
    const double lw = cluster.kfac_time_to_solution_s(
                          gpus, DistributionStrategy::kLayerWise, 55, kSamples,
                          std::max(1, paper_interval / 10), paper_interval) / 60.0;

    const auto eig = cluster.worker_eig_seconds(gpus, DistributionStrategy::kFactorWise);
    const double eig_max = *std::max_element(eig.begin(), eig.end());
    const double eig_mean =
        std::accumulate(eig.begin(), eig.end(), 0.0) / static_cast<double>(eig.size());

    std::printf("%-6d %10.1f %12.1f %12.1f %14d %15.2fx\n", gpus, sgd, lw,
                best_opt / 60.0, best_interval, eig_max / eig_mean);
  }

  std::printf("\nreading the table: 'eig imbalance' is slowest/mean worker "
              "eigendecomposition time under round-robin placement — the "
              "paper's §VI-C4 bottleneck. Try the size-balanced policy via "
              "bench/ablation_placement_policy.\n");
  return 0;
}
