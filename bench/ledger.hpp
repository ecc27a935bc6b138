// LEDGER.jsonl: the one file the kernel, trace and elastic benches record
// their results in.
//
// One JSON object per line, keyed by (bench, config, metric):
//
//   {"schema":1,"bench":"ablation_kernels","config":"sym_eig_256/t1",
//    "metric":"ms","value":14.41,"norm":13.5}
//
// Every timing (metric "ms" or "*_ms") also carries `norm`: the value
// divided by the same run's yardstick, a 1-thread fp64 GEMM through the
// packed driver. Absolute times drift with the machine's load; the ratio to
// a kernel timed in the same binary minutes earlier is what compares across
// runs. Each run also records `config:"machine"` rows: CPU model, cores,
// whether the AVX2/FMA micro-kernel is built in, and the yardstick.
//
// A bench run replaces only its own lines, in place, so benches can be
// rerun in any order and the other benches' lines stay byte-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace dkfac::bench {

/// Median-of-repeats wall time of `fn` in ms, after one untimed warm-up.
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

/// Median ms of an n×n×n fp64 GEMM through the packed driver, on the
/// calling thread's current OpenMP team. Built in one translation unit with
/// the linalg kernels' arch flags, so every bench times the same machine
/// code the decompositions run.
double dgemm_ms(int64_t n, int repeats);

/// The yardstick: dgemm_ms at n = 256 on one thread.
double yardstick_ms();

class Ledger {
 public:
  /// Collects the rows of one run of `bench`, starting with its machine
  /// rows; every timing is normalised by `yardstick_ms`.
  Ledger(std::string bench, double yardstick_ms);

  void add(std::string_view config, std::string_view metric, double value);
  void add(std::string_view config, std::string_view metric,
           std::string_view text);

  /// Replaces this bench's lines in `path` with the collected rows — where
  /// its first old line stood, or at the end — and keeps every other line
  /// byte for byte. Throws dkfac::Error if the file cannot be written.
  void write(const std::string& path = "LEDGER.jsonl") const;

 private:
  std::string bench_;
  double yardstick_ms_;
  std::vector<std::string> lines_;
};

}  // namespace dkfac::bench
