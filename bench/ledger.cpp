// LEDGER.jsonl writer and the yardstick GEMM. bench/CMakeLists.txt builds
// this file with the linalg kernels' arch flags (see ledger.hpp).
#include "ledger.hpp"

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "linalg/gemm_driver.hpp"

namespace dkfac::bench {
namespace {

/// Ledger numbers carry 6 significant digits.
std::string number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", x);
  return buf;
}

/// `x` as it reads back from the ledger.
double rounded(double x) { return std::strtod(number(x).c_str(), nullptr); }

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool is_timing(std::string_view metric) {
  return metric == "ms" || metric.ends_with("_ms");
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (!line.starts_with("model name")) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The bench a ledger line belongs to ("" if the line names none).
std::string_view bench_of(std::string_view line) {
  constexpr std::string_view kKey = "\"bench\":\"";
  const size_t begin = line.find(kKey);
  if (begin == std::string_view::npos) return {};
  const size_t start = begin + kKey.size();
  const size_t end = line.find('"', start);
  return end == std::string_view::npos ? std::string_view{}
                                       : line.substr(start, end - start);
}

}  // namespace

double dgemm_ms(int64_t n, int repeats) {
  const size_t size = static_cast<size_t>(n * n);
  std::vector<double> a(size), b(size), c(size, 0.0);
  for (size_t i = 0; i < size; ++i) {
    a[i] = 1.0 + 1e-6 * static_cast<double>(i % 97);
    b[i] = 1.0 - 1e-6 * static_cast<double>(i % 89);
  }
  return time_ms(
      [&] {
        linalg::detail::gemm_accum<double>(1.0, a.data(), n, false, b.data(),
                                           n, false, c.data(), n, n, n, n);
      },
      repeats);
}

double yardstick_ms() {
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const double ms = dgemm_ms(256, 9);
  omp_set_num_threads(threads);
  return ms;
}

Ledger::Ledger(std::string bench, double yardstick_ms)
    : bench_(std::move(bench)), yardstick_ms_(rounded(yardstick_ms)) {
  add("machine", "cpu_model", cpu_model());
  add("machine", "cores", static_cast<double>(omp_get_num_procs()));
#ifdef DKFAC_MICROKERNEL_AVX2
  add("machine", "native_arch", 1.0);
#else
  add("machine", "native_arch", 0.0);
#endif
  add("machine", "yardstick_ms", yardstick_ms_);
}

void Ledger::add(std::string_view config, std::string_view metric,
                 double value) {
  std::string line = "{\"schema\":1,\"bench\":" + quoted(bench_) +
                     ",\"config\":" + quoted(config) +
                     ",\"metric\":" + quoted(metric) +
                     ",\"value\":" + number(value);
  if (is_timing(metric)) {
    line += ",\"norm\":" + number(rounded(value) / yardstick_ms_);
  }
  lines_.push_back(line + "}");
}

void Ledger::add(std::string_view config, std::string_view metric,
                 std::string_view text) {
  lines_.push_back("{\"schema\":1,\"bench\":" + quoted(bench_) +
                   ",\"config\":" + quoted(config) +
                   ",\"metric\":" + quoted(metric) +
                   ",\"value\":" + quoted(text) + "}");
}

void Ledger::write(const std::string& path) const {
  std::vector<std::string> out;
  bool placed = false;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (bench_of(line) != bench_) {
      out.push_back(std::move(line));
    } else if (!placed) {
      out.insert(out.end(), lines_.begin(), lines_.end());
      placed = true;
    }
  }
  in.close();
  if (!placed) out.insert(out.end(), lines_.begin(), lines_.end());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    for (const std::string& line : out) file << line << '\n';
    DKFAC_CHECK(file.good()) << "cannot write " << tmp;
  }
  DKFAC_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0)
      << "cannot replace " << path;
  std::printf("wrote %zu %s rows to %s\n", lines_.size(), bench_.c_str(),
              path.c_str());
}

}  // namespace dkfac::bench
