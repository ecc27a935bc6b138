// In-memory span and collective recorder of the benchmark's traced run,
// plus the Communicator decorator that feeds it.
//
// One Recorder per rank, written only by that rank's main thread. Spans are
// opened around the benchmark's own calls into the library (no span is
// emitted from inside the library), and every collective the rank issues
// through TracingComm becomes a child span plus a CommRecord carrying its
// per-rank sequence number, so the analysis can line up the same
// collective across ranks on the shared monotonic clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"
#include "comm/communicator.hpp"

namespace perfbench {

/// Nanoseconds on the system-wide monotonic clock (steady_clock is
/// CLOCK_MONOTONIC on Linux, so forked rank processes share it).
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into Recorder::spans, -1 = top level
  int64_t step = -1;  // global step id, -1 outside steps
  AllocCounts allocs_at_start;
  AllocCounts allocs_at_end;
};

struct CommRecord {
  uint64_t seq = 0;  // per-rank collective sequence number
  const char* op = "";    // allreduce | allgather | broadcast | barrier
  const char* kind = "";  // grad | factor | decomp | other
  int64_t entry_ns = 0;
  int64_t exit_ns = 0;
  uint64_t bytes = 0;  // CommStats payload convention
  uint64_t wire_sent_bytes = 0;
  int span = -1;
  bool failed = false;
};

class Recorder {
 public:
  Recorder() {
    spans.reserve(1 << 16);
    comms.reserve(1 << 15);
    stack_.reserve(16);
  }

  int open(const char* name) {
    SpanRecord s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.step = step;
    s.allocs_at_start = thread_allocs();
    s.start_ns = now_ns();
    spans.push_back(s);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    SpanRecord& s = spans[static_cast<size_t>(index)];
    s.end_ns = now_ns();
    s.allocs_at_end = thread_allocs();
    stack_.pop_back();
  }

  /// Name of the innermost open span ("" when none).
  std::string_view current() const {
    return stack_.empty() ? std::string_view{}
                          : spans[static_cast<size_t>(stack_.back())].name;
  }

  int64_t step = -1;
  std::vector<SpanRecord> spans;
  std::vector<CommRecord> comms;

 private:
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Recorder& rec, const char* name) : rec_(rec), index_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& rec_;
  int index_;
};

/// Forwards every virtual of Communicator to `inner` unchanged — so the
/// backend's cost model (fusion capacity, eager thresholds, the socket
/// algorithm choice) and its counters are exactly those of an undecorated
/// run — and records each call. A collective is classified by the span it
/// is issued from: gradient sync → grad; inside the preconditioner step an
/// allreduce is the factor exchange and an allgather the decomposition
/// exchange; everything else (initial broadcast, epoch statistics,
/// evaluation) is other.
class TracingComm final : public dkfac::comm::Communicator {
 public:
  TracingComm(dkfac::comm::Communicator& inner, Recorder& rec)
      : inner_(inner), rec_(rec) {}

  using Communicator::allreduce;
  using Communicator::broadcast;

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  const dkfac::comm::CostModel& cost_model() const override {
    return inner_.cost_model();
  }

  void allreduce(std::span<float> data, dkfac::comm::ReduceOp op) override {
    call("allreduce", data.size_bytes(), [&] { inner_.allreduce(data, op); });
  }
  std::vector<float> allgather(std::span<const float> send) override {
    std::vector<float> out;
    call("allgather", send.size_bytes(), [&] { out = inner_.allgather(send); });
    return out;
  }
  void allgather_into(std::span<const float> send,
                      std::vector<float>& recv) override {
    call("allgather", send.size_bytes(),
         [&] { inner_.allgather_into(send, recv); });
  }
  void broadcast(std::span<float> data, int root) override {
    call("broadcast", rank() == root ? data.size_bytes() : 0,
         [&] { inner_.broadcast(data, root); });
  }
  void barrier() override {
    call("barrier", 0, [&] { inner_.barrier(); });
  }

  uint64_t failed_calls() const { return failed_calls_; }

 private:
  const char* kind_of(std::string_view op) const {
    const std::string_view span = rec_.current();
    if (span == "comm.grad_sync") return "grad";
    if (span == "kfac.step") {
      if (op == "allreduce") return "factor";
      if (op == "allgather") return "decomp";
    }
    return "other";
  }

  template <typename Fn>
  void call(const char* op, uint64_t bytes, Fn&& fn) {
    CommRecord r;
    r.seq = seq_++;
    r.op = op;
    r.kind = kind_of(op);
    r.bytes = bytes;
    const uint64_t wire_before = inner_.stats().wire_sent_bytes;
    r.span = rec_.open(op);
    try {
      fn();
    } catch (...) {
      r.failed = true;
      ++failed_calls_;
      finish(r, wire_before);
      throw;
    }
    finish(r, wire_before);
  }

  void finish(CommRecord& r, uint64_t wire_before) {
    rec_.close(r.span);
    const SpanRecord& s = rec_.spans[static_cast<size_t>(r.span)];
    r.entry_ns = s.start_ns;
    r.exit_ns = s.end_ns;
    r.wire_sent_bytes = inner_.stats().wire_sent_bytes - wire_before;
    rec_.comms.push_back(r);
  }

  dkfac::comm::Communicator& inner_;
  Recorder& rec_;
  uint64_t seq_ = 0;
  uint64_t failed_calls_ = 0;
};

/// Minimal JSON object/array writer for the per-rank result files.
class Json {
 public:
  Json& key(std::string_view k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& str(std::string_view v) {
    sep();
    out_ += '"';
    out_ += v;
    out_ += '"';
    return *this;
  }
  Json& num(int64_t v) { return put(std::to_string(v)); }
  Json& num(uint64_t v) { return put(std::to_string(v)); }
  Json& num(int v) { return put(std::to_string(v)); }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return put(buf);
  }
  Json& boolean(bool v) { return put(v ? "true" : "false"); }
  Json& begin_obj() { return open('{'); }
  Json& end_obj() { return close('}'); }
  Json& begin_arr() { return open('['); }
  Json& end_arr() { return close(']'); }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  Json& put(std::string_view v) {
    sep();
    out_ += v;
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }

  std::string out_;
  bool fresh_ = true;
};

}  // namespace perfbench
