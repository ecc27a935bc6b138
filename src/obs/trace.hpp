// Low-overhead phase tracing: per-thread ring buffers of timestamped
// events, exported as Chrome trace_event JSON (Perfetto-loadable).
//
// Design contract, in priority order:
//   1. Compiled out (-DDKFAC_TRACE_ENABLED=0): every DKFAC_TRACE_* macro
//      collapses to nothing — zero code, zero data.
//   2. Runtime off (the default): each macro costs one relaxed atomic
//      load and a branch. Nothing else runs — no interning, no clock
//      read, no buffer touch.
//   3. Runtime on: emitting an event is a steady_clock read plus a store
//      into this thread's preallocated ring. The hot path never takes a
//      lock and never allocates once a thread's ring exists and its names
//      are interned (both happen on first use — warm-up, by the same
//      definition the comm arenas use). A full ring overwrites the OLDEST
//      events and counts the drops; recording never blocks the caller.
//
// Event model: scoped spans (begin/end pairs via SpanScope / the
// DKFAC_TRACE_SCOPE macros, up to two u64 args attached at close),
// instant events, and counter samples. Names are interned once into
// stable u32 ids; macro call sites cache the id in a function-local
// static so steady-state emission never looks at the intern table.
//
// The trace is an event log only: per-name totals are computed from a
// snapshot (or the exported JSON), and no metric is derived from it — the
// metrics stream (obs/metrics.hpp) reads the stat structs instead.
//
// Threading: emission is wait-free per thread (each thread owns its
// ring). enable()/disable()/clear()/set_epoch_now() and snapshot() are
// control-plane calls: they may race emission without corrupting memory
// (indices are atomic), but a snapshot taken while writers are active can
// observe a partially-written newest event — quiesce writers (the
// trainer drains its executor) before exporting.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#ifndef DKFAC_TRACE_ENABLED
#define DKFAC_TRACE_ENABLED 1
#endif

namespace dkfac::obs {

/// steady_clock ticks (monotonic; on Linux CLOCK_MONOTONIC, shared by all
/// processes on a host — which is what makes the multi-rank merge line up).
using Ticks = uint64_t;

inline Ticks now_ticks() {
  return static_cast<Ticks>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// Seconds per steady_clock tick.
constexpr double kSecondsPerTick =
    static_cast<double>(std::chrono::steady_clock::period::num) /
    static_cast<double>(std::chrono::steady_clock::period::den);

enum class EventType : uint8_t {
  kBegin,    ///< span opened
  kEnd,      ///< span closed (carries the span's args)
  kInstant,  ///< point event
  kCounter,  ///< counter sample (value in arg1)
};

struct TraceEvent {
  Ticks ticks = 0;
  uint32_t name = 0;  ///< interned id (see Tracer::intern)
  EventType type = EventType::kInstant;
  uint32_t arg1_name = 0;  ///< 0 = no arg
  uint32_t arg2_name = 0;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};

class Tracer {
 public:
  /// The process-wide tracer. Never destroyed (trivially leaked at exit)
  /// so late-exiting threads can always reach their buffers.
  static Tracer& instance();

  /// Hot-path gate: one relaxed atomic load.
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Starts recording. `ring_capacity` is events per thread; existing
  /// rings are re-sized (call while no thread is emitting). Also stamps
  /// the export epoch to "now" so timestamps start near zero —
  /// set_epoch_now() after a cross-rank barrier refines it for merges.
  void enable(size_t ring_capacity = kDefaultRingCapacity);

  /// Stops recording. Buffers and their contents are retained for export.
  void disable();

  /// Drops all recorded events and drop counters. Interned
  /// names and thread registrations survive (call-site static ids and
  /// thread_local buffer pointers stay valid).
  void clear();

  /// Interns `name`, returning its stable non-zero id. Allocates only on
  /// first sight of a name; later calls are a shared-lock-free map find.
  uint32_t intern(std::string_view name);

  /// The id `name` was interned as, or 0 if never interned.
  uint32_t find_name(std::string_view name) const;

  /// Copy of the interned string for `id` (export-time use).
  std::string name_of(uint32_t id) const;

  /// Rank-synchronised timestamp all exported event times are relative
  /// to. Call immediately after a cross-rank barrier so every rank's
  /// t=0 is the same physical instant.
  void set_epoch_now() { epoch_.store(now_ticks(), std::memory_order_relaxed); }
  void set_epoch(Ticks t) { epoch_.store(t, std::memory_order_relaxed); }
  Ticks epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // ---- emission (hot path) ----------------------------------------------

  void emit(EventType type, uint32_t name, uint32_t arg1_name = 0,
            uint64_t arg1 = 0, uint32_t arg2_name = 0, uint64_t arg2 = 0,
            Ticks ticks = 0);

  void instant(uint32_t name) { emit(EventType::kInstant, name); }
  void counter(uint32_t name, uint64_t value) {
    emit(EventType::kCounter, name, 0, value);
  }

  // ---- thread identity ---------------------------------------------------

  /// Labels the calling thread in exported traces ("main", "comm.worker",
  /// ...). Sticky: applies to the thread's buffer whenever it registers,
  /// so it is safe (and allocation-free) to call with tracing disabled.
  static void set_thread_name(std::string_view name);

  // ---- export ------------------------------------------------------------

  struct ThreadSnapshot {
    uint32_t tid = 0;
    std::string name;        ///< thread label ("thread-<tid>" if unnamed)
    uint64_t dropped = 0;    ///< events overwritten by ring wrap-around
    std::vector<TraceEvent> events;  ///< oldest → newest
  };

  /// Copies out every thread's surviving events. Quiesce writers first
  /// (see header comment) for a tear-free snapshot.
  std::vector<ThreadSnapshot> snapshot() const;

  /// Total events overwritten across all threads.
  uint64_t dropped_events() const;

  static constexpr size_t kDefaultRingCapacity = 1 << 16;

 private:
  Tracer() = default;

  struct ThreadBuffer {
    std::vector<TraceEvent> ring;
    std::atomic<uint64_t> head{0};  ///< events ever written
    uint32_t tid = 0;
    std::string name;
  };

  static std::atomic<bool>& enabled_flag();
  static ThreadBuffer*& registered_buffer_slot();
  ThreadBuffer& local_buffer();

  // Heterogeneous lookup so find(string_view) never materialises a
  // std::string — intern() after warm-up must not allocate.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::mutex mutex_;  // intern table + buffer registry
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>
      name_ids_;
  std::vector<std::string> names_;  // index = id - 1
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  size_t ring_capacity_ = kDefaultRingCapacity;
  std::atomic<Ticks> epoch_{0};
};

/// RAII span. Construct with an interned name id (0 = inactive no-op —
/// the macros pass 0 whenever tracing is off at entry). The destructor
/// closes the span even if tracing was disabled mid-flight, keeping
/// begin/end pairs balanced in the ring.
class SpanScope {
 public:
  explicit SpanScope(uint32_t name) : name_(name) {
    if (name_ != 0) Tracer::instance().emit(EventType::kBegin, name_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Attaches a u64 arg, emitted with the closing event (max two; later
  /// calls overwrite the second slot). `arg_name` is interned on use —
  /// a map find after first sight, nothing when the span is inactive.
  void set_arg(std::string_view arg_name, uint64_t value) {
    if (name_ == 0) return;
    const uint32_t id = Tracer::instance().intern(arg_name);
    if (arg1_name_ == 0 || arg1_name_ == id) {
      arg1_name_ = id;
      arg1_ = value;
    } else {
      arg2_name_ = id;
      arg2_ = value;
    }
  }

  bool active() const { return name_ != 0; }

  ~SpanScope() {
    if (name_ == 0) return;
    Tracer::instance().emit(EventType::kEnd, name_, arg1_name_, arg1_,
                            arg2_name_, arg2_);
  }

 private:
  uint32_t name_ = 0;
  uint32_t arg1_name_ = 0;
  uint32_t arg2_name_ = 0;
  uint64_t arg1_ = 0;
  uint64_t arg2_ = 0;
};

/// Compiled-out stand-in for SpanScope so call sites using the _NAMED
/// macro keep compiling with DKFAC_TRACE_ENABLED=0.
struct NullSpan {
  void set_arg(std::string_view, uint64_t) {}
  bool active() const { return false; }
};

}  // namespace dkfac::obs

#define DKFAC_TRACE_CONCAT_IMPL(a, b) a##b
#define DKFAC_TRACE_CONCAT(a, b) DKFAC_TRACE_CONCAT_IMPL(a, b)

#if DKFAC_TRACE_ENABLED

/// Interns a name once per call site (function-local static), then reads
/// the cached id forever after.
#define DKFAC_TRACE_INTERN(str)                              \
  ([]() -> uint32_t {                                        \
    static const uint32_t dkfac_trace_interned_id =          \
        ::dkfac::obs::Tracer::instance().intern(str);        \
    return dkfac_trace_interned_id;                          \
  }())

/// Scoped span covering the rest of the enclosing block.
#define DKFAC_TRACE_SCOPE(str)                                        \
  ::dkfac::obs::SpanScope DKFAC_TRACE_CONCAT(dkfac_trace_scope_,      \
                                             __COUNTER__)(            \
      ::dkfac::obs::Tracer::enabled() ? DKFAC_TRACE_INTERN(str) : 0)

/// Scoped span bound to `var` so args can be attached: var.set_arg(...).
#define DKFAC_TRACE_SCOPE_NAMED(var, str) \
  ::dkfac::obs::SpanScope var(            \
      ::dkfac::obs::Tracer::enabled() ? DKFAC_TRACE_INTERN(str) : 0)

/// Scoped span whose name id is computed by the caller (pick one of
/// several DKFAC_TRACE_INTERN'd names at runtime — e.g. per collective
/// algorithm). `id_expr` must yield 0 when tracing is disabled.
#define DKFAC_TRACE_SCOPE_ID(var, id_expr) ::dkfac::obs::SpanScope var(id_expr)

#define DKFAC_TRACE_INSTANT(str)                                      \
  do {                                                                \
    if (::dkfac::obs::Tracer::enabled())                              \
      ::dkfac::obs::Tracer::instance().instant(DKFAC_TRACE_INTERN(str)); \
  } while (0)

#define DKFAC_TRACE_COUNTER(str, value)                               \
  do {                                                                \
    if (::dkfac::obs::Tracer::enabled())                              \
      ::dkfac::obs::Tracer::instance().counter(                       \
          DKFAC_TRACE_INTERN(str), static_cast<uint64_t>(value));     \
  } while (0)

#else  // DKFAC_TRACE_ENABLED == 0: macros vanish

#define DKFAC_TRACE_INTERN(str) (uint32_t{0})
#define DKFAC_TRACE_SCOPE(str) ((void)0)
#define DKFAC_TRACE_SCOPE_NAMED(var, str) ::dkfac::obs::NullSpan var
#define DKFAC_TRACE_SCOPE_ID(var, id_expr) ::dkfac::obs::NullSpan var
#define DKFAC_TRACE_INSTANT(str) ((void)0)
#define DKFAC_TRACE_COUNTER(str, value) ((void)0)

#endif  // DKFAC_TRACE_ENABLED
