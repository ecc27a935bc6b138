#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>

namespace dkfac::obs {
namespace {

// Thread label storage kept outside Tracer so set_thread_name never
// allocates (safe with tracing disabled): a fixed thread_local char
// array, consumed when the thread's buffer registers.
struct PendingThreadName {
  char text[64] = {0};
};

PendingThreadName& pending_thread_name() {
  static thread_local PendingThreadName name;
  return name;
}

std::atomic<uint32_t>& next_tid() {
  static std::atomic<uint32_t> counter{1};
  return counter;
}

}  // namespace

Tracer& Tracer::instance() {
  // Leaked on purpose: emission from detaching threads (and static
  // destructors elsewhere) must never race a dying tracer.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::atomic<bool>& Tracer::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

void Tracer::enable(size_t ring_capacity) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_capacity_ = std::max<size_t>(ring_capacity, 2);
    for (auto& buffer : buffers_) {
      if (buffer->ring.size() != ring_capacity_) {
        buffer->ring.assign(ring_capacity_, TraceEvent{});
        buffer->head.store(0, std::memory_order_relaxed);
      }
    }
  }
  set_epoch_now();
  enabled_flag().store(true, std::memory_order_release);
}

void Tracer::disable() {
  enabled_flag().store(false, std::memory_order_release);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->head.store(0, std::memory_order_relaxed);
  }
}

uint32_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  names_.emplace_back(name);
  const uint32_t id = static_cast<uint32_t>(names_.size());  // 1-based
  name_ids_.emplace(names_.back(), id);
  return id;
}

uint32_t Tracer::find_name(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? 0 : it->second;
}

std::string Tracer::name_of(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > names_.size()) return {};
  return names_[id - 1];
}

Tracer::ThreadBuffer*& Tracer::registered_buffer_slot() {
  static thread_local ThreadBuffer* buffer = nullptr;
  return buffer;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  ThreadBuffer*& buffer = registered_buffer_slot();
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = next_tid().fetch_add(1, std::memory_order_relaxed);
    const char* pending = pending_thread_name().text;
    owned->name = pending[0] != '\0'
                      ? std::string(pending)
                      : "thread-" + std::to_string(owned->tid);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mutex_);
    owned->ring.assign(ring_capacity_, TraceEvent{});
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void Tracer::emit(EventType type, uint32_t name, uint32_t arg1_name,
                  uint64_t arg1, uint32_t arg2_name, uint64_t arg2,
                  Ticks ticks) {
  if (name == 0) return;
  ThreadBuffer& buffer = local_buffer();
  if (ticks == 0) ticks = now_ticks();
  const uint64_t head = buffer.head.load(std::memory_order_relaxed);
  TraceEvent& slot = buffer.ring[head % buffer.ring.size()];
  slot.ticks = ticks;
  slot.name = name;
  slot.type = type;
  slot.arg1_name = arg1_name;
  slot.arg2_name = arg2_name;
  slot.arg1 = arg1;
  slot.arg2 = arg2;
  // Publish after the slot is fully written so snapshot() (which reads
  // head with acquire) never sees a half-written newest event.
  buffer.head.store(head + 1, std::memory_order_release);
}

void Tracer::set_thread_name(std::string_view name) {
  PendingThreadName& pending = pending_thread_name();
  const size_t n = std::min(name.size(), sizeof(pending.text) - 1);
  std::memcpy(pending.text, name.data(), n);
  pending.text[n] = '\0';
  // If this thread already registered a buffer, rename it in place; if
  // not, stay lazy — deliberately NOT local_buffer(), which would allocate
  // a ring for threads that only ever name themselves.
  if (ThreadBuffer* buffer = registered_buffer_slot()) {
    Tracer& tracer = instance();
    std::lock_guard<std::mutex> lock(tracer.mutex_);
    buffer->name.assign(pending.text);
  }
}

std::vector<Tracer::ThreadSnapshot> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadSnapshot> out;
  out.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadSnapshot snap;
    snap.tid = buffer->tid;
    snap.name = buffer->name;
    const uint64_t head = buffer->head.load(std::memory_order_acquire);
    const uint64_t capacity = buffer->ring.size();
    const uint64_t kept = std::min(head, capacity);
    snap.dropped = head - kept;
    snap.events.reserve(kept);
    for (uint64_t i = head - kept; i < head; ++i) {
      snap.events.push_back(buffer->ring[i % capacity]);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    const uint64_t head = buffer->head.load(std::memory_order_acquire);
    const uint64_t capacity = buffer->ring.size();
    dropped += head > capacity ? head - capacity : 0;
  }
  return dropped;
}

}  // namespace dkfac::obs
