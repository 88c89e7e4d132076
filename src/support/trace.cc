#include "src/support/trace.h"

#include <chrono>

#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {

namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

Counter& DroppedCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter(metric_names::kTraceDropped);
  return c;
}

}  // namespace

TraceRing& TraceRing::Global() {
  static TraceRing* ring = [] {
    (void)TraceEpoch();  // pin the epoch no later than first ring use
    return new TraceRing();
  }();
  return *ring;
}

uint64_t TraceRing::NowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - TraceEpoch())
                                   .count());
}

uint32_t TraceRing::CurrentTid() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void TraceRing::Record(const TraceEvent& ev) {
  const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx % kCapacity];
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    // Another writer (or the exporter) holds this slot: drop instead of blocking.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    DroppedCounter().Inc();
    return;
  }
  slot.ev = ev;
  slot.seq.store(seq + 2, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRing::Snapshot() {
  std::vector<TraceEvent> out;
  out.reserve(kCapacity);
  // Walk in ring order starting at the oldest slot so the copy is oldest-first.
  const uint64_t head = next_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kCapacity; ++i) {
    Slot& slot = slots_[(head + i) % kCapacity];
    uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !slot.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      continue;  // a writer owns it right now; skip rather than wait
    }
    if (slot.ev.name != nullptr) {
      out.push_back(slot.ev);
    }
    slot.seq.store(seq + 2, std::memory_order_release);
  }
  return out;
}

void TraceRing::Clear() {
  for (size_t i = 0; i < kCapacity; ++i) {
    Slot& slot = slots_[i];
    uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !slot.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      continue;
    }
    slot.ev = TraceEvent{};
    slot.ev.name = nullptr;
    slot.seq.store(seq + 2, std::memory_order_release);
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceRing::ExportChromeJson() {
  std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n  {\"name\": \"";
    out += ev.name;
    out += "\", \"cat\": \"";
    out += ev.category;
    out += "\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    out += std::to_string(ev.tid);
    out += ", \"ts\": ";
    out += std::to_string(ev.start_us);
    out += ", \"dur\": ";
    out += std::to_string(ev.dur_us);
    if (ev.nargs > 0) {
      out += ", \"args\": {";
      for (uint32_t a = 0; a < ev.nargs; ++a) {
        if (a != 0) {
          out += ", ";
        }
        out += "\"";
        out += ev.args[a].first;
        out += "\": ";
        out += std::to_string(ev.args[a].second);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}";
  return out;
}

}  // namespace hac
