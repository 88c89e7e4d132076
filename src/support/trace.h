// Scoped-span tracer writing to a bounded in-memory ring with Chrome trace_event
// JSON export (load the dump into chrome://tracing or https://ui.perfetto.dev).
//
// A TraceSpan is an RAII region: construction stamps the start time, destruction
// records one complete event ("ph":"X") into the global TraceRing. Span and arg names
// must be string literals (or otherwise outlive the process) — the ring stores the
// pointers, not copies, so recording never allocates.
//
// Ring semantics: fixed capacity (TraceRing::kCapacity events), overwrite-oldest.
// Each slot carries a monotonically increasing sequence number; a writer claims the
// slot with one CAS (even -> odd), fills it, and releases (odd -> even). A writer or
// exporter that loses the CAS — possible only when producers lap the ring faster than
// a competitor finishes one slot — drops that event and bumps the hac.trace.dropped
// counter rather than blocking. This keeps recording lock-free, race-free (no seqlock
// torn reads), and bounded.
//
// Tracing can be toggled at runtime with TraceRing::Global().SetEnabled(); a disabled
// span does not even read the clock.
#ifndef HAC_SUPPORT_TRACE_H_
#define HAC_SUPPORT_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hac {

struct TraceEvent {
  const char* name = nullptr;      // string literal; null marks a never-written slot
  const char* category = "hac";    // string literal
  uint64_t start_us = 0;           // relative to the ring's epoch (process start)
  uint64_t dur_us = 0;
  uint32_t tid = 0;                // small dense id, assigned per OS thread
  uint32_t nargs = 0;
  std::array<std::pair<const char*, uint64_t>, 4> args{};  // keys: string literals
};

class TraceRing {
 public:
  static constexpr size_t kCapacity = 8192;  // events; power of two

  static TraceRing& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const TraceEvent& ev);

  // Copies the ring's readable events, oldest first. Exporting claims each slot with
  // the same CAS protocol writers use, so a concurrent writer may drop (never tear).
  std::vector<TraceEvent> Snapshot();

  // Chrome trace_event JSON: {"traceEvents":[{"ph":"X",...}, ...]}.
  std::string ExportChromeJson();

  void Clear();

  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  // Dropped-on-collision events are also counted on hac.trace.dropped.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Microseconds since the ring's epoch; the timebase of every recorded event.
  static uint64_t NowUs();

  // Dense id of the calling thread (stable for the thread's lifetime).
  static uint32_t CurrentTid();

 private:
  struct Slot {
    // Even: readable (or never written, when generation 0 and name == nullptr).
    // Odd: claimed by a writer or exporter.
    std::atomic<uint64_t> seq{0};
    TraceEvent ev;
  };

  std::array<Slot, kCapacity> slots_{};
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
};

class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "hac") {
    if (TraceRing::Global().enabled()) {
      active_ = true;
      ev_.name = name;
      ev_.category = category;
      ev_.start_us = TraceRing::NowUs();
    }
  }

  ~TraceSpan() {
    if (active_) {
      ev_.dur_us = TraceRing::NowUs() - ev_.start_us;
      ev_.tid = TraceRing::CurrentTid();
      TraceRing::Global().Record(ev_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attaches a key/value pair (up to 4; extras are ignored). `key` must be a string
  // literal.
  void Arg(const char* key, uint64_t value) {
    if (active_ && ev_.nargs < ev_.args.size()) {
      ev_.args[ev_.nargs++] = {key, value};
    }
  }

  bool active() const { return active_; }

 private:
  TraceEvent ev_;
  bool active_ = false;
};

}  // namespace hac

#endif  // HAC_SUPPORT_TRACE_H_
