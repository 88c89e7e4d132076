// Process-global metrics registry: named counters and gauges plus fixed-bucket
// log-scale latency histograms with quantile extraction.
//
// Every counted event has one home. A component that reports an event in its own
// Stats() view (a facade, an index, a service, a TCP server, the buffer pool) owns a
// Counter constructed with the event's exported name; the counter attaches itself to
// the global registry and detaches when its owner is destroyed. For each name the
// registry exports the sum over attached counters plus what detached ones counted,
// so process totals never go backwards. Events no instance reports (for example
// hac.consistency.passes) are recorded on the registry's own counter for the name,
// returned by GetCounter.
//
// Hot-path contract: recording (Counter::Inc, Gauge::Add, Histogram::Record) is one
// relaxed atomic RMW — no locks, no allocation. The registry mutex is taken only when
// a counter attaches or detaches, at registration (first lookup of a name; sites
// cache the returned reference in a function-local static) and at Snapshot() time.
// Registry-owned objects are never deallocated, so cached references stay valid for
// the process lifetime.
//
// Naming convention and the full exported table live in docs/OBSERVABILITY.md; the
// names themselves are constants in support/metric_names.h.
#ifndef HAC_SUPPORT_METRICS_H_
#define HAC_SUPPORT_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hac {

class Counter {
 public:
  // Counted, but exported under no name (a statistic only its owner reports).
  Counter() = default;
  // Attaches to MetricsRegistry::Global() under `name`, a metric_names constant.
  explicit Counter(const char* name);
  ~Counter();

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
  // Both guarded by the global registry's mutex.
  const char* name_ = nullptr;  // set while attached
  uint64_t reset_base_ = 0;     // Value() at the registry's last ResetForTest
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket log-scale histogram. Bucket b counts values v with bit_width(v) == b:
// bucket 0 holds exactly v == 0 and bucket b >= 1 holds [2^(b-1), 2^b). 64 buckets
// cover the full uint64 domain, so Record never clamps and never allocates.
// Quantiles interpolate linearly inside the containing bucket, which bounds the
// relative error of any reported quantile by the bucket width (a factor of 2);
// p50/p95/p99 of latency distributions are well inside that in practice.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Bucket index for a value; exposed for the boundary unit tests. bit_width is 64
  // for v >= 2^63, so the top bucket absorbs the tail: [2^62, UINT64_MAX].
  static size_t BucketOf(uint64_t v) {
    return std::min(static_cast<size_t>(std::bit_width(v)), kBuckets - 1);
  }
  // Smallest value bucket b can hold (0 for bucket 0, else 2^(b-1)).
  static uint64_t BucketLowerBound(size_t b) {
    return b == 0 ? 0 : (uint64_t{1} << (b - 1));
  }
  // One past the largest value bucket b can hold.
  static uint64_t BucketUpperBound(size_t b) {
    return b >= kBuckets - 1 ? UINT64_MAX : (uint64_t{1} << b);
  }

  uint64_t Count() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) {
      n += b.load(std::memory_order_relaxed);
    }
    return n;
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  // Value at quantile q in [0, 1], linearly interpolated within the containing
  // bucket. Concurrent recording makes the answer approximate (counts are read
  // bucket-by-bucket), which is fine for monitoring output.
  double Quantile(double q) const;

  // Largest non-empty bucket's upper bound — a cheap "max is below this" line.
  uint64_t MaxBound() const;

 private:
  friend class MetricsRegistry;
  void ResetForTest() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
  }
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

struct HistogramSnapshot {
  std::string name;
  std::string unit;
  uint64_t count = 0;
  uint64_t sum = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  uint64_t max_bound = 0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // sorted by name
  std::vector<std::pair<std::string, int64_t>> gauges;     // sorted by name
  std::vector<HistogramSnapshot> histograms;               // sorted by name
};

class MetricsRegistry {
 public:
  // The process-global registry. Construction pre-registers every name in
  // support/metric_names.h so snapshots are complete from the first call.
  static MetricsRegistry& Global();

  // Lookup-or-create. The returned reference is valid for the registry's lifetime;
  // cache it (function-local static) on hot paths. `unit` applies to histograms and
  // is recorded once at first registration. GetCounter returns the registry's own
  // counter for the name; Snapshot() adds the attached instance counters to it.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name, const std::string& unit = "us");

  MetricsSnapshot Snapshot() const;
  std::vector<std::string> Names() const;  // every registered metric, sorted

  // Zeroes the registry's view of every metric (objects stay registered). Attached
  // counters keep their values, so every instance's Stats() is unchanged; only what
  // they count from now on shows in the registry. Tests and benches only — live
  // readers of the same process see the reset.
  void ResetForTest();

 private:
  friend class Counter;

  struct CounterFamily {
    Counter own;                      // events recorded through GetCounter(name)
    std::vector<Counter*> attached;   // live instance counters
    uint64_t retired = 0;             // counted by detached ones since the last reset
    uint64_t Total() const;
  };

  CounterFamily& FamilyLocked(const std::string& name);
  void Attach(Counter* c, const char* name);
  void Detach(Counter* c);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CounterFamily>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

// The kIntrospect payload: the full registry snapshot plus tracer state, rendered
// with the shared JsonObject shape (support/json.h). `hacctl stats` prints this
// string verbatim, so the tool and the service request return identical content by
// construction. Schema documented in docs/API.md.
std::string IntrospectStatsJson();

}  // namespace hac

#endif  // HAC_SUPPORT_METRICS_H_
