// Measurement plumbing of the benchmark: latency samples with quantiles, the named
// metric list a run reports, the host fingerprint, and the JSON report file that
// hacbench/run.py turns into the benchmark's result line.
#ifndef HACBENCH_REPORT_H_
#define HACBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/support/json.h"

namespace hacbench {

// Seconds on the steady clock.
double NowSec();

// Latency (or any other) samples of one class. Quantiles use linear interpolation
// between closest ranks, like Python's statistics.quantiles(method="inclusive").
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  double Quantile(double q) const;
  // Mean of the slowest (1 - q) share of the samples (the expected shortfall beyond
  // the q quantile): a tail figure that, unlike a high quantile, does not jump when
  // the quantile falls on a steep part of a mixed workload's distribution.
  double TailMean(double q) const;
  double Mean() const;
  double Sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Median of a small vector (the set-up repetitions, ladder repetitions).
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // observations behind the value (0 = a single measurement)
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  // Quantile of `s` recorded under `name`, with the sample count.
  void SetQuantile(const std::string& name, const Samples& s, double q,
                   const std::string& unit);
  void AddCheck(const std::string& name, bool ok, const std::string& detail);
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);
  // The first few failures, joined into one "errors" note (none: no note).
  void NoteErrors(const std::vector<std::string>& errors);

  bool AllChecksPass() const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Check>& checks() const { return checks_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // The whole report as JSON (metrics, checks, notes, attempted/failed).
  hac::JsonObject ToJson() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  hac::JsonObject notes_;
};

// Core count, build type, HAC_METRICS and the 1-minute load average at call time.
hac::JsonObject HostFingerprint();

// Resident set size in MiB, after returning freed heap pages to the OS so the figure
// reflects live data rather than allocator slack.
double ResidentMb();

// User + system CPU seconds this process has used so far.
double ProcessCpuSec();

// Host-wide CPU ticks from /proc/stat: {stolen by the hypervisor, all}. The share
// stolen during a run says how much a shared host disturbed it.
std::pair<double, double> StealTicks();

// Writes `text` to `path` (truncating). False on I/O failure.
bool WriteTextFile(const std::string& path, const std::string& text);

}  // namespace hacbench

#endif  // HACBENCH_REPORT_H_
