#include "hacbench/src/report.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

namespace hacbench {

double NowSec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    return 0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::TailMean(double q) const {
  if (values_.empty()) {
    return 0;
  }
  Quantile(q);  // sorts
  const size_t n = values_.size();
  const size_t from = std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
  return std::accumulate(values_.begin() + long(from), values_.end(), 0.0) /
         static_cast<double>(n - from);
}

double Samples::Sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) {
    s.Add(v);
  }
  return s.Quantile(0.5);
}

void Report::Set(const std::string& name, double value, const std::string& unit,
                 uint64_t samples) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::SetQuantile(const std::string& name, const Samples& s, double q,
                         const std::string& unit) {
  Set(name, s.Quantile(q), unit, s.count());
}

void Report::AddCheck(const std::string& name, bool ok, const std::string& detail) {
  std::string flat = detail;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  std::replace(flat.begin(), flat.end(), '"', '\'');
  checks_.push_back({name, ok, flat});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.Add(key, value);
}

void Report::Note(const std::string& key, double value) { notes_.Add(key, value, 6); }

void Report::NoteErrors(const std::vector<std::string>& errors) {
  std::string joined;
  for (const std::string& e : errors) {
    joined += (joined.empty() ? "" : "; ") + e;
  }
  if (!joined.empty()) {
    std::replace(joined.begin(), joined.end(), '"', '\'');
    Note("errors", joined);
  }
}

bool Report::AllChecksPass() const {
  return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
}

hac::JsonObject Report::ToJson() const {
  hac::JsonObject out;
  out.AddBool("correct", AllChecksPass());
  out.Add("attempted", attempted);
  out.Add("failed", failed);
  std::vector<hac::JsonObject> metrics;
  for (const Metric& m : metrics_) {
    hac::JsonObject j;
    j.Add("name", m.name).Add("value", m.value, 6).Add("unit", m.unit).Add("samples",
                                                                          m.samples);
    metrics.push_back(j);
  }
  out.Add("metrics", metrics);
  std::vector<hac::JsonObject> checks;
  for (const Check& c : checks_) {
    hac::JsonObject j;
    j.Add("name", c.name).AddBool("ok", c.ok).Add("detail", c.detail);
    checks.push_back(j);
  }
  out.Add("checks", checks);
  out.Add("notes", notes_);
  return out;
}

hac::JsonObject HostFingerprint() {
  hac::JsonObject host;
  host.Add("cores", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  host.Add("build_type", HACBENCH_BUILD_TYPE);
  host.Add("hac_metrics", "ON");  // hacbench/CMakeLists.txt always compiles them in
  double load = 0;
  std::ifstream in("/proc/loadavg");
  in >> load;
  host.Add("loadavg_1m", load, 2);
  return host;
}

double ResidentMb() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSec() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto sec = [](const timeval& t) { return double(t.tv_sec) + double(t.tv_usec) / 1e6; };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    steal = field == 7 ? v : steal;
  }
  return {steal, total};
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace hacbench
