#include "src/support/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/support/json.h"
#include "src/support/metric_names.h"

namespace hac {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // bit_width(UINT64_MAX) is 64; the top bucket clamps it (no out-of-bounds Record).
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);

  for (size_t b = 1; b < Histogram::kBuckets - 1; ++b) {
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketUpperBound(b);
    EXPECT_EQ(Histogram::BucketOf(lo), b) << "lower edge of bucket " << b;
    EXPECT_EQ(Histogram::BucketOf(hi - 1), b) << "upper edge of bucket " << b;
    EXPECT_EQ(Histogram::BucketOf(hi), b + 1) << "one past bucket " << b;
  }
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1), UINT64_MAX);
}

TEST(HistogramTest, CountSumMean) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 60u);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(HistogramTest, QuantileOfEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.MaxBound(), 0u);
}

TEST(HistogramTest, QuantileSingleValue) {
  Histogram h;
  h.Record(100);
  // 100 lands in [64, 128); every quantile interpolates inside that bucket.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    double v = h.Quantile(q);
    EXPECT_GE(v, 64.0) << "q=" << q;
    EXPECT_LE(v, 128.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantilesAreMonotoneAndBucketAccurate) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  const double p50 = h.Quantile(0.50);
  const double p95 = h.Quantile(0.95);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucket interpolation bounds any quantile within a factor of 2.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 495.0);
  EXPECT_LE(p99, 1980.0);
  EXPECT_EQ(h.MaxBound(), 1024u);  // largest non-empty bucket is [512, 1024)
}

TEST(HistogramTest, QuantileExtremes) {
  Histogram h;
  h.Record(0);
  h.Record(1u << 20);
  EXPECT_EQ(h.Quantile(0.0), 0.0);             // rank 1 is the 0 sample
  EXPECT_GE(h.Quantile(1.0), double(1u << 19));  // rank n is the large sample
}

TEST(MetricsRegistryTest, CounterAndGaugeRoundTrip) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.counter");
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.Value(), 5u);
  EXPECT_EQ(&reg.GetCounter("test.counter"), &c);  // same object on re-lookup

  Gauge& g = reg.GetGauge("test.gauge");
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 4);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDoNotLose) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.concurrent");
  Histogram& h = reg.GetHistogram("test.concurrent_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Inc();
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.Count(), uint64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, GlobalPreRegistersEveryName) {
  std::vector<std::string> names = MetricsRegistry::Global().Names();
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const char* name : metric_names::kAllCounters) {
    EXPECT_TRUE(has(name)) << name;
  }
  for (const char* name : metric_names::kAllGauges) {
    EXPECT_TRUE(has(name)) << name;
  }
  for (const char* name : metric_names::kAllHistograms) {
    EXPECT_TRUE(has(name)) << name;
  }
}

TEST(MetricsRegistryTest, IntrospectJsonParsesAndIsComplete) {
  std::string json = IntrospectStatsJson();
  std::string err;
  EXPECT_TRUE(JsonValidate(json, &err)) << err;
  for (const char* name : metric_names::kAllCounters) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  for (const char* name : metric_names::kAllHistograms) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  for (const char* name : metric_names::kAllSpans) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"schema\": \"hac.introspect.v1\""), std::string::npos);
}

TEST(JsonValidateTest, AcceptsAndRejects) {
  std::string err;
  EXPECT_TRUE(JsonValidate("{}", &err)) << err;
  EXPECT_TRUE(JsonValidate("{\"a\": [1, 2.5, -3e2, true, false, null, \"s\"]}", &err))
      << err;
  EXPECT_FALSE(JsonValidate("{", &err));
  EXPECT_FALSE(JsonValidate("{\"a\": }", &err));
  EXPECT_FALSE(JsonValidate("{\"a\": 1,}", &err));
  EXPECT_FALSE(JsonValidate("[1 2]", &err));
  EXPECT_FALSE(JsonValidate("{\"a\": 1} trailing", &err));
}

}  // namespace
}  // namespace hac
