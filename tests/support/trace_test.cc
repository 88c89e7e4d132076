#include "src/support/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/support/json.h"

namespace hac {
namespace {

// The tests share the process-global ring; Clear() gives each one a fresh window.

TEST(TraceRingTest, SpanIsRecordedWithArgs) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  {
    TraceSpan span("test.region");
    span.Arg("answer", 42);
    span.Arg("extra", 7);
  }
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.region");
  ASSERT_EQ(events[0].nargs, 2u);
  EXPECT_STREQ(events[0].args[0].first, "answer");
  EXPECT_EQ(events[0].args[0].second, 42u);
  EXPECT_EQ(events[0].args[1].second, 7u);
}

TEST(TraceRingTest, ArgsBeyondFourAreIgnored) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  {
    TraceSpan span("test.many_args");
    for (uint64_t i = 0; i < 10; ++i) {
      span.Arg("k", i);
    }
  }
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].nargs, 4u);
}

TEST(TraceRingTest, OverwritesOldestWhenFull) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  const size_t total = TraceRing::kCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    TraceEvent ev;
    ev.name = "test.fill";
    ev.start_us = i;  // identifies the event
    ring.Record(ev);
  }
  EXPECT_EQ(ring.recorded(), total);
  std::vector<TraceEvent> events = ring.Snapshot();
  // The ring retains only the newest kCapacity events: everything with
  // start_us < 100 was overwritten.
  EXPECT_EQ(events.size(), TraceRing::kCapacity);
  for (const TraceEvent& ev : events) {
    EXPECT_GE(ev.start_us, 100u);
  }
}

TEST(TraceRingTest, DisabledSpanRecordsNothing) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  ring.SetEnabled(false);
  {
    TraceSpan span("test.disabled");
    EXPECT_FALSE(span.active());
  }
  ring.SetEnabled(true);
  EXPECT_EQ(ring.Snapshot().size(), 0u);
}

TEST(TraceRingTest, ChromeExportIsValidJson) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  { TraceSpan span("test.export_a"); }
  {
    TraceSpan span("test.export_b");
    span.Arg("n", 3);
  }
  std::string json = ring.ExportChromeJson();
  std::string err;
  EXPECT_TRUE(JsonValidate(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.export_a"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 3"), std::string::npos);
}

TEST(TraceRingTest, EmptyExportIsValidJson) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  std::string err;
  EXPECT_TRUE(JsonValidate(ring.ExportChromeJson(), &err)) << err;
}

TEST(TraceRingTest, ConcurrentRecordingNeverTears) {
  TraceRing& ring = TraceRing::Global();
  ring.Clear();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("test.concurrent");
        span.Arg("thread", static_cast<uint64_t>(t));
      }
    });
  }
  // Export concurrently with the writers: the claim protocol may drop events but
  // must never produce a torn read (TSan enforces the latter).
  for (int i = 0; i < 20; ++i) {
    (void)ring.Snapshot();
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(ring.recorded() + ring.dropped(),
            uint64_t{kThreads} * kPerThread);
  for (const TraceEvent& ev : ring.Snapshot()) {
    EXPECT_STREQ(ev.name, "test.concurrent");
    ASSERT_EQ(ev.nargs, 1u);
    EXPECT_LT(ev.args[0].second, uint64_t{kThreads});
  }
}

TEST(TraceRingTest, ThreadIdsAreDense) {
  uint32_t here = TraceRing::CurrentTid();
  EXPECT_EQ(TraceRing::CurrentTid(), here);  // stable within a thread
  uint32_t other = 0;
  std::thread([&other] { other = TraceRing::CurrentTid(); }).join();
  EXPECT_NE(other, here);
}

}  // namespace
}  // namespace hac
