#include "src/support/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hac {
namespace {

using std::chrono::milliseconds;

TEST(BoundedMpscQueueTest, FifoOrder) {
  BoundedMpscQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_EQ(q.Size(), 3u);
  EXPECT_EQ(q.PopFor(milliseconds(0)).value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_EQ(q.PopFor(milliseconds(0)).value(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedMpscQueueTest, RejectsWhenFull) {
  BoundedMpscQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  ASSERT_TRUE(q.TryPop().has_value());
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedMpscQueueTest, CloseRejectsPushesButDrainsPops) {
  BoundedMpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.PopFor(milliseconds(10)).value(), 1);
  EXPECT_EQ(q.PopFor(milliseconds(10)).value(), 2);
  EXPECT_FALSE(q.PopFor(milliseconds(10)).has_value());
}

TEST(BoundedMpscQueueTest, PopForTimesOutEmpty) {
  BoundedMpscQueue<int> q(4);
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.PopFor(milliseconds(30)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(20));
}

TEST(BoundedMpscQueueTest, ConcurrentProducersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedMpscQueue<int> q(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&q, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush(t * kPerProducer + i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : producers) {
    th.join();
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    auto v = q.PopFor(milliseconds(100));
    ASSERT_TRUE(v.has_value());
    EXPECT_FALSE(seen[static_cast<size_t>(*v)]);
    seen[static_cast<size_t>(*v)] = true;
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(ThreadPoolTest, RunsSubmittedJobs) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.ThreadCount(), 3u);
  std::atomic<int> count = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&count] { ++count; }));
  }
  pool.Stop();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, StopRunsPendingJobsAndIsIdempotent) {
  std::atomic<int> count = 0;
  {
    ThreadPool pool(1);
    // The first job blocks the single worker long enough for the rest to pile up;
    // Stop() must still run them all.
    pool.Submit([] { std::this_thread::sleep_for(milliseconds(50)); });
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { ++count; });
    }
    pool.Stop();
    EXPECT_EQ(count.load(), 20);
    EXPECT_FALSE(pool.Submit([&count] { ++count; }));
    pool.Stop();  // idempotent
  }
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace hac
