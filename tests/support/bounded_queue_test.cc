#include "src/support/bounded_queue.h"

#include <chrono>
#include <optional>
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
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
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
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedMpscQueueTest, RejectedPushLeavesTheItemWithTheCaller) {
  BoundedMpscQueue<std::vector<int>> q(1);
  std::vector<int> first = {1};
  std::vector<int> second = {2, 3};
  EXPECT_TRUE(q.TryPush(std::move(first)));
  EXPECT_FALSE(q.TryPush(std::move(second)));
  EXPECT_EQ(second, (std::vector<int>{2, 3}));
  q.Close();
  std::vector<int> third = {4};
  EXPECT_FALSE(q.TryPush(std::move(third)));
  EXPECT_EQ(third, std::vector<int>{4});
}

// A consumer blocked in Pop() on an empty queue wakes when the queue closes, and
// returns empty: consumer loops end at shutdown without polling.
TEST(BoundedMpscQueueTest, PopWakesOnClose) {
  BoundedMpscQueue<int> q(4);
  std::optional<int> got = 7;
  std::thread consumer([&] { got = q.Pop(); });
  std::this_thread::sleep_for(milliseconds(20));  // let the consumer block
  q.Close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
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
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_FALSE(seen[static_cast<size_t>(*v)]);
    seen[static_cast<size_t>(*v)] = true;
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

}  // namespace
}  // namespace hac
