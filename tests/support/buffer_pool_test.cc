// BufferPool: the global free-list behind wire frame encode scratch.
// The pool is a process-global singleton, so every assertion is on deltas.
#include "src/support/buffer_pool.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hac {
namespace {

TEST(BufferPoolTest, ReleaseThenAcquireReusesTheAllocation) {
  BufferPool& pool = BufferPool::Global();
  // Drain whatever other tests parked so the first Acquire below is a miss.
  for (int i = 0; i < static_cast<int>(BufferPool::kMaxSlots) + 1; ++i) {
    (void)pool.Acquire();
  }
  const auto before = pool.Stats();

  std::vector<uint8_t> buf = pool.Acquire();  // empty pool: a miss
  EXPECT_TRUE(buf.empty());
  buf.resize(4096);
  buf[0] = 0xAA;
  pool.Release(std::move(buf));

  std::vector<uint8_t> again = pool.Acquire();  // parked buffer: a hit
  EXPECT_TRUE(again.empty());                   // recycled buffers come back cleared
  EXPECT_GE(again.capacity(), 4096u);           // ...but keep their allocation

  const auto after = pool.Stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(BufferPoolTest, OversizedBuffersAreDroppedNotRetained) {
  BufferPool& pool = BufferPool::Global();
  for (int i = 0; i < static_cast<int>(BufferPool::kMaxSlots) + 1; ++i) {
    (void)pool.Acquire();
  }
  std::vector<uint8_t> huge(BufferPool::kMaxRetainedBytes + 1);
  pool.Release(std::move(huge));
  const auto before = pool.Stats();
  std::vector<uint8_t> got = pool.Acquire();  // the giant was not parked
  EXPECT_EQ(pool.Stats().misses, before.misses + 1);
  EXPECT_LT(got.capacity(), BufferPool::kMaxRetainedBytes + 1);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BufferPool& pool = BufferPool::Global();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 500; ++i) {
        std::vector<uint8_t> buf = pool.Acquire();
        buf.resize(512 + static_cast<size_t>(i));
        pool.Release(std::move(buf));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const auto stats = pool.Stats();
  EXPECT_GE(stats.hits + stats.misses, 2000u);
}

}  // namespace
}  // namespace hac
