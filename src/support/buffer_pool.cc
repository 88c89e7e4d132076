#include "src/support/buffer_pool.h"

#include <utility>

namespace hac {

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

std::vector<uint8_t> BufferPool::Acquire() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_.empty()) {
      std::vector<uint8_t> buf = std::move(free_.back());
      free_.pop_back();
      hits_.Inc();
      return buf;
    }
  }
  misses_.Inc();
  return {};
}

void BufferPool::Release(std::vector<uint8_t>&& buf) {
  buf.clear();
  if (buf.capacity() == 0 || buf.capacity() > kMaxRetainedBytes) {
    return;  // nothing worth keeping / too large to pin
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (free_.size() < kMaxSlots) {
    free_.push_back(std::move(buf));
  }
}

BufferPool::PoolStats BufferPool::Stats() const {
  return {hits_.Value(), misses_.Value()};
}

}  // namespace hac
