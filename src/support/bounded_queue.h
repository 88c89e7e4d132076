// BoundedMpscQueue<T>: the request queue of the hacd service layer (src/server).
//
// A mutex+condvar multi-producer queue with a hard capacity. Producers get an
// immediate false from TryPush when the queue is full or closed: admission control
// rejects instead of blocking, so overload is explicit. Consumers block in Pop until
// an item arrives or the queue is closed and drained, so a consumer thread is a plain
// `while (auto item = queue.Pop())` loop that ends at shutdown and runs everything
// admitted before it. "SC" is by convention, not enforcement: the service drains its
// write queue from one thread and its read queue from `read_workers` threads, where
// multi-consumer popping is just as safe.
#ifndef HAC_SUPPORT_BOUNDED_QUEUE_H_
#define HAC_SUPPORT_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace hac {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity) : capacity_(capacity) {}

  // Returns false without blocking when the queue is full or closed. `item` is moved
  // from only on success, so a rejected caller still holds it (and can complete it).
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  // Blocks until an item is available. Empty optional only once the queue is closed
  // and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return !items_.empty() || closed_; });
    return TakeFront();
  }

  // Non-blocking pop, used by the writer to drain a batch group.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    return TakeFront();
  }

  // After Close, pushes fail; pops still drain what was admitted, then return empty.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  // Requires mu_.
  std::optional<T> TakeFront() {
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace hac

#endif  // HAC_SUPPORT_BOUNDED_QUEUE_H_
