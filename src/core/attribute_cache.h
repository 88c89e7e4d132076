// Attribute cache: HAC's stand-in for the paper's shared-memory attribute cache that
// "helps to speed up Scan and Read operations". Caches regular files' Stat results by
// inode; mutations invalidate. Shared across all HAC processes (the paper stores it in UNIX shared
// memory for the same reason) — and, under the hacd service layer, across concurrent
// reader threads, so the map is guarded by a mutex; hits and misses count on
// counters exported as hac.attr_cache.{hits,misses}. The critical sections are a
// hash probe or a hash insert; Stat itself is computed outside the lock.
#ifndef HAC_CORE_ATTRIBUTE_CACHE_H_
#define HAC_CORE_ATTRIBUTE_CACHE_H_

#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/vfs/types.h"

namespace hac {

class AttributeCache {
 public:
  std::optional<Stat> Get(InodeId inode) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(inode);
      if (it != cache_.end()) {
        hits_.Inc();
        return it->second;
      }
    }
    misses_.Inc();
    return std::nullopt;
  }

  void Put(InodeId inode, const Stat& st) {
    std::lock_guard<std::mutex> lock(mu_);
    cache_[inode] = st;
  }

  void Invalidate(InodeId inode) {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.erase(inode);
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
  }

  uint64_t hits() const { return hits_.Value(); }
  uint64_t misses() const { return misses_.Value(); }
  size_t EntryCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  size_t SizeBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size() * (sizeof(InodeId) + sizeof(Stat) + 48);
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<InodeId, Stat> cache_;
  Counter hits_{metric_names::kAttrCacheHits};
  Counter misses_{metric_names::kAttrCacheMisses};
};

}  // namespace hac

#endif  // HAC_CORE_ATTRIBUTE_CACHE_H_
