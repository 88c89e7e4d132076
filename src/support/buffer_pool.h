// A process-global free list of byte buffers for frame encode scratch.
//
// The wire codec builds every outgoing frame in its own std::vector; at tens of
// thousands of requests per second that is a heap allocation per frame on the
// transport hot path. The pool recycles those vectors: Acquire() hands out an
// empty vector that usually still owns a previous frame's capacity (a "hit"),
// Release() parks it for the next caller instead of freeing it. Decoding needs no
// scratch: the transports decode each payload in place in their FrameDecoder's
// receive buffer.
//
// Contract:
//   * Acquire() returns an EMPTY vector (size 0); capacity is whatever a prior
//     user grew it to, so steady-state traffic stops allocating entirely.
//   * Release() is optional. A buffer that never comes back is simply freed by
//     its destructor — the pool never owns live buffers, so there is no
//     use-after-release hazard by construction.
//   * Oversized buffers (capacity > kMaxRetainedBytes) are dropped on Release so
//     one 64 MiB frame cannot pin 64 MiB per pool slot forever.
//   * Thread-safe (one mutex around the free list; the critical section is a
//     vector swap). Hit/miss counters export as hac.server.buffer_pool_{hits,misses}.
#ifndef HAC_SUPPORT_BUFFER_POOL_H_
#define HAC_SUPPORT_BUFFER_POOL_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {

class BufferPool {
 public:
  // Buffers larger than this are freed instead of pooled.
  static constexpr size_t kMaxRetainedBytes = 256 * 1024;
  // Free-list depth; beyond it Release frees (bounds idle memory to
  // kMaxSlots * kMaxRetainedBytes worst case).
  static constexpr size_t kMaxSlots = 64;

  // The process-global pool used by the wire codec. Leaked on purpose, like the
  // metrics registry: transports may release buffers during static teardown.
  static BufferPool& Global();

  // An empty vector, with recycled capacity when the free list is non-empty.
  std::vector<uint8_t> Acquire();

  // Clears `buf` and parks its storage for the next Acquire (or frees it if
  // oversized / the pool is full). `buf` is left empty either way.
  void Release(std::vector<uint8_t>&& buf);

  struct PoolStats {
    uint64_t hits = 0;    // Acquire served from the free list
    uint64_t misses = 0;  // Acquire had to hand out a fresh vector
  };
  PoolStats Stats() const;

 private:
  std::mutex mu_;
  std::vector<std::vector<uint8_t>> free_;
  Counter hits_{metric_names::kServerBufferPoolHits};
  Counter misses_{metric_names::kServerBufferPoolMisses};
};

}  // namespace hac

#endif  // HAC_SUPPORT_BUFFER_POOL_H_
