// HacService ("hacd"): an embeddable concurrent service front-end that multiplexes
// many clients over one HacFileSystem.
//
// Architecture (see DESIGN.md "Service layer & threading model"):
//
//   * Every request is classified read or write (src/server/request.h), and each class
//     waits in its own BoundedMpscQueue (src/support/bounded_queue.h).
//   * Read-class requests are drained by `read_workers` reader threads that run
//     concurrently; each execution holds the shared side of one std::shared_mutex.
//     Read paths through the facade are mutation-free on shared state (atomic stats
//     counters, locked attribute cache), so any number of readers may overlap.
//   * Bounded reads skip the queue: Stat, Lstat, ReadLink, GetQuery and Seek run on
//     the submitting thread (the in-process client's, or an epoll reactor's) when no
//     writer is pending and the shared lock is free to take without waiting. The
//     submitting thread never blocks: otherwise the read queues as above.
//   * Write-class requests are drained by ONE writer thread. The writer takes the
//     exclusive side of the lock, wraps each drained group of pending mutations in a
//     single ConsistencyEngine BatchScope, executes them back-to-back, and completes
//     them only after the batch flush — so N concurrent writers pay one topological
//     propagation pass, and a client's next read always sees its own settled write.
//     With a durable store, the batch's WAL commit precedes its completion, and a
//     checkpoint image is built afterwards under the shared lock.
//   * Writer priority: readers pause admission to the lock while the writer is
//     waiting (std::shared_mutex makes no fairness promise), so a query storm cannot
//     starve mutations. Queued readers wait at the gate; inline reads see the same
//     flag and queue instead.
//   * Admission control: both queues are bounded. A full queue rejects immediately
//     with Error::kOverloaded; a request that waited in queue longer than its class
//     timeout is shed (also kOverloaded) instead of executing stale work. An inline
//     read never waited, so it is never shed.
//
// The facade must be driven only through the service while the service is running;
// direct HacFileSystem calls from other threads would bypass the lock.
#ifndef HAC_SERVER_HAC_SERVICE_H_
#define HAC_SERVER_HAC_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/core/hac_file_system.h"
#include "src/server/request.h"
#include "src/server/session.h"
#include "src/support/bounded_queue.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {

class DurableStore;  // src/core/durability.h

struct ServiceOptions {
  size_t read_workers = 4;
  size_t max_read_queue = 256;   // admitted-but-not-started read requests
  size_t max_write_queue = 256;  // queued write requests
  // Per-class queue deadlines; a request older than this when dequeued is shed with
  // kOverloaded. Zero disables the deadline for that class.
  std::chrono::milliseconds read_queue_timeout{2000};
  std::chrono::milliseconds write_queue_timeout{5000};
  // Test hook: runs on the reader thread right before a queued read request executes
  // (after the shared lock is held). Used to make overload/timeout tests
  // deterministic. Reads that run on the submitting thread never call it.
  std::function<void()> read_hook;
  // Server-side cursor policy (docs/API.md "Cursor ops"). A session holds at
  // most this many open cursors; kOpenCursor beyond the cap is refused with
  // kOverloaded. Cursors idle past the transport's idle_timeout_ms are reclaimed
  // by the same sweep that closes idle connections (HarvestIdleCursors).
  size_t max_cursors_per_session = 64;
  // Optional crash-safety hook (docs/DURABILITY.md). When set, the writer thread
  // group-commits the facade's journal into the store's WAL after every batch flush
  // and before any request in the batch completes — an acknowledged write is on
  // disk. After completing the batch, the writer builds a checkpoint image under
  // the shared lock whenever the store's policy asks for one (DurabilityOptions
  // thresholds) and no publication is in flight, or a kCheckpoint request arrives;
  // the store's publisher thread writes and publishes it. A kCheckpoint request
  // completes once its image is published and old generations pruned. Stop() seals
  // the store with a final checkpoint. Not owned; must outlive the service. When
  // null, the writer discards the journal after every batch instead.
  DurableStore* durable_store = nullptr;
};

struct ServiceStats {
  uint64_t admitted_reads = 0;       // queued or run inline
  uint64_t admitted_writes = 0;
  uint64_t rejected_queue_full = 0;  // explicit kOverloaded at submission
  uint64_t shed_deadline = 0;        // kOverloaded after waiting past the class timeout
  uint64_t inline_reads = 0;         // reads run on the submitting thread
  uint64_t executed_reads = 0;       // inline ones included
  uint64_t executed_writes = 0;
  uint64_t write_batches = 0;        // BatchScope groups the writer committed
  uint64_t largest_write_batch = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
};

class HacService {
 public:
  explicit HacService(HacFileSystem& fs, ServiceOptions options = {});
  ~HacService();

  HacService(const HacService&) = delete;
  HacService& operator=(const HacService&) = delete;

  // Sessions are owned by the service. The pointer stays valid until CloseSession
  // (or service destruction). One synchronous client per session.
  Session* OpenSession();
  // Synchronous CloseSessionAsync: returns once the session is gone.
  Result<void> CloseSession(Session* session);

  // The one submission path: `done` fires exactly once with the response, on
  // whichever thread completes the request — a reader worker, the writer thread,
  // or the caller's own thread, before this returns. The caller's thread completes
  // admission rejections, kIntrospect, a null session, and the bounded reads that
  // run inline (Stat, Lstat, ReadLink, GetQuery, Seek while no writer is pending).
  // The callback must be cheap and must not re-enter the service; the epoll
  // transport uses it to hand the response to the connection's owning reactor.
  // Admission control may complete it immediately with kOverloaded.
  using ResponseCallback = std::function<void(ServerResponse)>;
  void SubmitCallback(Session* session, ServerRequest req, ResponseCallback done);

  // SubmitCallback with a future in place of the callback.
  std::future<ServerResponse> Submit(Session* session, ServerRequest req);

  // Synchronous convenience: Submit + wait.
  ServerResponse Call(Session* session, ServerRequest req);

  // Closes every descriptor the session still holds by submitting kCloseSession
  // through the write path (so it serializes after the session's in-flight
  // mutations), then erases the session; `done` (optional) then fires with the
  // close's status. If the writer has already stopped, descriptors are reclaimed
  // inline under the exclusive lock. The session pointer is invalid once `done`
  // runs (or immediately after the call if the service already stopped admission).
  void CloseSessionAsync(Session* session,
                         std::function<void(Result<void>)> done = nullptr);

  // Drops the session's cursors untouched since `cutoff` and updates the cursor
  // metrics. Called by the reactors' idle sweeps — safe concurrently with fetches,
  // which hold the table mutex.
  static size_t HarvestIdleCursors(Session* session,
                                   std::chrono::steady_clock::time_point cutoff);

  // Stops admission, completes everything already admitted, joins all threads.
  // Idempotent; the destructor calls it.
  void Stop();

  ServiceStats Stats() const;
  const ServiceOptions& options() const { return options_; }

 private:
  struct Pending {
    ServerRequest req;
    Session* session = nullptr;
    ResponseCallback done;  // fires exactly once with the response
    std::chrono::steady_clock::time_point enqueued;
  };

  static ServerResponse Overloaded(const std::string& why);

  // Resolves a request path against the session cwd ("" -> cwd itself).
  static std::string Absolutize(const Session& session, const std::string& path);

  // Removes `session` from the session table (it must already have executed its
  // kCloseSession, or the caller holds the exclusive lock after inline cleanup).
  void EraseSession(Session* session);

  void ReaderLoop();
  void RunRead(Pending& p);
  // Runs `req` under the shared lock the caller holds, releases the lock, records
  // the service time since `t0`, and completes `done`.
  void FinishRead(Session* session, const ServerRequest& req, uint64_t t0,
                  const ResponseCallback& done);
  void WriterLoop();
  // After a committed batch: builds a checkpoint if `requested` (waiting for any
  // publication in flight first, then for its own) or if the store's policy wants
  // one and none is in flight. Returns the requested checkpoint's status; a policy
  // checkpoint always returns OK.
  Result<void> TakeCheckpoint(DurableStore& store, bool requested);
  // True if `p` outlived its class deadline; completes it with kOverloaded if so.
  bool ShedIfExpired(Pending& p, std::chrono::milliseconds timeout);

  ServerResponse ExecuteRead(Session* session, const ServerRequest& req);
  ServerResponse ExecuteWrite(Session* session, const ServerRequest& req);
  void CloseSessionDescriptors(Session* session);

  // Writer-priority gate around the shared lock: readers wait while a writer is
  // pending so a stream of reads cannot starve the single writer.
  void ReaderLockShared();

  HacFileSystem& fs_;
  const ServiceOptions options_;

  // The events Stats() reports, exported as hac.service.* (support/metrics.h).
  // Declared before the worker threads that record on them.
  Counter admitted_reads_{metric_names::kServiceAdmittedReads};
  Counter admitted_writes_{metric_names::kServiceAdmittedWrites};
  Counter rejected_queue_full_{metric_names::kServiceRejectedQueueFull};
  Counter shed_deadline_{metric_names::kServiceShedDeadline};
  Counter inline_reads_{metric_names::kServiceInlineReads};
  Counter executed_reads_{metric_names::kServiceExecutedReads};
  Counter executed_writes_{metric_names::kServiceExecutedWrites};
  Counter write_batches_{metric_names::kServiceWriteBatches};
  Counter sessions_opened_{metric_names::kServiceSessionsOpened};
  Counter sessions_closed_{metric_names::kServiceSessionsClosed};
  std::atomic<uint64_t> largest_write_batch_ = 0;

  std::shared_mutex fs_lock_;
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  // Written under gate_mu_ (gate_cv_ waits on it); inline reads load it without.
  std::atomic<bool> writer_pending_ = false;

  BoundedMpscQueue<Pending> read_queue_;
  BoundedMpscQueue<Pending> write_queue_;
  std::vector<std::thread> readers_;
  std::thread writer_;
  std::atomic<bool> stopping_ = false;
  std::once_flag stop_once_;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
};

}  // namespace hac

#endif  // HAC_SERVER_HAC_SERVICE_H_
