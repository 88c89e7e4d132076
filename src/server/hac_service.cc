#include "src/server/hac_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/core/durability.h"
#include "src/index/query.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/vfs/path.h"

namespace hac {

namespace {

// Most queued mutations the writer coalesces into one BatchScope.
constexpr size_t kMaxWriteBatch = 64;

ServerResponse ErrorResponse(Error e) {
  ServerResponse r;
  r.error = std::move(e);
  return r;
}

// Events no HacService reports in Stats(); the rest are its own counters. Cursor
// counters stay here because the idle sweep (HarvestIdleCursors) has no service.
struct ServiceMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& introspect_requests = reg.GetCounter(metric_names::kServiceIntrospectRequests);
  Gauge& open_sessions = reg.GetGauge(metric_names::kServiceOpenSessions);
  Gauge& read_queue_depth = reg.GetGauge(metric_names::kServiceReadQueueDepth);
  Histogram& queue_wait_read_us = reg.GetHistogram(metric_names::kServiceQueueWaitReadUs);
  Histogram& queue_wait_write_us =
      reg.GetHistogram(metric_names::kServiceQueueWaitWriteUs);
  Histogram& service_time_read_us = reg.GetHistogram(metric_names::kServiceTimeReadUs);
  Histogram& service_time_write_us = reg.GetHistogram(metric_names::kServiceTimeWriteUs);
  Histogram& write_batch_size =
      reg.GetHistogram(metric_names::kServiceWriteBatchSize, "requests");
  Counter& cursor_opened = reg.GetCounter(metric_names::kServerCursorOpened);
  Counter& cursor_closed = reg.GetCounter(metric_names::kServerCursorClosed);
  Counter& cursor_harvested = reg.GetCounter(metric_names::kServerCursorHarvested);
  Gauge& cursor_open = reg.GetGauge(metric_names::kServerCursorOpen);
  Histogram& cursor_page_entries =
      reg.GetHistogram(metric_names::kServerCursorPageEntries, "entries");
  Histogram& cursor_page_bytes =
      reg.GetHistogram(metric_names::kServerCursorPageBytes, "bytes");
};

ServiceMetrics& GM() {
  static ServiceMetrics* m = new ServiceMetrics();
  return *m;
}

// The reads SubmitCallback may run on the submitting thread: each does a bounded
// amount of facade work, answers with a bounded response, and takes no lock but the
// shared fs lock. Left out: Ping (the read_hook tests park reader threads with it);
// ReadDir, Search, GetLinkClasses and ReadFd (unbounded responses); the cursor ops
// (a fetch holds the session's cursor-table mutex for a whole page, so the submitter
// could block behind it); Chdir and Stats. Introspect is answered before this.
bool RunsInline(ServerOp op) {
  switch (op) {
    case ServerOp::kStat:
    case ServerOp::kLstat:
    case ServerOp::kReadLink:
    case ServerOp::kGetQuery:
    case ServerOp::kSeek:
      return true;
    default:
      return false;
  }
}

uint64_t WaitedUs(const std::chrono::steady_clock::time_point& enqueued) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - enqueued)
                                   .count());
}

}  // namespace

HacService::HacService(HacFileSystem& fs, ServiceOptions options)
    : fs_(fs),
      options_(options),
      read_queue_(options.max_read_queue),
      write_queue_(std::max<size_t>(1, options.max_write_queue)) {
  const size_t workers = std::max<size_t>(1, options.read_workers);
  readers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    readers_.emplace_back([this] { ReaderLoop(); });
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

HacService::~HacService() { Stop(); }

ServerResponse HacService::Overloaded(const std::string& why) {
  return ErrorResponse(Error(ErrorCode::kOverloaded, why));
}

std::string HacService::Absolutize(const Session& session, const std::string& path) {
  if (!path.empty() && path.front() == '/') {
    return NormalizePath(path);
  }
  std::string cwd = session.cwd();
  if (path.empty()) {
    return cwd;
  }
  return NormalizePath(JoinPath(cwd == "/" ? "" : cwd, path));
}

Session* HacService::OpenSession() {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  sessions_.emplace_back(std::unique_ptr<Session>(new Session(next_session_id_++)));
  sessions_opened_.Inc();
  GM().open_sessions.Add(1);
  return sessions_.back().get();
}

void HacService::EraseSession(Session* session) {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  auto it = std::find_if(sessions_.begin(), sessions_.end(),
                         [&](const auto& s) { return s.get() == session; });
  if (it == sessions_.end()) {
    return;
  }
  sessions_.erase(it);
  sessions_closed_.Inc();
  GM().open_sessions.Add(-1);
}

Result<void> HacService::CloseSession(Session* session) {
  if (session == nullptr) {
    return Error(ErrorCode::kInvalidArgument, "null session");
  }
  auto closed = std::make_shared<std::promise<Result<void>>>();
  std::future<Result<void>> fut = closed->get_future();
  CloseSessionAsync(session,
                    [closed](Result<void> status) { closed->set_value(std::move(status)); });
  return fut.get();
}

void HacService::CloseSessionAsync(Session* session,
                                   std::function<void(Result<void>)> done) {
  if (session == nullptr) {
    if (done) {
      done(Error(ErrorCode::kInvalidArgument, "null session"));
    }
    return;
  }
  ServerRequest req;
  req.op = ServerOp::kCloseSession;
  SubmitCallback(session, std::move(req),
                 [this, session, done = std::move(done)](ServerResponse resp) {
                   if (!resp.ok() && resp.error.code == ErrorCode::kOverloaded) {
                     // Writer already stopped: reclaim descriptors inline. This runs
                     // on the caller's thread (the submission was rejected inline),
                     // and with the writer gone the exclusive lock is uncontended.
                     std::unique_lock<std::shared_mutex> lk(fs_lock_);
                     CloseSessionDescriptors(session);
                     resp.error = Error();
                   }
                   EraseSession(session);
                   if (done) {
                     done(resp.ok() ? OkResult() : Result<void>(resp.error));
                   }
                 });
}

void HacService::SubmitCallback(Session* session, ServerRequest req,
                                ResponseCallback done) {
  if (session == nullptr) {
    done(ErrorResponse(Error(ErrorCode::kInvalidArgument, "null session")));
    return;
  }
  if (req.op == ServerOp::kIntrospect) {
    // Introspection bypasses both queues and both shedding mechanisms: it reads
    // only the process-global metrics registry and trace ring (no fs lock, no
    // worker), so it stays answerable precisely when the service is overloaded
    // and the numbers matter most. Answered even while stopping.
    GM().introspect_requests.Inc();
    ServerResponse resp;
    resp.text = req.aux == "trace" ? TraceRing::Global().ExportChromeJson()
                                   : IntrospectStatsJson();
    done(std::move(resp));
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    done(Overloaded("service is stopping"));
    return;
  }
  // A bounded read runs here, on the submitting thread, when no writer is pending
  // and the shared lock is free; it never waits for either, and it never queued, so
  // there is nothing to shed.
  if (RunsInline(req.op) && !writer_pending_.load(std::memory_order_acquire) &&
      fs_lock_.try_lock_shared()) {
    admitted_reads_.Inc();
    inline_reads_.Inc();
    TraceSpan span(metric_names::kSpanServiceRead);
    span.Arg("op", static_cast<uint64_t>(req.op));
    span.Arg("inline", 1);
    FinishRead(session, req, TraceRing::NowUs(), done);
    return;
  }

  // Admission control: a full (or, once Stop() has run, closed) queue rejects.
  const bool read = IsReadOp(req.op);
  BoundedMpscQueue<Pending>& queue = read ? read_queue_ : write_queue_;
  Pending p{std::move(req), session, std::move(done), std::chrono::steady_clock::now()};
  if (!queue.TryPush(std::move(p))) {
    rejected_queue_full_.Inc();
    p.done(Overloaded(queue.closed() ? "service is stopping"
                      : read         ? "read queue full"
                                     : "write queue full"));
    return;
  }
  if (read) {
    admitted_reads_.Inc();
    GM().read_queue_depth.Set(static_cast<int64_t>(read_queue_.Size()));
  } else {
    admitted_writes_.Inc();
  }
}

std::future<ServerResponse> HacService::Submit(Session* session, ServerRequest req) {
  // std::function needs a copyable callable, hence the shared promise.
  auto done = std::make_shared<std::promise<ServerResponse>>();
  std::future<ServerResponse> fut = done->get_future();
  SubmitCallback(session, std::move(req),
                 [done](ServerResponse resp) { done->set_value(std::move(resp)); });
  return fut;
}

ServerResponse HacService::Call(Session* session, ServerRequest req) {
  return Submit(session, std::move(req)).get();
}

bool HacService::ShedIfExpired(Pending& p, std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) {
    return false;
  }
  if (std::chrono::steady_clock::now() - p.enqueued <= timeout) {
    return false;
  }
  shed_deadline_.Inc();
  p.done(Overloaded("request exceeded its queue deadline"));
  return true;
}

void HacService::ReaderLockShared() {
  {
    std::unique_lock<std::mutex> gate(gate_mu_);
    gate_cv_.wait(gate, [this] { return !writer_pending_; });
  }
  fs_lock_.lock_shared();
}

void HacService::ReaderLoop() {
  while (std::optional<Pending> p = read_queue_.Pop()) {
    GM().read_queue_depth.Set(static_cast<int64_t>(read_queue_.Size()));
    RunRead(*p);
  }
}

void HacService::RunRead(Pending& p) {
  if (ShedIfExpired(p, options_.read_queue_timeout)) {
    return;
  }
  GM().queue_wait_read_us.Record(WaitedUs(p.enqueued));
  TraceSpan span(metric_names::kSpanServiceRead);
  span.Arg("op", static_cast<uint64_t>(p.req.op));
  span.Arg("inline", 0);
  const uint64_t t0 = TraceRing::NowUs();
  ReaderLockShared();
  if (options_.read_hook) {
    options_.read_hook();
  }
  FinishRead(p.session, p.req, t0, p.done);
}

void HacService::FinishRead(Session* session, const ServerRequest& req, uint64_t t0,
                            const ResponseCallback& done) {
  ServerResponse resp = ExecuteRead(session, req);
  fs_lock_.unlock_shared();
  GM().service_time_read_us.Record(TraceRing::NowUs() - t0);
  executed_reads_.Inc();
  done(std::move(resp));
}

void HacService::WriterLoop() {
  while (std::optional<Pending> first = write_queue_.Pop()) {
    std::vector<Pending> batch;
    batch.push_back(std::move(*first));
    // Drain whatever else is already queued, up to the batch cap: these mutations
    // were issued concurrently, so one BatchScope (one propagation pass) covers them.
    while (batch.size() < kMaxWriteBatch) {
      std::optional<Pending> next = write_queue_.TryPop();
      if (!next.has_value()) {
        break;
      }
      batch.push_back(std::move(*next));
    }

    // Shed requests that waited past the write deadline before taking the lock.
    std::erase_if(batch, [this](Pending& p) {
      return ShedIfExpired(p, options_.write_queue_timeout);
    });
    if (batch.empty()) {
      continue;
    }

    for (const Pending& p : batch) {
      GM().queue_wait_write_us.Record(WaitedUs(p.enqueued));
    }
    GM().write_batch_size.Record(batch.size());
    DurableStore* const store = options_.durable_store;
    Result<void> commit = OkResult();
    // kCheckpoint requests of a committed batch: they complete once their image is
    // published, after the rest of the batch.
    std::vector<Pending> held;
    {
      TraceSpan span(metric_names::kSpanServiceWriteBatch);
      span.Arg("batch_size", batch.size());
      {
        std::lock_guard<std::mutex> gate(gate_mu_);
        writer_pending_ = true;
      }
      std::vector<ServerResponse> responses(batch.size());
      {
        std::unique_lock<std::shared_mutex> lk(fs_lock_);
        {
          BatchScope scope(fs_);
          for (size_t i = 0; i < batch.size(); ++i) {
            const uint64_t w0 = TraceRing::NowUs();
            responses[i] = ExecuteWrite(batch[i].session, batch[i].req);
            GM().service_time_write_us.Record(TraceRing::NowUs() - w0);
          }
          commit = scope.Commit();
        }
        if (store == nullptr) {
          fs_.DiscardJournal();  // no WAL will ever drain these records
        } else if (commit.ok()) {
          // Group commit to the WAL: the whole batch becomes durable with one fsync.
          // Must succeed before any request below completes — an acknowledged write
          // is on disk (docs/DURABILITY.md).
          commit = store->CommitFrom(fs_);
        }
        if (!commit.ok()) {
          // The group flush failed: every op that thought it succeeded did not settle.
          for (auto& r : responses) {
            if (r.ok()) {
              r.error = commit.error();
            }
          }
        }
      }
      {
        std::lock_guard<std::mutex> gate(gate_mu_);
        writer_pending_ = false;
      }
      gate_cv_.notify_all();

      write_batches_.Inc();
      uint64_t largest = largest_write_batch_.load(std::memory_order_relaxed);
      while (batch.size() > largest &&
             !largest_write_batch_.compare_exchange_weak(largest, batch.size(),
                                                         std::memory_order_relaxed)) {
      }
      // Group commit: requests complete only after the batch flush (and the WAL
      // fsync), so a client's next read observes its own settled write. No
      // checkpoint delays them.
      for (size_t i = 0; i < batch.size(); ++i) {
        if (store != nullptr && commit.ok() && batch[i].req.op == ServerOp::kCheckpoint) {
          held.push_back(std::move(batch[i]));
          continue;
        }
        executed_writes_.Inc();
        batch[i].done(std::move(responses[i]));
      }
    }
    // No checkpoint after a failed commit: the image would miss what the WAL lacks.
    if (store != nullptr && commit.ok()) {
      const Result<void> ck = TakeCheckpoint(*store, !held.empty());
      for (Pending& p : held) {
        executed_writes_.Inc();
        p.done(ck.ok() ? ServerResponse{} : ErrorResponse(ck.error()));
      }
    }
  }
}

Result<void> HacService::TakeCheckpoint(DurableStore& store, bool requested) {
  if (!requested && (!store.ShouldCheckpoint() || store.publishing())) {
    return OkResult();  // not due, or due again after a later batch
  }
  Result<void> built = OkResult();
  {
    // The image needs the state unchanged, not unread: readers keep running. The
    // batch is committed, so SaveState's flush finds nothing pending.
    // BeginCheckpoint first joins a policy publication in flight, which fails soft.
    std::shared_lock<std::shared_mutex> lk(fs_lock_);
    built = store.BeginCheckpoint(fs_);
  }
  if (!requested) {
    return OkResult();  // policy checkpoints fail soft: the WAL holds every ack
  }
  HAC_RETURN_IF_ERROR(built);
  return store.WaitCheckpoint();
}

ServerResponse HacService::ExecuteRead(Session* session, const ServerRequest& req) {
  ServerResponse resp;
  const std::string abs = Absolutize(*session, req.path);
  switch (req.op) {
    case ServerOp::kPing:
      resp.text = "pong";
      break;
    case ServerOp::kReadDir: {
      auto r = fs_.ReadDir(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.entries = std::move(r).value();
      }
      break;
    }
    case ServerOp::kSearch: {
      auto r = fs_.Search(req.aux, abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.paths = std::move(r).value();
      }
      break;
    }
    case ServerOp::kStat:
    case ServerOp::kLstat: {
      auto r = req.op == ServerOp::kStat ? fs_.StatPath(abs) : fs_.LstatPath(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.st = r.value();
      }
      break;
    }
    case ServerOp::kReadFd: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      resp.text.resize(req.size);
      auto r = fs_.Read(*sf.value(), resp.text.data(), req.size);
      if (!r.ok()) {
        resp.error = r.error();
        resp.text.clear();
      } else {
        resp.text.resize(r.value());
        resp.size = r.value();
      }
      break;
    }
    case ServerOp::kSeek: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      auto r = fs_.Seek(*sf.value(), req.size);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.size = r.value();
      }
      break;
    }
    case ServerOp::kGetQuery: {
      auto r = fs_.GetQuery(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.text = std::move(r).value();
      }
      break;
    }
    case ServerOp::kGetLinkClasses: {
      auto r = fs_.GetLinkClasses(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.links = std::move(r).value();
      }
      break;
    }
    case ServerOp::kReadLink: {
      auto r = fs_.ReadLink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.text = std::move(r).value();
      }
      break;
    }
    case ServerOp::kStats:
      resp.stats = fs_.Stats();
      break;
    case ServerOp::kIntrospect:
      // Normally intercepted in Submit (it must not be queued or shed); handled
      // here too so direct ExecuteRead callers get the same answer.
      GM().introspect_requests.Inc();
      resp.text = req.aux == "trace" ? TraceRing::Global().ExportChromeJson()
                                     : IntrospectStatsJson();
      break;
    case ServerOp::kChdir: {
      auto st = fs_.StatPath(abs);
      if (!st.ok()) {
        resp.error = st.error();
        break;
      }
      if (st.value().type != NodeType::kDirectory) {
        resp.error = Error(ErrorCode::kNotADirectory, abs + " is not a directory");
        break;
      }
      // Session-local state, guarded by the session: a pipelined relative read of
      // the same session may resolve against the cwd meanwhile.
      session->SetCwd(abs);
      resp.text = abs;
      break;
    }
    case ServerOp::kOpenCursor: {
      // Fail malformed queries and missing/non-directory scopes at open, not at
      // the first fetch; dir() binding is still settled per fetch.
      if (!req.aux.empty()) {
        auto parsed = ParseQuery(req.aux);
        if (!parsed.ok()) {
          resp.error = parsed.error();
          break;
        }
      }
      auto st = fs_.StatPath(abs);
      if (!st.ok()) {
        resp.error = st.error();
        break;
      }
      if (st.value().type != NodeType::kDirectory) {
        resp.error = Error(ErrorCode::kNotADirectory, abs + " is not a directory");
        break;
      }
      ServerCursor cur;
      cur.is_search = !req.aux.empty();
      cur.path = abs;
      cur.query = req.aux;
      cur.last_used = std::chrono::steady_clock::now();
      {
        std::lock_guard<std::mutex> lk(session->cursors_.mu);
        if (session->cursors_.OpenCount() >= options_.max_cursors_per_session) {
          resp.error = Error(
              ErrorCode::kOverloaded,
              "cursor table full (" +
                  std::to_string(options_.max_cursors_per_session) +
                  " per session); close or let the idle sweep harvest some");
          break;
        }
        resp.fd = session->cursors_.Open(std::move(cur));
      }
      GM().cursor_opened.Inc();
      GM().cursor_open.Add(1);
      break;
    }
    case ServerOp::kFetchPage: {
      // The table mutex is held across the whole fetch: the token update must
      // pair with the page it produced even when pipelined fetches overlap.
      std::lock_guard<std::mutex> lk(session->cursors_.mu);
      ServerCursor* cur = session->cursors_.Find(req.fd);
      if (cur == nullptr) {
        resp.error = Error(ErrorCode::kBadDescriptor,
                           "unknown cursor " + std::to_string(req.fd));
        break;
      }
      cur->last_used = std::chrono::steady_clock::now();
      const auto limit = static_cast<size_t>(req.size);  // 0 = facade default
      size_t delivered = 0, bytes = 0;
      if (cur->is_search) {
        auto r = fs_.SearchPage(cur->query, cur->path, &cur->token, limit, 0);
        if (!r.ok()) {
          resp.error = r.error();
        } else {
          SearchPageResult page = std::move(r).value();
          for (const std::string& p : page.paths) {
            bytes += p.size();
          }
          delivered = page.paths.size();
          resp.paths = std::move(page.paths);
          resp.size = page.has_more ? 1 : 0;
          cur->token = std::move(page.next);
          cur->exhausted = !page.has_more;
        }
      } else {
        auto r = fs_.ReadDirPage(cur->path, &cur->token, limit, 0);
        if (!r.ok()) {
          resp.error = r.error();
        } else {
          DirPageResult page = std::move(r).value();
          for (const DirEntry& e : page.entries) {
            bytes += e.name.size();
          }
          delivered = page.entries.size();
          resp.entries = std::move(page.entries);
          resp.size = page.has_more ? 1 : 0;
          cur->token = std::move(page.next);
          cur->exhausted = !page.has_more;
        }
      }
      if (!resp.ok()) {
        // Any fetch failure (a deleted directory, say) auto-closes: the client
        // restarts with a fresh kOpenCursor (docs/API.md).
        session->cursors_.Close(req.fd);
        GM().cursor_closed.Inc();
        GM().cursor_open.Add(-1);
        break;
      }
      GM().cursor_page_entries.Record(delivered);
      GM().cursor_page_bytes.Record(bytes);
      break;
    }
    case ServerOp::kCloseCursor: {
      std::lock_guard<std::mutex> lk(session->cursors_.mu);
      if (!session->cursors_.Close(req.fd)) {
        resp.error = Error(ErrorCode::kBadDescriptor,
                           "unknown cursor " + std::to_string(req.fd));
        break;
      }
      GM().cursor_closed.Inc();
      GM().cursor_open.Add(-1);
      break;
    }
    default:
      resp.error = Error(ErrorCode::kInvalidArgument, "write op routed to read path");
      break;
  }
  return resp;
}

ServerResponse HacService::ExecuteWrite(Session* session, const ServerRequest& req) {
  ServerResponse resp;
  const std::string abs = Absolutize(*session, req.path);
  switch (req.op) {
    case ServerOp::kOpen: {
      auto r = fs_.Open(abs, req.flags);
      if (!r.ok()) {
        resp.error = r.error();
        break;
      }
      resp.fd = session->fds_.Allocate(r.value());
      break;
    }
    case ServerOp::kClose: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      Fd hac_fd = *sf.value();
      (void)session->fds_.Release(req.fd);
      auto r = fs_.Close(hac_fd);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kWriteFd: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      auto r = fs_.Write(*sf.value(), req.aux.data(), req.aux.size());
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.size = r.value();
      }
      break;
    }
    case ServerOp::kWriteFile: {
      auto r = fs_.WriteFile(abs, req.aux);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kMkdir: {
      auto r = fs_.Mkdir(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSMkdir: {
      auto r = fs_.SMkdir(abs, req.aux);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSetQuery: {
      auto r = fs_.SetQuery(abs, req.aux);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kUnlink: {
      auto r = fs_.Unlink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kRmdir: {
      auto r = fs_.Rmdir(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kRename: {
      auto r = fs_.Rename(abs, Absolutize(*session, req.aux));
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSymlink: {
      // The target is kept verbatim (it may legitimately be relative).
      auto r = fs_.Symlink(req.aux, abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kPromoteLink: {
      auto r = fs_.PromoteLink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kDemoteLink: {
      auto r = fs_.DemoteLink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kProhibit: {
      auto r = fs_.Prohibit(abs, Absolutize(*session, req.aux));
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kUnprohibit: {
      auto r = fs_.Unprohibit(abs, Absolutize(*session, req.aux));
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kReindex: {
      auto r = req.path.empty() ? fs_.Reindex() : fs_.ReindexSubtree(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSSync: {
      auto r = fs_.SSync(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSAct: {
      auto r = fs_.SAct(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.paths = std::move(r).value();
      }
      break;
    }
    case ServerOp::kCloseSession:
      CloseSessionDescriptors(session);
      break;
    case ServerOp::kCheckpoint:
      // The actual checkpoint runs in WriterLoop after the batch flush + WAL commit
      // (the image must include this batch). Without a durable store it is a no-op.
      break;
    default:
      resp.error = Error(ErrorCode::kInvalidArgument, "read op routed to write path");
      break;
  }
  return resp;
}

void HacService::CloseSessionDescriptors(Session* session) {
  std::vector<std::pair<Fd, Fd>> open;  // session fd -> hac fd
  session->fds_.ForEachOpen([&](Fd fd, Fd hac_fd) { open.emplace_back(fd, hac_fd); });
  for (const auto& [fd, hac_fd] : open) {
    (void)fs_.Close(hac_fd);
    (void)session->fds_.Release(fd);
  }
  // Cursors die with the session (counted as closes, not idle harvests).
  size_t cursors;
  {
    std::lock_guard<std::mutex> lk(session->cursors().mu);
    cursors = session->cursors().HarvestIdle(std::chrono::steady_clock::time_point::max());
  }
  if (cursors > 0) {
    GM().cursor_closed.Inc(cursors);
    GM().cursor_open.Add(-static_cast<int64_t>(cursors));
  }
}

size_t HacService::HarvestIdleCursors(Session* session,
                                      std::chrono::steady_clock::time_point cutoff) {
  size_t n;
  {
    std::lock_guard<std::mutex> lk(session->cursors().mu);
    n = session->cursors().HarvestIdle(cutoff);
  }
  if (n > 0) {
    GM().cursor_harvested.Inc(n);
    GM().cursor_closed.Inc(n);
    GM().cursor_open.Add(-static_cast<int64_t>(n));
  }
  return n;
}

void HacService::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    write_queue_.Close();
    if (writer_.joinable()) {
      writer_.join();
    }
    if (options_.durable_store != nullptr) {
      // Seal the store: persist any journal tail the writer left behind, then take
      // a final checkpoint (after joining any publication still in flight) so the
      // next start recovers without WAL replay.
      (void)options_.durable_store->CommitFrom(fs_);
      (void)options_.durable_store->Checkpoint(fs_);
    }
    // Readers run every read admitted before the close, then exit.
    read_queue_.Close();
    for (std::thread& reader : readers_) {
      reader.join();
    }
  });
}

ServiceStats HacService::Stats() const {
  ServiceStats s;
  s.admitted_reads = admitted_reads_.Value();
  s.admitted_writes = admitted_writes_.Value();
  s.rejected_queue_full = rejected_queue_full_.Value();
  s.shed_deadline = shed_deadline_.Value();
  s.inline_reads = inline_reads_.Value();
  s.executed_reads = executed_reads_.Value();
  s.executed_writes = executed_writes_.Value();
  s.write_batches = write_batches_.Value();
  s.largest_write_batch = largest_write_batch_.load(std::memory_order_relaxed);
  s.sessions_opened = sessions_opened_.Value();
  s.sessions_closed = sessions_closed_.Value();
  return s;
}

}  // namespace hac
