// HacService scheduling tests: write batching, admission control (queue-full
// rejection and queue-deadline shedding) and which reads run on the submitting
// thread, made deterministic with the service's read_hook test hook. Client-visible
// behaviour (op parity, session isolation, descriptor lifecycle) lives in
// client_contract_test.cc, which runs the same assertions over both the in-process
// and the TCP transport.
#include "src/server/hac_service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"

namespace hac {
namespace {

using std::chrono::milliseconds;

ServerRequest MakeReq(ServerOp op, std::string path = "", std::string aux = "") {
  ServerRequest req;
  req.op = op;
  req.path = std::move(path);
  req.aux = std::move(aux);
  return req;
}

// Blocks the reader threads inside a read request (while it holds the shared lock) until
// Release() is called; Await() returns once a reader is parked inside the hook.
class ReadGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lk(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lk, [this] { return released_; });
    };
  }

  void AwaitEntered(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this, n] { return entered_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

// The response of one submission and the thread its callback ran on.
struct Completed {
  std::thread::id thread;
  ServerResponse resp;
};

Completed SubmitAndWait(HacService& service, Session* s, ServerRequest req) {
  auto done = std::make_shared<std::promise<Completed>>();
  std::future<Completed> fut = done->get_future();
  service.SubmitCallback(s, std::move(req), [done](ServerResponse resp) {
    done->set_value(Completed{std::this_thread::get_id(), std::move(resp)});
  });
  return fut.get();
}

class ServiceBasicTest : public ::testing::Test {
 protected:
  HacFileSystem fs_;
};

// With the writer idle, the bounded reads run on the submitting thread: the
// callback fires before SubmitCallback returns, and each counts once as admitted,
// inline and executed. Errors (a bad descriptor) run inline too.
TEST_F(ServiceBasicTest, BoundedReadsRunOnTheSubmittingThread) {
  ASSERT_TRUE(fs_.Mkdir("/docs").ok());
  ASSERT_TRUE(fs_.WriteFile("/docs/a.txt", "fingerprint").ok());
  ASSERT_TRUE(fs_.Symlink("/docs/a.txt", "/docs/link").ok());
  ASSERT_TRUE(fs_.Reindex().ok());
  ASSERT_TRUE(fs_.SMkdir("/fp", "fingerprint").ok());
  HacService service(fs_);
  Session* s = service.OpenSession();

  const ServiceStats before = service.Stats();
  Completed stat = SubmitAndWait(service, s, MakeReq(ServerOp::kStat, "/docs/a.txt"));
  EXPECT_EQ(stat.thread, std::this_thread::get_id());
  ASSERT_TRUE(stat.resp.ok()) << stat.resp.error.ToString();
  EXPECT_EQ(stat.resp.st.size, 11u);
  ServiceStats after = service.Stats();
  EXPECT_EQ(after.inline_reads - before.inline_reads, 1u);
  EXPECT_EQ(after.admitted_reads - before.admitted_reads, 1u);
  EXPECT_EQ(after.executed_reads - before.executed_reads, 1u);

  ServerRequest open = MakeReq(ServerOp::kOpen, "/docs/a.txt");
  open.flags = kOpenRead;
  ServerResponse opened = service.Call(s, open);
  ASSERT_TRUE(opened.ok());
  ServerRequest seek = MakeReq(ServerOp::kSeek);
  seek.fd = opened.fd;
  seek.size = 4;
  ServerRequest bad_seek = seek;
  bad_seek.fd = opened.fd + 100;
  const std::vector<ServerRequest> bounded = {
      MakeReq(ServerOp::kLstat, "/docs/link"), MakeReq(ServerOp::kReadLink, "/docs/link"),
      MakeReq(ServerOp::kGetQuery, "/fp"), seek, bad_seek,
      MakeReq(ServerOp::kStat, "/missing")};
  std::vector<Completed> answers;
  for (const ServerRequest& req : bounded) {
    const uint64_t inline0 = service.Stats().inline_reads;
    answers.push_back(SubmitAndWait(service, s, req));
    EXPECT_EQ(answers.back().thread, std::this_thread::get_id()) << ServerOpName(req.op);
    EXPECT_EQ(service.Stats().inline_reads - inline0, 1u) << ServerOpName(req.op);
  }
  EXPECT_EQ(answers[0].resp.st.type, NodeType::kSymlink);
  EXPECT_EQ(answers[1].resp.text, "/docs/a.txt");
  EXPECT_EQ(answers[2].resp.text, "fingerprint");
  EXPECT_EQ(answers[3].resp.size, 4u);
  EXPECT_EQ(answers[4].resp.error.code, ErrorCode::kBadDescriptor);
  EXPECT_EQ(answers[5].resp.error.code, ErrorCode::kNotFound);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

// Reads with unbounded responses, the cursor ops, Ping, Chdir and Stats always take
// a reader thread, however idle the writer is.
TEST_F(ServiceBasicTest, OtherReadsNeverRunInline) {
  ASSERT_TRUE(fs_.Mkdir("/docs").ok());
  ASSERT_TRUE(fs_.WriteFile("/docs/a.txt", "fingerprint").ok());
  ASSERT_TRUE(fs_.Reindex().ok());
  HacService service(fs_);
  Session* s = service.OpenSession();

  ServerRequest open = MakeReq(ServerOp::kOpen, "/docs/a.txt");
  open.flags = kOpenRead;
  ServerResponse opened = service.Call(s, open);
  ASSERT_TRUE(opened.ok());
  ServerRequest read_fd = MakeReq(ServerOp::kReadFd);
  read_fd.fd = opened.fd;
  read_fd.size = 4;
  Completed cursor = SubmitAndWait(service, s, MakeReq(ServerOp::kOpenCursor, "/docs"));
  EXPECT_NE(cursor.thread, std::this_thread::get_id());
  ASSERT_TRUE(cursor.resp.ok());
  ServerRequest fetch = MakeReq(ServerOp::kFetchPage);
  fetch.fd = cursor.resp.fd;
  ServerRequest close_cursor = MakeReq(ServerOp::kCloseCursor);
  close_cursor.fd = cursor.resp.fd;

  const uint64_t inline0 = service.Stats().inline_reads;
  const std::vector<ServerRequest> queued = {
      MakeReq(ServerOp::kReadDir, "/docs"),
      MakeReq(ServerOp::kSearch, "/", "fingerprint"),
      MakeReq(ServerOp::kGetLinkClasses, "/docs"),
      read_fd,
      fetch,
      close_cursor,
      MakeReq(ServerOp::kPing),
      MakeReq(ServerOp::kChdir, "/docs"),
      MakeReq(ServerOp::kStats)};
  for (const ServerRequest& req : queued) {
    Completed c = SubmitAndWait(service, s, req);
    EXPECT_NE(c.thread, std::this_thread::get_id()) << ServerOpName(req.op);
    EXPECT_TRUE(c.resp.ok()) << ServerOpName(req.op) << ": " << c.resp.error.ToString();
  }
  EXPECT_EQ(service.Stats().inline_reads, inline0);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

// A pending writer sends a bounded read to the queue. The parked reader holds the
// shared lock, so try_lock_shared() alone would still succeed there: only the
// writer-pending flag keeps the Stat from running ahead of the Mkdir it follows.
TEST_F(ServiceBasicTest, PendingWriterKeepsBoundedReadsQueued) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  auto parked = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  auto mkdir = service.Submit(s, MakeReq(ServerOp::kMkdir, "/x"));
  // Probe Stats run inline (their futures are ready at once) until the writer has
  // dequeued the Mkdir and raised the flag; the first one that queues proves it is
  // up, and it stays up until the parked read lets the writer in.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::future<ServerResponse> probe;
  bool pending = false;
  while (!pending && std::chrono::steady_clock::now() < deadline) {
    probe = service.Submit(s, MakeReq(ServerOp::kStat, "/"));
    pending = probe.wait_for(milliseconds(0)) != std::future_status::ready;
    if (!pending) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  }
  if (!pending) {
    gate.Release();
    FAIL() << "no Stat queued behind the writer";
  }
  const uint64_t inline0 = service.Stats().inline_reads;
  auto stat = service.Submit(s, MakeReq(ServerOp::kStat, "/x"));
  EXPECT_NE(stat.wait_for(milliseconds(0)), std::future_status::ready);
  EXPECT_EQ(service.Stats().inline_reads, inline0);

  gate.Release();
  EXPECT_TRUE(parked.get().ok());
  EXPECT_TRUE(mkdir.get().ok());
  EXPECT_TRUE(probe.get().ok());
  ServerResponse after = stat.get();
  EXPECT_TRUE(after.ok()) << after.error.ToString();  // inline, it would be kNotFound
  EXPECT_EQ(after.st.type, NodeType::kDirectory);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

// With no durable store nothing drains the journal, so the writer discards it after
// every batch (file writes journal their full bytes).
TEST_F(ServiceBasicTest, StorelessWriterDiscardsTheJournal) {
  ASSERT_TRUE(fs_.Mkdir("/docs").ok());  // journaled before the service starts
  ASSERT_GT(fs_.journal().SizeBytes(), 0u);
  HacService service(fs_);
  ServiceClient client(service);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client.WriteFile("/docs/f" + std::to_string(i), std::string(4096, 'x')).ok());
    EXPECT_EQ(fs_.journal().SizeBytes(), 0u) << i;
  }
  EXPECT_EQ(fs_.journal().PendingRecords(), 0u);
}

TEST_F(ServiceBasicTest, ConcurrentWritesCoalesceIntoBatches) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* reader = service.OpenSession();
  Session* writer = service.OpenSession();

  // Park a read inside the shared lock so the writer thread cannot commit.
  auto blocked_read = service.Submit(reader, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);

  std::vector<std::future<ServerResponse>> writes;
  for (int i = 0; i < 10; ++i) {
    writes.push_back(
        service.Submit(writer, MakeReq(ServerOp::kMkdir, "/d" + std::to_string(i))));
  }
  gate.Release();
  ASSERT_TRUE(blocked_read.get().ok());
  for (auto& w : writes) {
    ASSERT_TRUE(w.get().ok());
  }

  // All ten mutations were queued while the lock was held, so the writer drained
  // them in at most two BatchScope groups (however the dequeue interleaved with the
  // submission loop, one of the two groups holds at least half of them).
  auto stats = service.Stats();
  EXPECT_EQ(stats.executed_writes, 10u);
  EXPECT_LE(stats.write_batches, 2u);
  EXPECT_GE(stats.largest_write_batch, 5u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fs_.StatPath("/d" + std::to_string(i)).ok());
  }

  ASSERT_TRUE(service.CloseSession(reader).ok());
  ASSERT_TRUE(service.CloseSession(writer).ok());
}

TEST_F(ServiceBasicTest, ReadQueueFullRejectsWithOverloaded) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.max_read_queue = 2;
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  // First read occupies the single worker inside the hook...
  auto r1 = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  // ...so these two fill the admission window...
  auto r2 = service.Submit(s, MakeReq(ServerOp::kPing));
  auto r3 = service.Submit(s, MakeReq(ServerOp::kPing));
  // ...and the next is rejected, not queued.
  auto r4 = service.Submit(s, MakeReq(ServerOp::kPing));
  ServerResponse rejected = r4.get();
  EXPECT_EQ(rejected.error.code, ErrorCode::kOverloaded);

  gate.Release();
  EXPECT_TRUE(r1.get().ok());
  EXPECT_TRUE(r2.get().ok());
  EXPECT_TRUE(r3.get().ok());

  auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.executed_reads, 3u);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

TEST_F(ServiceBasicTest, ReadPastQueueDeadlineIsShed) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.read_queue_timeout = milliseconds(50);
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  auto r1 = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  auto r2 = service.Submit(s, MakeReq(ServerOp::kPing));
  // r2 waits in the pool behind the parked worker until well past its deadline.
  std::this_thread::sleep_for(milliseconds(120));
  gate.Release();

  EXPECT_TRUE(r1.get().ok());
  ServerResponse shed = r2.get();
  EXPECT_EQ(shed.error.code, ErrorCode::kOverloaded);
  EXPECT_EQ(service.Stats().shed_deadline, 1u);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

TEST_F(ServiceBasicTest, WriteAdmissionAndDeadlineShedding) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.max_write_queue = 2;
  opts.write_queue_timeout = milliseconds(50);
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  // Park a read on the shared lock, then let the writer thread dequeue one write and
  // block on the exclusive lock.
  auto blocked_read = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  auto w1 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w1"));
  std::this_thread::sleep_for(milliseconds(100));

  // The writer holds w1; the queue (capacity 2) takes w2+w3 and rejects w4 outright.
  auto w2 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w2"));
  auto w3 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w3"));
  auto w4 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w4"));
  EXPECT_EQ(w4.get().error.code, ErrorCode::kOverloaded);

  // Hold the lock past the write deadline: w1 passed its age check before blocking,
  // so it commits; w2+w3 are shed at dequeue time.
  std::this_thread::sleep_for(milliseconds(100));
  gate.Release();
  EXPECT_TRUE(blocked_read.get().ok());
  EXPECT_TRUE(w1.get().ok());
  EXPECT_EQ(w2.get().error.code, ErrorCode::kOverloaded);
  EXPECT_EQ(w3.get().error.code, ErrorCode::kOverloaded);

  EXPECT_TRUE(fs_.StatPath("/w1").ok());
  EXPECT_FALSE(fs_.StatPath("/w2").ok());
  auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.shed_deadline, 2u);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

// Stop() closes the read queue but still runs every read admitted before it: one read
// parked in the hook and two queued behind it all complete ok, and Stop() returns only
// after they have.
TEST_F(ServiceBasicTest, StopRunsAdmittedReadsThenRejects) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  auto r1 = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  auto r2 = service.Submit(s, MakeReq(ServerOp::kPing));
  auto r3 = service.Submit(s, MakeReq(ServerOp::kReadDir, "/"));

  std::atomic<bool> stopped = false;
  std::thread stopper([&] {
    service.Stop();
    stopped = true;
  });
  // Give Stop() time to close the read queue; it cannot return while a read is
  // parked in the hook.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(stopped.load());
  gate.Release();
  stopper.join();

  EXPECT_TRUE(r1.get().ok());
  EXPECT_TRUE(r2.get().ok());
  EXPECT_TRUE(r3.get().ok());
  ServerResponse after = service.Call(s, MakeReq(ServerOp::kPing));
  EXPECT_EQ(after.error.code, ErrorCode::kOverloaded);
  EXPECT_EQ(after.error.message, "service is stopping");
  EXPECT_EQ(service.Stats().executed_reads, 3u);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

TEST_F(ServiceBasicTest, StopCompletesAdmittedWorkThenRejects) {
  HacService service(fs_);
  Session* s = service.OpenSession();
  auto w = service.Submit(s, MakeReq(ServerOp::kMkdir, "/before_stop"));
  EXPECT_TRUE(w.get().ok());
  service.Stop();
  auto after = service.Call(s, MakeReq(ServerOp::kMkdir, "/after_stop"));
  EXPECT_EQ(after.error.code, ErrorCode::kOverloaded);
  EXPECT_FALSE(fs_.StatPath("/after_stop").ok());
  // CloseSession still reclaims the session after Stop.
  ASSERT_TRUE(service.CloseSession(s).ok());
}

}  // namespace
}  // namespace hac
