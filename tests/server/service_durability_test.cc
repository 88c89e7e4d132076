// Durability through the service stack (docs/DURABILITY.md "The contract at the
// service boundary"):
//
//   * group commit — a write's future resolves only after its batch's WAL frames are
//     fsynced, so an acknowledged response means the mutation is on disk;
//   * a WAL that cannot sync fails the whole batch (kBusy), never acknowledges;
//   * ServerOp::kCheckpoint persists an image on demand and succeeds as a no-op
//     without a durable store;
//   * Stop() seals the data directory with a final checkpoint, also while a policy
//     checkpoint is still being published and clients are reading and writing;
//   * the SIGKILL tests: a real hacd child process serving TCP is killed mid-load
//     (in the second, with policy checkpoints publishing throughout), and a fresh
//     process recovering the same --data-dir serves state identical (digest + fsck)
//     to a clean replay of every acknowledged operation.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/durability.h"
#include "src/core/hac_file_system.h"
#include "src/server/client.h"
#include "src/server/hac_service.h"
#include "src/server/tcp_client.h"
#include "src/server/tcp_server.h"
#include "src/tools/fsck.h"

namespace hac {
namespace {

namespace fs_std = std::filesystem;

std::string TestDir(const std::string& name) {
  fs_std::path dir = fs_std::current_path() / "service_durability_data" / name;
  fs_std::remove_all(dir);
  fs_std::create_directories(dir);
  return dir.string();
}

std::vector<std::string> WalFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs_std::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      out.push_back(entry.path().string());
    }
  }
  return out;
}

// Published checkpoints only: a checkpoint-*.hacs.tmp is an image still being
// written (or one a crash cut short).
size_t CheckpointCount(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : fs_std::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    n += name.rfind("checkpoint-", 0) == 0 && entry.path().extension() == ".hacs" ? 1 : 0;
  }
  return n;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(ServiceDurabilityTest, AcknowledgedWritesAreOnDiskBeforeStop) {
  const std::string dir = TestDir("AckedOnDisk");
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  auto store = DurableStore::Open(dopts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());

  ServiceOptions sopts;
  sopts.durable_store = store.value().get();
  HacService service(*fs.value(), sopts);
  ServiceClient client(service);
  ASSERT_TRUE(client.Mkdir("/d").ok());
  ASSERT_TRUE(client.WriteFile("/d/a.txt", "acknowledged alpha").ok());
  ASSERT_TRUE(client.WriteFile("/d/b.txt", "acknowledged beta").ok());

  // The futures resolved, so — before Stop(), before any checkpoint — the frames
  // must already be durable in the WAL.
  bool found_beta = false;
  for (const std::string& wal : WalFiles(dir)) {
    bool truncated = false;
    auto frames = DurableStore::DecodeFrames(ReadFileBytes(wal), &truncated, nullptr);
    EXPECT_FALSE(truncated);
    for (const auto& frame : frames) {
      found_beta |= frame.record.op == JournalOp::kFileWritten &&
                    frame.record.a == "/d/b.txt" &&
                    frame.record.b == "acknowledged beta";
    }
  }
  EXPECT_TRUE(found_beta) << "acknowledged write missing from the WAL";

  // Stop() seals with a final checkpoint; a reopen then replays nothing.
  service.Stop();
  EXPECT_GE(CheckpointCount(dir), 1u);
  auto reopened = DurableStore::Open(dopts);
  ASSERT_TRUE(reopened.ok());
  auto recovered = reopened.value()->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(reopened.value()->recovery_info().replayed_records, 0u);
  auto content = recovered.value()->ReadFileToString("/d/a.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "acknowledged alpha");
}

TEST(ServiceDurabilityTest, WalFailureFailsTheBatchInsteadOfAcknowledging) {
  const std::string dir = TestDir("WalFailure");
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  dopts.wal_fault = FaultSpec::Parse("crash_after:2");
  auto store = DurableStore::Open(dopts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());

  ServiceOptions sopts;
  sopts.durable_store = store.value().get();
  HacService service(*fs.value(), sopts);
  ServiceClient client(service);
  // Mkdir is one frame; the file write crosses the crash_after:2 threshold, so its
  // batch cannot sync and must come back as an error, not an ack.
  ASSERT_TRUE(client.Mkdir("/d").ok());
  auto w = client.WriteFile("/d/a.txt", "never acknowledged");
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error().code, ErrorCode::kBusy);
  // And every later write keeps failing — the store is "crashed".
  EXPECT_FALSE(client.Mkdir("/e").ok());
  service.Stop();
}

TEST(ServiceDurabilityTest, CheckpointOpPersistsAnImageOnDemand) {
  const std::string dir = TestDir("CheckpointOp");
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  auto store = DurableStore::Open(dopts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());

  ServiceOptions sopts;
  sopts.durable_store = store.value().get();
  {
    HacService service(*fs.value(), sopts);
    ServiceClient client(service);
    ASSERT_TRUE(client.WriteFile("/a.txt", "before the checkpoint").ok());
    EXPECT_EQ(CheckpointCount(dir), 0u);
    ASSERT_TRUE(client.Checkpoint().ok());
    EXPECT_EQ(CheckpointCount(dir), 1u);
  }
}

TEST(ServiceDurabilityTest, CheckpointOpIsANoOpWithoutADataDir) {
  HacFileSystem fs;
  HacService service(fs);  // no durable_store
  ServiceClient client(service);
  EXPECT_TRUE(client.Checkpoint().ok());
}

TEST(ServiceDurabilityTest, PolicyCheckpointTriggersAutomatically) {
  const std::string dir = TestDir("PolicyCheckpoint");
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  dopts.checkpoint_interval_records = 2;  // aggressively low for the test
  auto store = DurableStore::Open(dopts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());

  ServiceOptions sopts;
  sopts.durable_store = store.value().get();
  HacService service(*fs.value(), sopts);
  ServiceClient client(service);
  ASSERT_TRUE(client.Mkdir("/a").ok());
  ASSERT_TRUE(client.Mkdir("/b").ok());
  ASSERT_TRUE(client.Mkdir("/c").ok());
  // The writer acknowledges before it builds the image, and a publisher thread
  // writes it, so the image appears shortly after the acknowledgement.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CheckpointCount(dir) == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(CheckpointCount(dir), 1u) << "threshold crossed but no checkpoint";
  service.Stop();
}

// Two writers and two readers (Stat, ReadDir) run while policy checkpoints publish
// back to back; Stop() lands while a publication is in flight. The sealed directory
// must recover to exactly the live state.
TEST(ServiceDurabilityTest, StopDuringPublicationWithReadersAndWritersRecoversLiveState) {
  const std::string dir = TestDir("StopDuringPublication");
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  dopts.checkpoint_interval_records = 8;
  auto store = DurableStore::Open(dopts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs.value()->Mkdir("/w0").ok());
  ASSERT_TRUE(fs.value()->Mkdir("/w1").ok());
  ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());

  ServiceOptions sopts;
  sopts.durable_store = store.value().get();
  HacService service(*fs.value(), sopts);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> clients;
  for (int w = 0; w < 2; ++w) {
    clients.emplace_back([&, w] {
      ServiceClient c(service);
      for (int i = 0; !stop.load(); ++i) {
        const std::string path = "/w" + std::to_string(w) + "/f" + std::to_string(i % 64);
        if (!c.WriteFile(path, "fingerprint " + std::to_string(i)).ok()) {
          return;  // the service is stopping
        }
        acked.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    clients.emplace_back([&, r] {
      ServiceClient c(service);
      while (!stop.load()) {
        if (r == 0) {
          (void)c.StatPath("/w0");
        } else {
          (void)c.ReadDir("/w1");
        }
      }
    });
  }
  // Wait for enough load that several checkpoints have been published, then for a
  // publication to be in flight, and stop the service under it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((acked.load() < 200 || CheckpointCount(dir) == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (!store.value()->publishing() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool in_flight = store.value()->publishing();
  service.Stop();
  stop = true;
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_GE(acked.load(), 200u);
  EXPECT_TRUE(in_flight) << "no publication was seen in flight before Stop()";
  EXPECT_FALSE(store.value()->publishing());
  const uint64_t live = StateDigest(*fs.value());

  auto reopened = DurableStore::Open(dopts);
  ASSERT_TRUE(reopened.ok());
  auto recovered = reopened.value()->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error().ToString();
  const RecoveryInfo& info = reopened.value()->recovery_info();
  EXPECT_EQ(info.replayed_records, 0u) << "Stop() seals with a final checkpoint";
  EXPECT_FALSE(info.tail_truncated) << info.detail;
  EXPECT_EQ(StateDigest(*recovered.value()), live);
  EXPECT_TRUE(RunFsck(*recovered.value()).Clean());
  EXPECT_LE(CheckpointCount(dir), 2u);
}

struct LogicalOp {
  enum Kind { kMkdir, kWrite, kSMkdir, kRename, kUnlink } kind;
  std::string a, b;
};

Result<void> ApplyOp(ClientApi& c, const LogicalOp& op) {
  switch (op.kind) {
    case LogicalOp::kMkdir:
      return c.Mkdir(op.a);
    case LogicalOp::kWrite:
      return c.WriteFile(op.a, op.b);
    case LogicalOp::kSMkdir:
      return c.SMkdir(op.a, op.b);
    case LogicalOp::kRename:
      return c.Rename(op.a, op.b);
    case LogicalOp::kUnlink:
      return c.Unlink(op.a);
  }
  return OkResult();
}

std::vector<LogicalOp> BaseOps() {
  return {
      {LogicalOp::kMkdir, "/docs", ""},
      {LogicalOp::kWrite, "/docs/a.txt", "alpha fingerprint evidence"},
      {LogicalOp::kWrite, "/docs/b.txt", "beta dental records"},
      {LogicalOp::kSMkdir, "/sem", "fingerprint OR dental"},
      {LogicalOp::kWrite, "/docs/c.txt", "gamma fingerprint dental"},
      {LogicalOp::kRename, "/docs/b.txt", "/docs/renamed.txt"},
      {LogicalOp::kWrite, "/docs/d.txt", "delta to be deleted"},
      {LogicalOp::kUnlink, "/docs/d.txt", ""},
      {LogicalOp::kWrite, "/docs/e.txt", "epsilon survives the kill"},
  };
}

// SIGKILLs a child hacd process mid-write-load, then recovers its data directory in
// this process and compares against a clean replay of every operation the child
// acknowledged. Returns the recovery info.
//
// The child is forked BEFORE this process creates any service/server threads (fork
// only clones the calling thread; forking a multithreaded parent risks inheriting
// locked mutexes). The child builds its whole stack post-fork and reports its port
// over a pipe.
RecoveryInfo KillMidLoadAndRecover(const std::string& name,
                                   uint64_t checkpoint_interval_records,
                                   const std::vector<LogicalOp>& ops) {
  const std::string dir = TestDir(name);
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  dopts.checkpoint_interval_records = checkpoint_interval_records;

  // Neither failure may fall through: kill(-1, SIGKILL) below would signal every
  // process this one may signal, and a failed pipe() leaves its fds unset.
  int port_pipe[2];
  if (pipe(port_pipe) != 0) {
    ADD_FAILURE() << "pipe: " << std::strerror(errno);
    return {};
  }
  const pid_t child = fork();
  if (child < 0) {
    ADD_FAILURE() << "fork: " << std::strerror(errno);
    close(port_pipe[0]);
    close(port_pipe[1]);
    return {};
  }
  if (child == 0) {
    // --- child: a real persistent hacd serving TCP ---
    close(port_pipe[0]);
    auto store = DurableStore::Open(dopts);
    if (!store.ok()) _exit(10);
    auto fs = store.value()->Recover();
    if (!fs.ok()) _exit(11);
    ServiceOptions sopts;
    sopts.durable_store = store.value().get();
    HacService service(*fs.value(), sopts);
    TcpServerOptions topts;
    topts.port = 0;
    TcpServer server(service, topts);
    if (!server.Start().ok()) _exit(12);
    uint16_t port = server.port();
    if (write(port_pipe[1], &port, sizeof(port)) != sizeof(port)) _exit(13);
    close(port_pipe[1]);
    for (;;) {
      pause();  // wait for the SIGKILL; never a clean shutdown
    }
  }

  // --- parent: drive acknowledged load over TCP, then kill -9 ---
  close(port_pipe[1]);
  uint16_t port = 0;
  EXPECT_EQ(read(port_pipe[0], &port, sizeof(port)), static_cast<ssize_t>(sizeof(port)));
  close(port_pipe[0]);

  RemoteServiceClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", port).ok());
  for (const LogicalOp& op : ops) {
    // Synchronous client: once this returns OK the server acknowledged, which with
    // a durable store means the frames are fsynced.
    Result<void> applied = ApplyOp(client, op);
    EXPECT_TRUE(applied.ok()) << op.a;
    if (!applied.ok()) {
      break;
    }
  }

  EXPECT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  EXPECT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status));
  client.Disconnect();

  // --- recover the data directory in this process ---
  auto store = DurableStore::Open(dopts);
  if (!store.ok()) {
    ADD_FAILURE() << store.error().ToString();
    return {};
  }
  auto recovered = store.value()->Recover();
  if (!recovered.ok()) {
    ADD_FAILURE() << recovered.error().ToString();
    return {};
  }
  const RecoveryInfo info = store.value()->recovery_info();
  EXPECT_FALSE(info.tail_truncated) << info.detail;
  FsckReport report = RunFsck(*recovered.value());
  EXPECT_TRUE(report.Clean()) << report.ToString();

  // --- the clean serial replay reference, through an in-process service ---
  HacFileSystem reference;
  {
    HacService ref_service(reference);
    ServiceClient ref_client(ref_service);
    for (const LogicalOp& op : ops) {
      EXPECT_TRUE(ApplyOp(ref_client, op).ok());
    }
    ref_service.Stop();
  }
  EXPECT_TRUE(reference.Reindex().ok());
  EXPECT_TRUE(recovered.value()->Reindex().ok());
  EXPECT_EQ(StateDigest(*recovered.value()), StateDigest(reference))
      << "recovered state diverges from the clean replay of acknowledged ops";

  // Spot checks on top of the digest.
  auto e = recovered.value()->ReadFileToString("/docs/e.txt");
  EXPECT_TRUE(e.ok() && e.value() == "epsilon survives the kill");
  EXPECT_FALSE(recovered.value()->Exists("/docs/d.txt"));
  EXPECT_TRUE(recovered.value()->Exists("/docs/renamed.txt"));
  return info;
}

// The headline acceptance test, under the default checkpoint policy: nine ops never
// reach it, so recovery replays the whole log from genesis.
TEST(ServiceDurabilityTest, SigkilledServerRecoversAllAcknowledgedOperations) {
  const RecoveryInfo info = KillMidLoadAndRecover(
      "Sigkill", DurabilityOptions{}.checkpoint_interval_records, BaseOps());
  EXPECT_EQ(info.checkpoint_lsn, 0u);
  EXPECT_GT(info.replayed_records, 0u);
}

// The same kill with a checkpoint due every four records: policy checkpoints build
// and publish throughout the load, the last ones while the kill lands, so the
// directory may hold a temp image, a segment rotated for an image never renamed,
// and segments a publication has not pruned yet.
TEST(ServiceDurabilityTest, SigkilledServerMidPublicationRecoversAllAcknowledgedOperations) {
  std::vector<LogicalOp> ops = BaseOps();
  for (int i = 0; i < 150; ++i) {
    ops.push_back({LogicalOp::kWrite, "/docs/bulk" + std::to_string(i % 40) + ".txt",
                   "bulk fingerprint " + std::to_string(i)});
  }
  const RecoveryInfo info = KillMidLoadAndRecover("SigkillMidPublication", 4, ops);
  EXPECT_GT(info.checkpoint_lsn, 0u) << "no policy checkpoint was published";
}

}  // namespace
}  // namespace hac
