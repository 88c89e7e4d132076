// Durability through the service stack (docs/DURABILITY.md "The contract at the
// service boundary"):
//
//   * group commit — a write's future resolves only after its batch's WAL frames are
//     fsynced, so an acknowledged response means the mutation is on disk;
//   * a WAL that cannot sync fails the whole batch (kBusy), never acknowledges;
//   * ServerOp::kCheckpoint persists an image on demand and succeeds as a no-op
//     without a durable store;
//   * Stop() seals the data directory with a final checkpoint;
//   * the SIGKILL test: a real hacd child process serving TCP is killed mid-load,
//     and a fresh process recovering the same --data-dir serves state identical
//     (digest + fsck) to a clean replay of every acknowledged operation.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
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

size_t CheckpointCount(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : fs_std::directory_iterator(dir)) {
    n += entry.path().filename().string().rfind("checkpoint-", 0) == 0 ? 1 : 0;
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
  EXPECT_GE(CheckpointCount(dir), 1u) << "threshold crossed but no checkpoint";
  service.Stop();
}

// The headline acceptance test: SIGKILL a child hacd process mid-write-load, then
// recover its data directory in this process and compare against a clean replay of
// every operation the child acknowledged.
//
// The child is forked BEFORE this process creates any service/server threads (fork
// only clones the calling thread; forking a multithreaded parent risks inheriting
// locked mutexes). The child builds its whole stack post-fork and reports its port
// over a pipe.
TEST(ServiceDurabilityTest, SigkilledServerRecoversAllAcknowledgedOperations) {
  const std::string dir = TestDir("Sigkill");

  int port_pipe[2];
  ASSERT_EQ(pipe(port_pipe), 0);
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // --- child: a real persistent hacd serving TCP ---
    close(port_pipe[0]);
    DurabilityOptions dopts;
    dopts.data_dir = dir;
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
  ASSERT_EQ(read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  close(port_pipe[0]);

  RemoteServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  struct LogicalOp {
    enum Kind { kMkdir, kWrite, kSMkdir, kRename, kUnlink } kind;
    std::string a, b;
  };
  const std::vector<LogicalOp> ops = {
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
  auto apply = [](ClientApi& c, const LogicalOp& op) -> Result<void> {
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
  };
  for (const LogicalOp& op : ops) {
    // Synchronous client: once this returns OK the server acknowledged, which with
    // a durable store means the frames are fsynced.
    ASSERT_TRUE(apply(client, op).ok()) << op.a;
  }

  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  client.Disconnect();

  // --- recover the data directory in this process ---
  DurabilityOptions dopts;
  dopts.data_dir = dir;
  auto store = DurableStore::Open(dopts);
  ASSERT_TRUE(store.ok());
  auto recovered = store.value()->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error().ToString();
  EXPECT_FALSE(store.value()->recovery_info().tail_truncated)
      << store.value()->recovery_info().detail;
  FsckReport report = RunFsck(*recovered.value());
  EXPECT_TRUE(report.Clean()) << report.ToString();

  // --- the clean serial replay reference, through an in-process service ---
  HacFileSystem reference;
  {
    HacService ref_service(reference);
    ServiceClient ref_client(ref_service);
    for (const LogicalOp& op : ops) {
      ASSERT_TRUE(apply(ref_client, op).ok());
    }
    ref_service.Stop();
  }
  ASSERT_TRUE(reference.Reindex().ok());
  ASSERT_TRUE(recovered.value()->Reindex().ok());
  EXPECT_EQ(StateDigest(*recovered.value()), StateDigest(reference))
      << "recovered state diverges from the clean replay of acknowledged ops";

  // Spot checks on top of the digest.
  auto e = recovered.value()->ReadFileToString("/docs/e.txt");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value(), "epsilon survives the kill");
  EXPECT_FALSE(recovered.value()->Exists("/docs/d.txt"));
  EXPECT_TRUE(recovered.value()->Exists("/docs/renamed.txt"));
}

}  // namespace
}  // namespace hac
