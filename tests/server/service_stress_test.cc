// Concurrency stress for the hacd service layer: 8 threads (4 writer sessions, 4
// reader sessions) hammer one HacService. The writers issue per-thread-disjoint
// mutation logs (distinct paths, own semantic directories), so the interleaving
// cannot change the final state: after a closing Reindex, the link classification of
// every directory must be byte-identical to a single-threaded replay of the same
// logs on a fresh facade. The readers run unchecked queries throughout — their job
// is to race the writer thread under the shared lock (this test is the
// HAC_SANITIZE=thread gate registered in tests/CMakeLists.txt).
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/hac_service.h"
#include "src/support/json.h"
#include "src/support/trace.h"

namespace hac {
namespace {

constexpr int kWriterThreads = 4;
constexpr int kReaderThreads = 4;
constexpr int kFilesPerWriter = 24;

struct Op {
  enum Kind { kWriteFile, kUnlink, kMkdir, kSMkdir, kProhibit, kReindex } kind;
  std::string path;
  std::string aux;
};

// The deterministic mutation log of writer thread `t`. All paths are disjoint across
// threads, so the logs commute and any interleaving converges to the serial state.
std::vector<Op> WriterLog(int t) {
  std::vector<Op> ops;
  const std::string tid = std::to_string(t);
  ops.push_back({Op::kSMkdir, "/view" + tid, "term" + tid});
  ops.push_back({Op::kMkdir, "/plain" + tid, ""});
  for (int i = 0; i < kFilesPerWriter; ++i) {
    ops.push_back({Op::kWriteFile, "/corpus/t" + tid + "_" + std::to_string(i) + ".txt",
                   "corpus term" + std::to_string(i % kWriterThreads) + " filler text"});
    if (i == kFilesPerWriter / 2 && t == 0) {
      ops.push_back({Op::kReindex, "", ""});
    }
  }
  for (int i = 0; i < kFilesPerWriter; i += 5) {
    ops.push_back({Op::kUnlink, "/corpus/t" + tid + "_" + std::to_string(i) + ".txt", ""});
  }
  // Prohibit this thread's (pre-indexed) seed file in the shared /all view.
  ops.push_back({Op::kProhibit, "/all", "/corpus/seed" + tid + ".txt"});
  return ops;
}

void SeedCorpus(HacFileSystem& fs) {
  ASSERT_TRUE(fs.Mkdir("/corpus").ok());
  for (int t = 0; t < kWriterThreads; ++t) {
    ASSERT_TRUE(fs.WriteFile("/corpus/seed" + std::to_string(t) + ".txt",
                             "corpus seed term" + std::to_string(t))
                    .ok());
  }
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/all", "corpus").ok());
}

void ApplyOp(ServiceClient& client, const Op& op) {
  switch (op.kind) {
    case Op::kWriteFile:
      ASSERT_TRUE(client.WriteFile(op.path, op.aux).ok()) << op.path;
      break;
    case Op::kUnlink:
      ASSERT_TRUE(client.Unlink(op.path).ok()) << op.path;
      break;
    case Op::kMkdir:
      ASSERT_TRUE(client.Mkdir(op.path).ok()) << op.path;
      break;
    case Op::kSMkdir:
      ASSERT_TRUE(client.SMkdir(op.path, op.aux).ok()) << op.path;
      break;
    case Op::kProhibit:
      ASSERT_TRUE(client.Prohibit(op.path, op.aux).ok()) << op.path;
      break;
    case Op::kReindex:
      ASSERT_TRUE(client.Reindex().ok());
      break;
  }
}

void ApplyOpDirect(HacFileSystem& fs, const Op& op) {
  switch (op.kind) {
    case Op::kWriteFile:
      ASSERT_TRUE(fs.WriteFile(op.path, op.aux).ok()) << op.path;
      break;
    case Op::kUnlink:
      ASSERT_TRUE(fs.Unlink(op.path).ok()) << op.path;
      break;
    case Op::kMkdir:
      ASSERT_TRUE(fs.Mkdir(op.path).ok()) << op.path;
      break;
    case Op::kSMkdir:
      ASSERT_TRUE(fs.SMkdir(op.path, op.aux).ok()) << op.path;
      break;
    case Op::kProhibit:
      ASSERT_TRUE(fs.Prohibit(op.path, op.aux).ok()) << op.path;
      break;
    case Op::kReindex:
      ASSERT_TRUE(fs.Reindex().ok());
      break;
  }
}

// Canonical, order-independent rendering of a directory's full link classification.
std::vector<std::string> CanonicalLinks(HacFileSystem& fs, const std::string& dir) {
  auto links = fs.GetLinkClasses(dir);
  EXPECT_TRUE(links.ok()) << dir;
  std::vector<std::string> out;
  if (!links.ok()) {
    return out;
  }
  for (const auto& [name, target] : links.value().permanent) {
    out.push_back("P " + name + " -> " + target);
  }
  for (const auto& [name, target] : links.value().transient) {
    out.push_back("T " + name + " -> " + target);
  }
  for (const auto& target : links.value().prohibited) {
    out.push_back("X " + target);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ServiceStressTest, MixedThreadsConvergeToSerialReplay) {
  HacFileSystem fs;
  SeedCorpus(fs);

  std::vector<std::vector<Op>> logs;
  for (int t = 0; t < kWriterThreads; ++t) {
    logs.push_back(WriterLog(t));
  }

  {
    HacService service(fs);
    std::atomic<bool> writers_done = false;
    std::vector<std::thread> threads;

    for (int t = 0; t < kWriterThreads; ++t) {
      threads.emplace_back([&service, &logs, t] {
        ServiceClient client(service);
        for (const Op& op : logs[static_cast<size_t>(t)]) {
          ApplyOp(client, op);
        }
      });
    }
    for (int t = 0; t < kReaderThreads; ++t) {
      threads.emplace_back([&service, &writers_done, t] {
        ServiceClient client(service);
        const std::string query = "term" + std::to_string(t % kWriterThreads);
        while (!writers_done.load(std::memory_order_acquire)) {
          // Unchecked results: these exist to race the writer under the shared lock.
          (void)client.ReadDir("/all");
          (void)client.Search(query);
          (void)client.StatPath("/corpus/seed0.txt");
          // Transient links are served from the link tables: stat, lstat and
          // readlink walk them while the writer edits them.
          (void)client.StatPath("/all/seed0.txt");
          (void)client.LstatPath("/all/seed1.txt");
          (void)client.ReadLink("/all/seed1.txt");
          (void)client.GetLinkClasses("/all");
          (void)client.Stats();
        }
      });
    }

    for (int t = 0; t < kWriterThreads; ++t) {
      threads[static_cast<size_t>(t)].join();
    }
    writers_done.store(true, std::memory_order_release);
    for (size_t t = kWriterThreads; t < threads.size(); ++t) {
      threads[t].join();
    }

    // The writer thread executed every admitted mutation.
    auto stats = service.Stats();
    EXPECT_EQ(stats.rejected_queue_full, 0u);
    EXPECT_EQ(stats.shed_deadline, 0u);
    EXPECT_GE(stats.executed_writes, uint64_t(kWriterThreads));
  }
  // Closing pass: make data consistency current so link sets are canonical.
  ASSERT_TRUE(fs.Reindex().ok());

  // Serial replay of the identical logs, thread by thread, on a fresh facade.
  HacFileSystem serial;
  SeedCorpus(serial);
  for (const auto& log : logs) {
    for (const Op& op : log) {
      ApplyOpDirect(serial, op);
    }
  }
  ASSERT_TRUE(serial.Reindex().ok());

  std::vector<std::string> dirs = {"/all"};
  for (int t = 0; t < kWriterThreads; ++t) {
    dirs.push_back("/view" + std::to_string(t));
  }
  for (const auto& dir : dirs) {
    EXPECT_EQ(CanonicalLinks(fs, dir), CanonicalLinks(serial, dir)) << dir;
  }
  // And the one-shot search surface agrees too.
  for (int t = 0; t < kWriterThreads; ++t) {
    const std::string query = "term" + std::to_string(t);
    EXPECT_EQ(fs.Search(query).value(), serial.Search(query).value()) << query;
  }
}

// Introspection hammered concurrently with the full mixed read/write load: every
// snapshot must be valid JSON (registry iteration and the trace-ring claim protocol
// race live recording here — the TSan gate runs this binary), and kIntrospect must
// never be rejected or shed, even when the queues are busy.
TEST(ServiceStressTest, IntrospectStaysValidAndUnsheddableUnderLoad) {
  HacFileSystem fs;
  SeedCorpus(fs);

  std::vector<std::vector<Op>> logs;
  for (int t = 0; t < kWriterThreads; ++t) {
    logs.push_back(WriterLog(t));
  }

  HacService service(fs);
  std::atomic<bool> writers_done = false;
  std::atomic<uint64_t> introspect_calls = 0;
  std::vector<std::thread> threads;

  for (int t = 0; t < kWriterThreads; ++t) {
    threads.emplace_back([&service, &logs, t] {
      ServiceClient client(service);
      for (const Op& op : logs[static_cast<size_t>(t)]) {
        ApplyOp(client, op);
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&service, &writers_done, &introspect_calls, t] {
      ServiceClient client(service);
      while (!writers_done.load(std::memory_order_acquire)) {
        auto stats = client.Introspect("stats");
        ASSERT_TRUE(stats.ok()) << stats.error().ToString();
        std::string err;
        ASSERT_TRUE(JsonValidate(stats.value(), &err)) << err;
        if (t % 2 == 0) {
          auto trace = client.Introspect("trace");
          ASSERT_TRUE(trace.ok()) << trace.error().ToString();
          ASSERT_TRUE(JsonValidate(trace.value(), &err)) << err;
        }
        introspect_calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int t = 0; t < kWriterThreads; ++t) {
    threads[static_cast<size_t>(t)].join();
  }
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriterThreads; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_GT(introspect_calls.load(), 0u);
  // Introspection is exempt from both admission-control mechanisms, so nothing
  // above may have been turned away (the mutation load alone never fills the
  // queues in this test — the first stress test asserts the same).
  auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.shed_deadline, 0u);
}

}  // namespace
}  // namespace hac
