// Concurrency stress for server-side cursors: reader sessions stream pages from
// directory and search cursors while writer sessions mutate the tree. Cursors
// resume by position, so writes never fail a drain; the contract under race is
// checkable per drain. Writers elsewhere leave a drain exactly the seed set;
// writers in the drained directory leave it strictly ordered and duplicate-free,
// with every seed entry they never touched. This is a HAC_SANITIZE=thread gate
// registered in tests/CMakeLists.txt: fetches hold the per-session CursorTable
// mutex while the idle sweep and session teardown harvest concurrently.
#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/hac_service.h"

namespace hac {
namespace {

constexpr int kReaderThreads = 4;
constexpr int kWriterThreads = 2;
constexpr int kSeedFiles = 64;
constexpr int kWritesPerWriter = 40;
constexpr int kDrainsPerReader = 30;

class CursorStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_.emplace(fs_);
    ServiceClient setup(*service_);
    ASSERT_TRUE(setup.Mkdir("/corpus").ok());
    ASSERT_TRUE(setup.Mkdir("/churn").ok());
    for (int i = 0; i < kSeedFiles; ++i) {
      ASSERT_TRUE(setup
                      .WriteFile("/corpus/doc" + std::to_string(i) + ".txt",
                                 i % 2 ? "alpha body" : "bravo body")
                      .ok());
    }
    ASSERT_TRUE(setup.Reindex().ok());
  }

  void TearDown() override { service_->Stop(); }

  HacFileSystem fs_;
  std::optional<HacService> service_;
};

std::string SeedName(int i) { return "doc" + std::to_string(i) + ".txt"; }

// One drain of /corpus: a directory cursor, or a search for "alpha". Returns the
// delivered names in delivery order (name order, or DocId order for a search), or
// nothing if admission control refused a request — the only tolerated failure.
std::optional<std::vector<std::string>> Drain(ServiceClient& client, bool search) {
  auto cursor = search ? client.OpenCursor("/corpus", "alpha") : client.OpenCursor("/corpus");
  if (!cursor.ok()) {
    EXPECT_EQ(cursor.error().code, ErrorCode::kOverloaded) << cursor.error().ToString();
    return std::nullopt;
  }
  std::vector<std::string> names;
  for (;;) {
    auto page = client.FetchPage(cursor.value(), 7);
    if (!page.ok()) {  // fetch errors auto-close the cursor server-side
      EXPECT_EQ(page.error().code, ErrorCode::kOverloaded) << page.error().ToString();
      return std::nullopt;
    }
    for (auto& e : page.value().entries) {
      names.push_back(std::move(e.name));
    }
    for (const std::string& p : page.value().paths) {
      names.push_back(p.substr(p.rfind('/') + 1));
    }
    if (!page.value().has_more) {
      break;
    }
  }
  EXPECT_TRUE(client.CloseCursor(cursor.value()).ok());
  return names;
}

// Readers drain /corpus while writers add files under `writer_dir` and unlink the
// seeds below `touched`, reindexing as they go. Every completed drain is strictly
// ordered and holds every seed the writers never touched, each once; with the
// writers elsewhere it is exactly the seed set.
void DrainWhileWriting(HacService& service, const std::string& writer_dir, int touched) {
  std::atomic<uint64_t> drains{0};
  auto reader = [&](int tid) {
    ServiceClient client(service);
    for (int round = 0; round < kDrainsPerReader; ++round) {
      const bool search = (round + tid) % 2 == 0;
      auto names = Drain(client, search);
      if (!names.has_value()) {
        continue;
      }
      drains.fetch_add(1);
      std::vector<int> seeds;  // seed indices, in delivery order
      for (const std::string& name : *names) {
        if (name.rfind("doc", 0) == 0) {
          seeds.push_back(std::stoi(name.substr(3)));
        }
      }
      // A search delivers in DocId order, and the seeds were created in index
      // order before any writer ran; a directory delivers in name order.
      auto strictly_increasing = [](const auto& v) {
        return std::adjacent_find(v.begin(), v.end(), [](const auto& x, const auto& y) {
                 return x >= y;
               }) == v.end();
      };
      EXPECT_TRUE(search ? strictly_increasing(seeds) : strictly_increasing(*names));
      std::vector<int> expected;
      for (int i = touched; i < kSeedFiles; ++i) {
        if (!search || i % 2 == 1) {
          expected.push_back(i);
        }
      }
      if (writer_dir != "/corpus") {
        EXPECT_EQ(names->size(), expected.size());
      }
      std::sort(seeds.begin(), seeds.end());
      EXPECT_TRUE(std::includes(seeds.begin(), seeds.end(), expected.begin(),
                                expected.end()))
          << (search ? "search" : "readdir") << " drain lost an untouched seed";
    }
  };
  auto writer = [&](int tid) {
    ServiceClient client(service);
    for (int i = 0; i < kWritesPerWriter; ++i) {
      const std::string name = "w" + std::to_string(tid) + "_" + std::to_string(i) + ".txt";
      ASSERT_TRUE(client.WriteFile(writer_dir + "/" + name, "alpha churn").ok());
      if (const int victim = i * kWriterThreads + tid; victim < touched) {
        ASSERT_TRUE(client.Unlink("/corpus/" + SeedName(victim)).ok());
      }
      if (i % 10 == 9) {
        ASSERT_TRUE(client.Reindex().ok());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back(reader, t);
  }
  for (int t = 0; t < kWriterThreads; ++t) {
    threads.emplace_back(writer, t);
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GT(drains.load(), 0u);
}

TEST_F(CursorStressTest, ConcurrentCursorsSurviveWriteBatches) {
  DrainWhileWriting(*service_, "/churn", 0);
  // Quiesced: a full paged drain equals the monolithic enumeration exactly.
  ServiceClient client(*service_);
  auto paged = client.ReadDirPaged("/corpus", 5);
  ASSERT_TRUE(paged.ok()) << paged.error().ToString();
  EXPECT_EQ(paged.value(), client.ReadDir("/corpus").value());
}

TEST_F(CursorStressTest, WritersInTheDrainedDirectoryKeepDrainsOrdered) {
  DrainWhileWriting(*service_, "/corpus", 16);
}

TEST_F(CursorStressTest, SessionTeardownReclaimsOpenCursors) {
  // Leak cursors from many short-lived sessions while writers churn; session
  // close must drain each table without double-frees or leaks (TSan/ASan gate).
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    ServiceClient client(*service_);
    int i = 0;
    while (!stop.load()) {
      ASSERT_TRUE(
          client.WriteFile("/churn/c" + std::to_string(i++) + ".txt", "x").ok());
    }
  });
  for (int round = 0; round < 40; ++round) {
    ServiceClient client(*service_);
    for (int c = 0; c < 8; ++c) {
      auto cursor = client.OpenCursor("/corpus");
      ASSERT_TRUE(cursor.ok()) << cursor.error().ToString();
      if (c % 2 == 0) {
        (void)client.FetchPage(cursor.value(), 3);  // only admission can refuse it
      }
    }
    // ~ServiceClient closes the session; its cursor table drains with it.
  }
  stop.store(true);
  churn.join();
}

}  // namespace
}  // namespace hac
