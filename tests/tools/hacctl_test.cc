// Golden coverage for the introspection surface: the kIntrospect payload (which
// `hacctl stats` prints verbatim) must parse as JSON and mention every metric and
// span name documented in docs/OBSERVABILITY.md. Together with the docs_check
// gate (doc <-> metric_names.h) this closes the loop doc <-> wire output.
#include "src/tools/hacctl.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/durability.h"
#include "src/support/json.h"
#include "src/support/metric_names.h"

namespace hac {
namespace {

std::string ReadObservabilityDoc() {
  std::ifstream in(std::string(HAC_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  EXPECT_TRUE(in.good()) << "docs/OBSERVABILITY.md not found under " << HAC_SOURCE_DIR;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Backticked `hac.*` tokens that are well-formed metric names (same filter as
// docs_check: prose like `hac.*` is skipped).
std::set<std::string> DocumentedMetricNames(const std::string& doc) {
  std::set<std::string> out;
  size_t pos = 0;
  while ((pos = doc.find('`', pos)) != std::string::npos) {
    size_t end = doc.find('`', pos + 1);
    if (end == std::string::npos) {
      break;
    }
    std::string token = doc.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (token.rfind("hac.", 0) != 0 || token.back() == '.') {
      continue;
    }
    bool clean = true;
    for (char c : token) {
      if (std::islower(static_cast<unsigned char>(c)) == 0 &&
          std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '_') {
        clean = false;
        break;
      }
    }
    if (clean) {
      out.insert(token);
    }
  }
  return out;
}

TEST(HacctlTest, RejectsUnknownSubcommand) {
  EXPECT_FALSE(RunHacctl({}).ok());
  EXPECT_FALSE(RunHacctl({"bogus"}).ok());
  EXPECT_FALSE(RunHacctl({"stats", "extra"}).ok());
}

TEST(HacctlTest, PagedLsStreamsTheDemoDirectory) {
  auto result = RunHacctl({"ls", "--page", "2", "/projects"});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  // The demo workload seeds four files under /projects; page size 2 -> 2 pages.
  EXPECT_NE(result.value().find("fingerprint.txt"), std::string::npos);
  EXPECT_NE(result.value().find("notes.txt"), std::string::npos);
  EXPECT_NE(result.value().find("# 4 entries in 2 page(s)"), std::string::npos)
      << result.value();

  // Default page size: everything in one page.
  auto one = RunHacctl({"ls", "/projects"});
  ASSERT_TRUE(one.ok()) << one.error().ToString();
  EXPECT_NE(one.value().find("in 1 page(s)"), std::string::npos) << one.value();
}

TEST(HacctlTest, PagedSearchStreamsMatches) {
  auto result = RunHacctl({"search", "--limit", "1", "dental", "/projects"});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  // Two demo files mention "dental"; limit 1 forces (at least) two pages.
  EXPECT_NE(result.value().find("/projects/dental.txt"), std::string::npos)
      << result.value();
  EXPECT_NE(result.value().find("/projects/notes.txt"), std::string::npos)
      << result.value();
  EXPECT_NE(result.value().find("# 2 matches"), std::string::npos) << result.value();

  // Scope defaults to "/".
  auto rooted = RunHacctl({"search", "dental"});
  ASSERT_TRUE(rooted.ok()) << rooted.error().ToString();
  EXPECT_NE(rooted.value().find("# 2 matches"), std::string::npos);
}

TEST(HacctlTest, PagedSubcommandsRejectBadUsage) {
  EXPECT_FALSE(RunHacctl({"ls"}).ok());
  EXPECT_FALSE(RunHacctl({"ls", "--page", "0", "/projects"}).ok());
  EXPECT_FALSE(RunHacctl({"ls", "--page", "abc", "/projects"}).ok());
  EXPECT_FALSE(RunHacctl({"ls", "/a", "/b"}).ok());
  EXPECT_FALSE(RunHacctl({"search"}).ok());
  EXPECT_FALSE(RunHacctl({"search", "--limit", "-3", "q"}).ok());
  EXPECT_FALSE(RunHacctl({"search", "q", "/scope", "extra"}).ok());
  // Missing directories surface the facade's error, not a crash.
  EXPECT_EQ(RunHacctl({"ls", "/no/such/dir"}).error().code, ErrorCode::kNotFound);
}

// Builds a small persisted data directory the durability subcommands can chew on.
std::string MakeDataDir(const std::string& name) {
  namespace fs_std = std::filesystem;
  fs_std::path dir = fs_std::current_path() / "hacctl_test_data" / name;
  fs_std::remove_all(dir);
  fs_std::create_directories(dir);
  DurabilityOptions dopts;
  dopts.data_dir = dir.string();
  dopts.wal_fault = FaultSpec{};
  auto store = DurableStore::Open(dopts);
  EXPECT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  EXPECT_TRUE(fs.ok());
  EXPECT_TRUE(fs.value()->Mkdir("/docs").ok());
  EXPECT_TRUE(fs.value()->WriteFile("/docs/a.txt", "alpha").ok());
  EXPECT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
  return dir.string();
}

TEST(HacctlTest, CheckpointSubcommandPersistsAnImage) {
  namespace fs_std = std::filesystem;
  const std::string dir = MakeDataDir("Checkpoint");
  auto result = RunHacctl({"checkpoint", "--data-dir", dir});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_NE(result.value().find("checkpointed"), std::string::npos);
  size_t checkpoints = 0;
  for (const auto& entry : fs_std::directory_iterator(dir)) {
    checkpoints +=
        entry.path().filename().string().rfind("checkpoint-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(checkpoints, 1u);
}

TEST(HacctlTest, FsckSubcommandReportsDigestAndCleanState) {
  const std::string dir = MakeDataDir("Fsck");
  auto result = RunHacctl({"fsck", "--data-dir", dir});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_NE(result.value().find("state_digest"), std::string::npos);
  EXPECT_NE(result.value().find("clean"), std::string::npos);
}

TEST(HacctlTest, DurabilitySubcommandsRejectBadUsage) {
  EXPECT_FALSE(RunHacctl({"checkpoint"}).ok());
  EXPECT_FALSE(RunHacctl({"fsck"}).ok());
  EXPECT_FALSE(RunHacctl({"checkpoint", "--data-dir"}).ok());
  EXPECT_FALSE(RunHacctl({"fsck", "--port", "1"}).ok());
  // A directory that does not exist and cannot be created under is still opened
  // (Open creates), but an unwritable path must fail cleanly.
  EXPECT_FALSE(RunHacctl({"fsck", "--data-dir", "/proc/no-such-dir"}).ok());
}

TEST(HacctlTest, StatsOutputParsesAndCoversEveryDocumentedName) {
  auto result = RunHacctl({"stats"});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const std::string& json = result.value();

  std::string err;
  ASSERT_TRUE(JsonValidate(json, &err)) << err;
  EXPECT_NE(json.find("\"schema\": \"hac.introspect.v1\""), std::string::npos);

  std::set<std::string> documented = DocumentedMetricNames(ReadObservabilityDoc());
  ASSERT_FALSE(documented.empty());
  for (const std::string& name : documented) {
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos)
        << name << " documented in OBSERVABILITY.md but absent from hacctl stats";
  }
  // Spans carry no hac. prefix; they are listed in the snapshot's spans array.
  for (const char* span : metric_names::kAllSpans) {
    EXPECT_NE(json.find(std::string("\"") + span + "\""), std::string::npos) << span;
  }
}

TEST(HacctlTest, TraceOutputIsValidChromeJson) {
  auto result = RunHacctl({"trace"});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  std::string err;
  ASSERT_TRUE(JsonValidate(result.value(), &err)) << err;
  EXPECT_NE(result.value().find("\"traceEvents\""), std::string::npos);
}

TEST(HacctlTest, DemoWorkloadActuallyFiresTheHotSubsystems) {
  auto result = RunHacctl({"stats"});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const std::string& json = result.value();
  // The demo must leave the core counters nonzero, or `hacctl stats` would
  // demonstrate nothing. Zero would render as `"name": 0`.
  for (const char* name :
       {metric_names::kServiceExecutedWrites, metric_names::kServiceExecutedReads,
        metric_names::kIndexQueries, metric_names::kConsistencyPasses,
        metric_names::kLinksTransientAdded}) {
    EXPECT_EQ(json.find(std::string("\"") + name + "\": 0,"), std::string::npos)
        << name << " is zero after the demo workload";
  }
}

}  // namespace
}  // namespace hac
