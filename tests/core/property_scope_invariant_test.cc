// Randomized property test for the paper's central invariant (section 2.3):
//
// After ANY sequence of operations followed by a full Reindex(), for every semantic
// directory sd with parent p:
//
//   (1) transient(sd) == Eval(query(sd), scope(p)) − direct-children(sd)
//                        − permanent(sd) − prohibited(sd)
//   (2) transient(sd) ⊆ scope(p)
//   (3) prohibited docs never appear as links; permanent links never vanish
//   (4) every VFS entry in sd agrees with the link table's classification
//   (5) hacfsck's full audit comes back clean
//
// The driver applies random operations (file create/write/delete, link delete, symlink
// add, query change, directory create, ssync) and checks the invariants after each
// reindex point.
#include <algorithm>
#include <gtest/gtest.h>

#include "src/core/hac_file_system.h"
#include "src/support/rng.h"
#include "src/tools/fsck.h"
#include "src/vfs/path.h"

namespace hac {
namespace {

const std::vector<std::string> kWords = {"alpha", "bravo", "charlie", "delta", "echo",
                                         "foxtrot", "golf", "hotel", "india", "juliet"};

std::string RandomContent(Rng& rng) {
  std::string out;
  size_t n = 3 + rng.NextBelow(10);
  for (size_t i = 0; i < n; ++i) {
    out += kWords[rng.NextZipf(kWords.size(), 0.8)];
    out += ' ';
  }
  return out;
}

std::string RandomQueryText(Rng& rng) {
  std::string a = kWords[rng.NextBelow(kWords.size())];
  std::string b = kWords[rng.NextBelow(kWords.size())];
  switch (rng.NextBelow(4)) {
    case 0:
      return a;
    case 1:
      return a + " AND " + b;
    case 2:
      return a + " OR " + b;
    default:
      return a + " AND NOT " + b;
  }
}

class ScopeInvariantTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Enumerate all directories (depth-first from root).
  std::vector<std::string> AllDirs(HacFileSystem& fs) {
    std::vector<std::string> dirs = {"/"};
    std::vector<std::string> stack = {"/"};
    while (!stack.empty()) {
      std::string dir = std::move(stack.back());
      stack.pop_back();
      auto entries = fs.ReadDir(dir);
      if (!entries.ok()) {
        continue;
      }
      for (const auto& e : entries.value()) {
        if (e.type == NodeType::kDirectory) {
          std::string child = JoinPath(dir == "/" ? "" : dir, e.name);
          dirs.push_back(child);
          stack.push_back(child);
        }
      }
    }
    return dirs;
  }

  void CheckInvariants(HacFileSystem& fs) {
    FsckReport report = RunFsck(fs);
    EXPECT_TRUE(report.Clean()) << report.ToString();
    for (const std::string& dir : AllDirs(fs)) {
      std::string query_text = fs.GetQuery(dir).value_or("(err)");
      ASSERT_NE(query_text, "(err)") << dir;
      auto classes = fs.GetLinkClasses(dir);
      ASSERT_TRUE(classes.ok()) << dir;

      // (4) VFS symlink entries agree with the link table.
      auto entries = fs.ReadDir(dir).value();
      size_t symlink_count = 0;
      for (const auto& e : entries) {
        if (e.type == NodeType::kSymlink) {
          ++symlink_count;
        }
      }
      EXPECT_EQ(symlink_count,
                classes.value().permanent.size() + classes.value().transient.size())
          << dir;

      if (query_text.empty()) {
        // Syntactic directories own no transient links.
        EXPECT_TRUE(classes.value().transient.empty()) << dir;
        continue;
      }

      // (1) Recompute the expected transient set independently.
      auto parent_scope = fs.ScopeOf(DirName(dir));
      ASSERT_TRUE(parent_scope.ok()) << dir;
      auto ast = ParseQuery(query_text);
      ASSERT_TRUE(ast.ok()) << query_text;
      DirResolver resolver = [&fs](DirUid uid) -> Result<Bitmap> {
        auto p = fs.uid_map().PathOf(uid);
        if (!p.ok()) {
          return p.error();
        }
        return fs.ScopeOf(p.value());
      };
      // (Queries in this test contain no dir() refs, so the resolver is never used.)
      auto expected = fs.index().Evaluate(*ast.value(), parent_scope.value(), &resolver);
      ASSERT_TRUE(expected.ok()) << query_text;

      Bitmap expect_transient = expected.value();
      expect_transient.AndNot(fs.registry().DirectChildrenOf(dir));

      // Subtract permanent and prohibited.
      std::vector<std::string> prohibited_paths = classes.value().prohibited;
      for (const auto& [name, target] : classes.value().permanent) {
        auto doc = fs.registry().FindByPath(target);
        if (doc.ok()) {
          expect_transient.Clear(doc.value());
        }
      }
      for (const std::string& p : prohibited_paths) {
        auto doc = fs.registry().FindByPath(p);
        if (doc.ok()) {
          expect_transient.Clear(doc.value());
        }
      }

      // Actual transient set, by resolving link targets.
      Bitmap actual;
      for (const auto& [name, target] : classes.value().transient) {
        auto doc = fs.registry().FindByPath(target);
        ASSERT_TRUE(doc.ok()) << "dangling transient link " << name << " -> " << target;
        actual.Set(doc.value());
      }
      EXPECT_EQ(actual, expect_transient) << "invariant (1) violated in " << dir
                                          << " query=" << query_text;

      // (2) transient ⊆ parent scope.
      EXPECT_TRUE(actual.IsSubsetOf(parent_scope.value())) << dir;

      // (3) no prohibited doc is linked.
      for (const std::string& p : prohibited_paths) {
        auto doc = fs.registry().FindByPath(p);
        if (doc.ok()) {
          EXPECT_FALSE(actual.Test(doc.value())) << dir;
        }
      }
    }
  }
};

TEST_P(ScopeInvariantTest, RandomOperationSequencesPreserveInvariants) {
  Rng rng(GetParam());
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/files").ok());

  std::vector<std::string> files;
  std::vector<std::string> sdirs;
  int file_counter = 0;
  int dir_counter = 0;

  for (int step = 0; step < 120; ++step) {
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2: {  // create/overwrite a file
        std::string path = "/files/f" + std::to_string(file_counter++) + ".txt";
        ASSERT_TRUE(fs.WriteFile(path, RandomContent(rng)).ok());
        files.push_back(path);
        break;
      }
      case 3: {  // delete a file
        if (!files.empty()) {
          size_t i = rng.NextBelow(files.size());
          (void)fs.Unlink(files[i]);
          files.erase(files.begin() + static_cast<long>(i));
        }
        break;
      }
      case 4: {  // create a semantic dir (sometimes nested under another)
        std::string parent =
            (!sdirs.empty() && rng.NextBool(0.5)) ? rng.Pick(sdirs) : std::string("");
        std::string path = parent + "/s" + std::to_string(dir_counter++);
        if (fs.SMkdir(path, RandomQueryText(rng)).ok()) {
          sdirs.push_back(path);
        }
        break;
      }
      case 5: {  // change a query
        if (!sdirs.empty()) {
          (void)fs.SetQuery(rng.Pick(sdirs), RandomQueryText(rng));
        }
        break;
      }
      case 6: {  // delete a random link from a semantic dir (=> prohibition)
        if (!sdirs.empty()) {
          const std::string& dir = rng.Pick(sdirs);
          auto entries = fs.ReadDir(dir);
          if (entries.ok() && !entries.value().empty()) {
            const DirEntry& e = entries.value()[rng.NextBelow(entries.value().size())];
            if (e.type == NodeType::kSymlink) {
              (void)fs.Unlink(JoinPath(dir, e.name));
            }
          }
        }
        break;
      }
      case 7: {  // hand-add a permanent link
        if (!sdirs.empty() && !files.empty()) {
          const std::string& dir = rng.Pick(sdirs);
          const std::string& file = rng.Pick(files);
          (void)fs.Symlink(file, JoinPath(dir, "hand" + std::to_string(step)));
        }
        break;
      }
      case 8: {  // modify file content
        if (!files.empty()) {
          (void)fs.WriteFile(rng.Pick(files), RandomContent(rng));
        }
        break;
      }
      case 9: {  // ssync some directory
        if (!sdirs.empty()) {
          ASSERT_TRUE(fs.SSync(rng.Pick(sdirs)).ok());
        }
        break;
      }
    }
    if (step % 20 == 19) {
      ASSERT_TRUE(fs.Reindex().ok());
      CheckInvariants(fs);
    }
  }
  ASSERT_TRUE(fs.Reindex().ok());
  CheckInvariants(fs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopeInvariantTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006, 7007,
                                           8008));

}  // namespace
}  // namespace hac
