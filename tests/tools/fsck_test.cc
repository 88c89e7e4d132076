#include "src/tools/fsck.h"

#include <gtest/gtest.h>

#include "src/remote/digital_library.h"
#include "src/support/rng.h"
#include "src/vfs/path.h"

namespace hac {
namespace {

TEST(FsckTest, FreshSystemIsClean) {
  HacFileSystem fs;
  EXPECT_TRUE(RunFsck(fs).Clean());
}

TEST(FsckTest, CleanAfterTypicalUsage) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.MkdirAll("/docs/sub").ok());
  ASSERT_TRUE(fs.WriteFile("/docs/a.txt", "fingerprint ridge").ok());
  ASSERT_TRUE(fs.WriteFile("/docs/sub/b.txt", "butter flour").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  ASSERT_TRUE(fs.SMkdir("/fp/r", "ridge").ok());
  ASSERT_TRUE(fs.Unlink("/fp/a.txt").ok());
  ASSERT_TRUE(fs.Symlink("/docs/sub/b.txt", "/fp/pin").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  FsckReport report = RunFsck(fs);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST(FsckTest, CleanAfterRenameStorm) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.MkdirAll("/a/b/c").ok());
  ASSERT_TRUE(fs.WriteFile("/a/b/c/f.txt", "fingerprint data").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint AND dir(/a/b)").ok());
  ASSERT_TRUE(fs.Rename("/a/b", "/a/bb").ok());
  ASSERT_TRUE(fs.Rename("/a", "/aa").ok());
  ASSERT_TRUE(fs.Rename("/q", "/qq").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  FsckReport report = RunFsck(fs);
  EXPECT_TRUE(report.Clean()) << report.ToString();
  EXPECT_EQ(fs.GetQuery("/qq").value(), "(fingerprint AND dir(/aa/bb))");
}

TEST(FsckTest, CleanWithMounts) {
  HacFileSystem fs;
  DigitalLibrary lib("lib");
  lib.AddArticle({"a1", "FP", "X", "fingerprint study", "body"});
  ASSERT_TRUE(fs.Mkdir("/lib").ok());
  ASSERT_TRUE(fs.MountSemantic("/lib", &lib).ok());
  ASSERT_TRUE(fs.SMkdir("/lib/fp", "fingerprint").ok());
  FsckReport report = RunFsck(fs);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST(FsckTest, DetectsUntrackedSymlinkInjectedUnderneath) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  // Bypass HAC and plant a symlink directly in the VFS: fsck must notice.
  ASSERT_TRUE(fs.vfs().Symlink("/nowhere", "/d/sneaky").ok());
  FsckReport report = RunFsck(fs);
  ASSERT_FALSE(report.Clean());
  EXPECT_NE(report.ToString().find("untracked symlink"), std::string::npos);
}

TEST(FsckTest, DetectsMissingTrackedLink) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  ASSERT_TRUE(fs.WriteFile("/docs/a.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  // Permanent links are VFS symlinks; remove one behind HAC's back.
  ASSERT_TRUE(fs.PromoteLink("/fp/a.txt").ok());
  ASSERT_TRUE(fs.vfs().Unlink("/fp/a.txt").ok());
  FsckReport report = RunFsck(fs);
  ASSERT_FALSE(report.Clean());
  EXPECT_NE(report.ToString().find("tracked link missing"), std::string::npos);
}

TEST(FsckTest, DetectsVfsEntryShadowingTransientLink) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  ASSERT_TRUE(fs.WriteFile("/docs/a.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  ASSERT_TRUE(RunFsck(fs).Clean());
  // Transient links live in the link table only; plant a stored entry of the same
  // name directly in the VFS. It wins every lookup, so fsck must flag it.
  ASSERT_TRUE(fs.vfs().Symlink("/elsewhere", "/fp/a.txt").ok());
  EXPECT_EQ(fs.ReadLink("/fp/a.txt").value(), "/elsewhere");
  auto entries = fs.ReadDir("/fp").value();
  ASSERT_EQ(entries.size(), 1u);  // listed once, as the stored entry
  EXPECT_EQ(entries[0].inode, fs.vfs().LstatPath("/fp/a.txt").value().inode);
  FsckReport report = RunFsck(fs, FsckOptions{/*check_scope=*/false});
  ASSERT_FALSE(report.Clean());
  EXPECT_NE(report.ToString().find("C3: VFS entry shadows transient link: /fp/a.txt"),
            std::string::npos)
      << report.ToString();
}

TEST(FsckTest, DetectsStaleTransientSetWithoutReindex) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  ASSERT_TRUE(fs.WriteFile("/docs/a.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  // Delete the file: the link dangles until the next reindex (expected data
  // inconsistency). Scope checks flag it; the structural pass stays clean.
  ASSERT_TRUE(fs.Unlink("/docs/a.txt").ok());
  FsckOptions structural;
  structural.check_scope = false;
  EXPECT_TRUE(RunFsck(fs, structural).Clean());
  EXPECT_FALSE(RunFsck(fs).Clean());
  // Reindexing settles it.
  ASSERT_TRUE(fs.Reindex().ok());
  EXPECT_TRUE(RunFsck(fs).Clean());
}

// Heavier randomized audit: the fsck must come back clean after arbitrary op sequences
// + reindex (complements the inline invariant property test).
class FsckPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsckPropertyTest, RandomUsageAuditsClean) {
  Rng rng(GetParam());
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/files").ok());
  std::vector<std::string> files;
  std::vector<std::string> sdirs;
  const std::vector<std::string> words = {"alpha", "bravo", "charlie", "delta", "echo"};
  int id = 0;
  for (int step = 0; step < 80; ++step) {
    switch (rng.NextBelow(7)) {
      case 0:
      case 1: {
        std::string f = "/files/f" + std::to_string(id++);
        std::string content = words[rng.NextBelow(words.size())] + " " +
                              words[rng.NextBelow(words.size())];
        ASSERT_TRUE(fs.WriteFile(f, content).ok());
        files.push_back(f);
        break;
      }
      case 2: {
        std::string d = (sdirs.empty() || rng.NextBool(0.6))
                            ? "/s" + std::to_string(id++)
                            : rng.Pick(sdirs) + "/s" + std::to_string(id++);
        if (fs.SMkdir(d, words[rng.NextBelow(words.size())]).ok()) {
          sdirs.push_back(d);
        }
        break;
      }
      case 3: {
        if (!files.empty()) {
          size_t i = rng.NextBelow(files.size());
          (void)fs.Unlink(files[i]);
          files.erase(files.begin() + static_cast<long>(i));
        }
        break;
      }
      case 4: {
        if (!sdirs.empty()) {
          (void)fs.SetQuery(rng.Pick(sdirs), words[rng.NextBelow(words.size())]);
        }
        break;
      }
      case 5: {
        if (!sdirs.empty()) {
          const std::string& d = rng.Pick(sdirs);
          auto entries = fs.ReadDir(d);
          if (entries.ok() && !entries.value().empty()) {
            const DirEntry& e = entries.value()[rng.NextBelow(entries.value().size())];
            if (e.type == NodeType::kSymlink) {
              (void)fs.Unlink(JoinPath(d, e.name));
            }
          }
        }
        break;
      }
      case 6: {
        if (!sdirs.empty() && !files.empty()) {
          (void)fs.Symlink(rng.Pick(files),
                           JoinPath(rng.Pick(sdirs), "p" + std::to_string(id++)));
        }
        break;
      }
    }
  }
  ASSERT_TRUE(fs.Reindex().ok());
  FsckReport report = RunFsck(fs);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsckPropertyTest,
                         ::testing::Values(31, 41, 59, 26, 53, 58));

}  // namespace
}  // namespace hac
