// Rename interactions the per-feature suites don't reach: moving semantic subtrees
// with internal references, renames of ancestors of referenced directories, and rename
// chains followed by persistence.
#include <gtest/gtest.h>

#include "src/core/hac_file_system.h"
#include "src/tools/fsck.h"

namespace hac {
namespace {

size_t LinkCount(HacFileSystem& fs, const std::string& dir) {
  size_t n = 0;
  for (const auto& e : fs.ReadDir(dir).value()) {
    if (e.type == NodeType::kSymlink) {
      ++n;
    }
  }
  return n;
}

class RenameSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.MkdirAll("/data").ok());
    ASSERT_TRUE(fs_.WriteFile("/data/a.txt", "fingerprint ridge").ok());
    ASSERT_TRUE(fs_.WriteFile("/data/b.txt", "fingerprint murder").ok());
    ASSERT_TRUE(fs_.Reindex().ok());
  }
  HacFileSystem fs_;
};

TEST_F(RenameSemanticsTest, MoveSemanticSubtreeWithChildren) {
  ASSERT_TRUE(fs_.SMkdir("/proj", "fingerprint").ok());
  ASSERT_TRUE(fs_.SMkdir("/proj/clean", "NOT murder").ok());
  ASSERT_TRUE(fs_.MkdirAll("/archive").ok());
  ASSERT_TRUE(fs_.Rename("/proj", "/archive/proj").ok());
  EXPECT_EQ(LinkCount(fs_, "/archive/proj"), 2u);
  EXPECT_EQ(LinkCount(fs_, "/archive/proj/clean"), 1u);
  EXPECT_EQ(fs_.GetQuery("/archive/proj/clean").value(), "(NOT murder)");
  FsckReport report = RunFsck(fs_);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST_F(RenameSemanticsTest, RenameAncestorOfReferencedDir) {
  ASSERT_TRUE(fs_.MkdirAll("/x/y/target").ok());
  ASSERT_TRUE(fs_.WriteFile("/x/y/target/t.txt", "fingerprint deep").ok());
  ASSERT_TRUE(fs_.Reindex().ok());
  ASSERT_TRUE(fs_.SMkdir("/q", "fingerprint AND dir(/x/y/target)").ok());
  ASSERT_EQ(LinkCount(fs_, "/q"), 1u);
  // Renaming an ANCESTOR of the referenced directory rewrites its path too.
  ASSERT_TRUE(fs_.Rename("/x", "/z").ok());
  EXPECT_EQ(fs_.GetQuery("/q").value(), "(fingerprint AND dir(/z/y/target))");
  ASSERT_TRUE(fs_.SSync("/q").ok());
  EXPECT_EQ(LinkCount(fs_, "/q"), 1u);
  FsckReport report = RunFsck(fs_);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST_F(RenameSemanticsTest, RenameReferencedDirThenPersist) {
  ASSERT_TRUE(fs_.SMkdir("/fp", "fingerprint").ok());
  ASSERT_TRUE(fs_.SMkdir("/view", "ALL AND dir(/fp)").ok());
  ASSERT_TRUE(fs_.Rename("/fp", "/renamed_fp").ok());
  ASSERT_TRUE(fs_.Rename("/view", "/renamed_view").ok());
  auto loaded = HacFileSystem::LoadState(fs_.SaveState());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->GetQuery("/renamed_view").value(),
            "(ALL AND dir(/renamed_fp))");
  EXPECT_EQ(LinkCount(*loaded.value(), "/renamed_view"), 2u);
}

TEST_F(RenameSemanticsTest, SwapTwoSemanticDirs) {
  ASSERT_TRUE(fs_.SMkdir("/one", "ridge").ok());
  ASSERT_TRUE(fs_.SMkdir("/two", "murder").ok());
  ASSERT_TRUE(fs_.Rename("/one", "/tmp_swap").ok());
  ASSERT_TRUE(fs_.Rename("/two", "/one").ok());
  ASSERT_TRUE(fs_.Rename("/tmp_swap", "/two").ok());
  // Queries traveled with the directories.
  EXPECT_EQ(fs_.GetQuery("/one").value(), "murder");
  EXPECT_EQ(fs_.GetQuery("/two").value(), "ridge");
  EXPECT_EQ(LinkCount(fs_, "/one"), 1u);
  EXPECT_EQ(LinkCount(fs_, "/two"), 1u);
  FsckReport report = RunFsck(fs_);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST_F(RenameSemanticsTest, MoveSemanticDirUnderItsOwnResultSourceIsFine) {
  // Moving a semantic dir under the syntactic dir its results come from is legal
  // (no dependency cycle: /data has no query).
  ASSERT_TRUE(fs_.SMkdir("/fp", "fingerprint").ok());
  ASSERT_TRUE(fs_.Rename("/fp", "/data/fp").ok());
  ASSERT_TRUE(fs_.Reindex().ok());
  EXPECT_EQ(LinkCount(fs_, "/data/fp"), 2u);
  FsckReport report = RunFsck(fs_);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST_F(RenameSemanticsTest, LinkMovedNextToALinkOfItsDocPinsTheDoc) {
  // Moving a link into a directory that already links its doc pins the doc there, as
  // a symlink to it would: the existing link is promoted and the arriving link is a
  // plain alias. Left transient, the doc would sit beside a permanent alias of itself
  // and the scope audit (C4) would flag the directory.
  ASSERT_TRUE(fs_.SMkdir("/fp", "fingerprint").ok());
  ASSERT_TRUE(fs_.SMkdir("/ridge", "ridge").ok());
  ASSERT_TRUE(fs_.Rename("/ridge/a.txt", "/fp/a_moved.txt").ok());
  auto classes = fs_.GetLinkClasses("/fp");
  ASSERT_TRUE(classes.ok());
  using Links = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(classes.value().permanent,
            (Links{{"a.txt", "/data/a.txt"}, {"a_moved.txt", "/data/a.txt"}}));
  EXPECT_EQ(classes.value().transient, (Links{{"b.txt", "/data/b.txt"}}));
  ASSERT_TRUE(fs_.Reindex().ok());
  FsckReport report = RunFsck(fs_);
  EXPECT_TRUE(report.Clean()) << report.ToString();
  // Pinned: a query that no longer selects the doc keeps it.
  ASSERT_TRUE(fs_.SetQuery("/fp", "murder").ok());
  EXPECT_EQ(LinkCount(fs_, "/fp"), 3u);
  report = RunFsck(fs_);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST_F(RenameSemanticsTest, RenameDirectoryWithOpenDescriptorInside) {
  ASSERT_TRUE(fs_.MkdirAll("/d").ok());
  ASSERT_TRUE(fs_.WriteFile("/d/f.txt", "hello").ok());
  auto fd = fs_.Open("/d/f.txt", kOpenRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Rename("/d", "/moved").ok());
  char buf[5];
  EXPECT_EQ(fs_.Read(fd.value(), buf, 5).value(), 5u);
  EXPECT_EQ(std::string(buf, 5), "hello");
  ASSERT_TRUE(fs_.Close(fd.value()).ok());
}

}  // namespace
}  // namespace hac
