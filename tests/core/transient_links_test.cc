// Transient links are served from the link tables, not stored in the VFS: these tests
// pin what the facade shows for them (listings, stat, readlink, path resolution), how
// user edits of them behave, and the inode-id / clock accounting they share with
// stored symlinks.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/hac_file_system.h"
#include "src/tools/fsck.h"

namespace hac {
namespace {

class TransientLinksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.MkdirAll("/docs").ok());
    ASSERT_TRUE(fs_.MkdirAll("/home").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/a.txt", "fingerprint ridge").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/b.txt", "fingerprint whorl").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/c.txt", "butter flour").ok());
    ASSERT_TRUE(fs_.Reindex().ok());
    ASSERT_TRUE(fs_.SMkdir("/fp", "fingerprint").ok());
  }

  std::vector<std::string> Names(const std::string& dir) {
    std::vector<std::string> out;
    for (const DirEntry& e : fs_.ReadDir(dir).value()) {
      out.push_back(e.name);
    }
    return out;
  }

  HacFileSystem fs_;
};

TEST_F(TransientLinksTest, ListedAsSymlinksMergedWithStoredEntries) {
  ASSERT_TRUE(fs_.Mkdir("/fp/aa").ok());
  ASSERT_TRUE(fs_.WriteFile("/fp/0.txt", "local note").ok());
  ASSERT_TRUE(fs_.Symlink("/docs/c.txt", "/fp/pin").ok());
  auto entries = fs_.ReadDir("/fp").value();
  std::vector<std::string> names;
  for (const DirEntry& e : entries) {
    names.push_back(e.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"0.txt", "a.txt", "aa", "b.txt", "pin"}));
  EXPECT_EQ(entries[0].type, NodeType::kFile);
  EXPECT_EQ(entries[1].type, NodeType::kSymlink);
  EXPECT_EQ(entries[2].type, NodeType::kDirectory);
  EXPECT_EQ(entries[3].type, NodeType::kSymlink);
  EXPECT_EQ(entries[4].type, NodeType::kSymlink);
  EXPECT_EQ(entries[1].inode, fs_.LstatPath("/fp/a.txt").value().inode);
  // The VFS stores only what the user made.
  EXPECT_EQ(fs_.vfs().ReadDir("/fp").value().size(), 3u);
  EXPECT_EQ(fs_.ReadLocalDir("/fp").value(), entries);

  // Pages of one entry concatenate to the listing.
  std::vector<DirEntry> paged;
  PageToken token;
  for (;;) {
    auto page = fs_.ReadDirPage("/fp", &token, 1).value();
    paged.insert(paged.end(), page.entries.begin(), page.entries.end());
    token = page.next;
    if (!page.has_more) {
      break;
    }
  }
  EXPECT_EQ(paged, entries);
}

TEST_F(TransientLinksTest, StatLstatAndReadLink) {
  Stat link = fs_.LstatPath("/fp/a.txt").value();
  EXPECT_EQ(link.type, NodeType::kSymlink);
  EXPECT_EQ(link.size, std::string("/docs/a.txt").size());
  EXPECT_EQ(link.nlink, 1u);
  EXPECT_EQ(fs_.ReadLink("/fp/a.txt").value(), "/docs/a.txt");
  EXPECT_EQ(fs_.StatPath("/fp/a.txt").value().inode, fs_.StatPath("/docs/a.txt").value().inode);
  EXPECT_EQ(fs_.ReadFileToString("/fp/b.txt").value(), "fingerprint whorl");
  // A semantic directory's size counts its links, as a stored symlink would.
  EXPECT_EQ(fs_.LstatPath("/fp").value().size, 2u);
  EXPECT_EQ(fs_.StatPath("/fp").value().size, 2u);
  // Not a directory: paths cannot run through a link to a file.
  EXPECT_EQ(fs_.StatPath("/fp/a.txt/x").code(), ErrorCode::kNotADirectory);
  EXPECT_EQ(fs_.LstatPath("/fp/zzz").code(), ErrorCode::kNotFound);
}

TEST_F(TransientLinksTest, ReadLinkFollowsAFileRenameAtOnce) {
  ASSERT_TRUE(fs_.Rename("/docs/a.txt", "/docs/z.txt").ok());
  // No reindex: the target is the doc's current path.
  EXPECT_EQ(fs_.ReadLink("/fp/a.txt").value(), "/docs/z.txt");
  EXPECT_EQ(fs_.ReadFileToString("/fp/a.txt").value(), "fingerprint ridge");
}

TEST_F(TransientLinksTest, StoredSymlinksResolveThroughTransientLinks) {
  ASSERT_TRUE(fs_.Symlink("/fp/a.txt", "/home/via").ok());
  EXPECT_EQ(fs_.ReadFileToString("/home/via").value(), "fingerprint ridge");
  ASSERT_TRUE(fs_.Symlink("/fp", "/home/fpdir").ok());
  EXPECT_EQ(fs_.LstatPath("/home/fpdir/b.txt").value().type, NodeType::kSymlink);
  EXPECT_EQ(fs_.ReadLink("/home/fpdir/b.txt").value(), "/docs/b.txt");
  EXPECT_EQ(fs_.ReadDir("/home/fpdir").value(), fs_.ReadDir("/fp").value());
}

TEST_F(TransientLinksTest, NamesAreTakenForMkdirSymlinkAndRmdir) {
  EXPECT_EQ(fs_.Mkdir("/fp/a.txt").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs_.Symlink("/docs/c.txt", "/fp/a.txt").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs_.Rmdir("/fp").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs_.SetQuery("/fp", "").ok());
  EXPECT_TRUE(fs_.ReadDir("/fp").value().empty());
  EXPECT_TRUE(fs_.Rmdir("/fp").ok());
}

TEST_F(TransientLinksTest, SpendInodeIdsAndTicksLikeStoredSymlinks) {
  // A stored symlink takes the next inode id with the current tick as its mtime, then
  // one tick that becomes the directory's mtime; unlinking it takes one more tick.
  ASSERT_TRUE(fs_.WriteFile("/docs/d.txt", "ridge pattern").ok());
  ASSERT_TRUE(fs_.Reindex().ok());
  const InodeId before = fs_.LstatPath("/docs/d.txt").value().inode;
  const uint64_t t0 = fs_.vfs().clock().Now();
  ASSERT_TRUE(fs_.SMkdir("/ridge", "ridge").ok());  // links a.txt, then d.txt
  const Stat dir = fs_.LstatPath("/ridge").value();
  const Stat a = fs_.LstatPath("/ridge/a.txt").value();
  const Stat d = fs_.LstatPath("/ridge/d.txt").value();
  EXPECT_EQ(dir.inode, before + 1);
  EXPECT_EQ(a.inode, before + 2);
  EXPECT_EQ(d.inode, before + 3);
  EXPECT_EQ(a.mtime, t0 + 1);  // after Mkdir's tick
  EXPECT_EQ(d.mtime, t0 + 2);
  EXPECT_EQ(dir.mtime, t0 + 3);
  EXPECT_EQ(fs_.vfs().clock().Now(), t0 + 3);
  ASSERT_TRUE(fs_.Unlink("/ridge/d.txt").ok());
  EXPECT_EQ(fs_.LstatPath("/ridge").value().mtime, t0 + 4);
  ASSERT_TRUE(fs_.WriteFile("/docs/e.txt", "x").ok());
  EXPECT_EQ(fs_.LstatPath("/docs/e.txt").value().inode, before + 4);
}

TEST_F(TransientLinksTest, PromoteAndDemoteKeepInodeIdAndMtime) {
  const Stat link = fs_.LstatPath("/fp/a.txt").value();
  ASSERT_TRUE(fs_.PromoteLink("/fp/a.txt").ok());
  // Permanent links are the user's stored symlinks.
  Stat stored = fs_.vfs().LstatPath("/fp/a.txt").value();
  EXPECT_EQ(stored.inode, link.inode);
  EXPECT_EQ(stored.mtime, link.mtime);
  EXPECT_EQ(fs_.vfs().ReadLink("/fp/a.txt").value(), "/docs/a.txt");
  ASSERT_TRUE(fs_.DemoteLink("/fp/a.txt").ok());
  EXPECT_EQ(fs_.vfs().LstatPath("/fp/a.txt").code(), ErrorCode::kNotFound);
  Stat back = fs_.LstatPath("/fp/a.txt").value();
  EXPECT_EQ(back.inode, link.inode);
  EXPECT_EQ(back.mtime, link.mtime);
  EXPECT_TRUE(RunFsck(fs_).Clean()) << RunFsck(fs_).ToString();
}

TEST_F(TransientLinksTest, MovedLinkBecomesTheUsersSymlink) {
  const Stat link = fs_.LstatPath("/fp/a.txt").value();
  ASSERT_TRUE(fs_.Rename("/fp/a.txt", "/home/kept.txt").ok());
  Stat stored = fs_.vfs().LstatPath("/home/kept.txt").value();
  EXPECT_EQ(stored.type, NodeType::kSymlink);
  EXPECT_EQ(stored.inode, link.inode);
  EXPECT_EQ(fs_.ReadLink("/home/kept.txt").value(), "/docs/a.txt");
  // Leaving /fp prohibited the doc there.
  EXPECT_EQ(Names("/fp"), (std::vector<std::string>{"b.txt"}));
  ASSERT_TRUE(fs_.Reindex().ok());
  EXPECT_EQ(Names("/fp"), (std::vector<std::string>{"b.txt"}));
  EXPECT_TRUE(RunFsck(fs_).Clean()) << RunFsck(fs_).ToString();
}

TEST_F(TransientLinksTest, RenamingAFileOntoATransientLinkDeletesTheLink) {
  ASSERT_TRUE(fs_.Rename("/docs/c.txt", "/fp/a.txt").ok());
  EXPECT_EQ(fs_.LstatPath("/fp/a.txt").value().type, NodeType::kFile);
  EXPECT_EQ(fs_.ReadFileToString("/fp/a.txt").value(), "butter flour");
  // As Unlink of the link would: the doc is prohibited in /fp for good.
  LinkClassView classes = fs_.GetLinkClasses("/fp").value();
  EXPECT_EQ(classes.prohibited, (std::vector<std::string>{"/docs/a.txt"}));
  ASSERT_TRUE(fs_.Reindex().ok());
  EXPECT_EQ(Names("/fp"), (std::vector<std::string>{"a.txt", "b.txt"}));
  EXPECT_EQ(fs_.LstatPath("/fp/a.txt").value().type, NodeType::kFile);
  EXPECT_TRUE(RunFsck(fs_).Clean()) << RunFsck(fs_).ToString();
  // A directory cannot replace a link.
  ASSERT_TRUE(fs_.Mkdir("/home/sub").ok());
  EXPECT_EQ(fs_.Rename("/home/sub", "/fp/b.txt").code(), ErrorCode::kAlreadyExists);
}

TEST_F(TransientLinksTest, RenamingAFileOntoAPermanentLinkDeletesTheLink) {
  ASSERT_TRUE(fs_.PromoteLink("/fp/a.txt").ok());
  ASSERT_TRUE(fs_.Rename("/docs/b.txt", "/fp/a.txt").ok());
  EXPECT_EQ(fs_.LstatPath("/fp/a.txt").value().type, NodeType::kFile);
  EXPECT_EQ(fs_.ReadFileToString("/fp/a.txt").value(), "fingerprint whorl");
  // As Unlink of the permanent link would: its record goes and the doc is
  // prohibited in /fp.
  LinkClassView classes = fs_.GetLinkClasses("/fp").value();
  EXPECT_TRUE(classes.permanent.empty());
  EXPECT_EQ(classes.prohibited, (std::vector<std::string>{"/docs/a.txt"}));
  // b.txt moved into /fp's scope, which settles at the next reindex (C4 until then);
  // the link record must be gone at once.
  for (const std::string& finding : RunFsck(fs_).findings) {
    EXPECT_NE(finding.substr(0, 3), "C3:") << finding;
  }
  ASSERT_TRUE(fs_.Reindex().ok());
  EXPECT_TRUE(fs_.GetLinkClasses("/fp").value().permanent.empty());
  EXPECT_EQ(fs_.LstatPath("/fp/a.txt").value().type, NodeType::kFile);
  EXPECT_TRUE(RunFsck(fs_).Clean()) << RunFsck(fs_).ToString();
}

TEST_F(TransientLinksTest, WritingThroughADanglingLinkRegistersTheTarget) {
  ASSERT_TRUE(fs_.Unlink("/docs/a.txt").ok());
  // The link dangles until the next reindex; writing through it recreates the file
  // at the link's target, which must enter the registry like any new file.
  ASSERT_TRUE(fs_.WriteFile("/fp/a.txt", "fingerprint loop").ok());
  EXPECT_EQ(fs_.ReadFileToString("/docs/a.txt").value(), "fingerprint loop");
  ASSERT_TRUE(fs_.Reindex().ok());
  EXPECT_EQ(fs_.Search("loop").value(), (std::vector<std::string>{"/docs/a.txt"}));
  EXPECT_EQ(fs_.ReadLink("/fp/a.txt").value(), "/docs/a.txt");
  EXPECT_TRUE(RunFsck(fs_).Clean()) << RunFsck(fs_).ToString();
}

TEST_F(TransientLinksTest, SaveAndLoadKeepInodeIdsAndMtimes) {
  const Stat link = fs_.LstatPath("/fp/b.txt").value();
  auto loaded = HacFileSystem::LoadState(fs_.SaveState());
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  HacFileSystem& fs = *loaded.value();
  const Stat again = fs.LstatPath("/fp/b.txt").value();
  EXPECT_EQ(again.inode, link.inode);
  EXPECT_EQ(again.mtime, link.mtime);
  EXPECT_EQ(fs.vfs().ReadDir("/fp").value().size(), 0u);
  EXPECT_EQ(StateDigest(fs), StateDigest(fs_));
  EXPECT_TRUE(RunFsck(fs).Clean()) << RunFsck(fs).ToString();
}

}  // namespace
}  // namespace hac
