// Links kept outside the inode table: resolution through an external-link resolver,
// the id and clock charges they share with stored symlinks, and handing a symlink
// between the table and an outside keeper.
#include <gtest/gtest.h>

#include <map>

#include "src/vfs/file_system.h"

namespace hac {
namespace {

class ExternalLinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.MkdirAll("/docs/deep").ok());
    ASSERT_TRUE(fs_.Mkdir("/view").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/a.txt", "alpha").ok());
    ASSERT_TRUE(fs_.WriteFile("/docs/deep/b.txt", "bravo").ok());
    fs_.SetExternalLinkResolver(
        [this](const std::string& dir, const std::string& name) -> const std::string* {
          ++calls_;
          auto it = links_.find(dir + "|" + name);
          return it == links_.end() ? nullptr : &it->second;
        });
  }

  FileSystem fs_;
  std::map<std::string, std::string> links_;  // "dir|name" -> target
  int calls_ = 0;
};

TEST_F(ExternalLinkTest, PathsWalkThroughExternalLinks) {
  links_["/view|a"] = "/docs/a.txt";
  links_["/view|deep"] = "/docs/deep";
  links_["/docs/deep|up"] = "../a.txt";  // relative: against the link's directory
  EXPECT_EQ(fs_.ReadFileToString("/view/a").value(), "alpha");
  EXPECT_EQ(fs_.StatPath("/view/a").value().inode, fs_.Lookup("/docs/a.txt").value());
  EXPECT_EQ(fs_.ReadFileToString("/view/deep/b.txt").value(), "bravo");
  EXPECT_EQ(fs_.ReadFileToString("/view/deep/up").value(), "alpha");
  auto at = fs_.Locate("/view/deep/b.txt", /*follow_final=*/true).value();
  EXPECT_EQ(at.path, "/docs/deep/b.txt");
  EXPECT_EQ(at.node, fs_.Lookup("/docs/deep/b.txt").value());
  EXPECT_EQ(fs_.StatPath("/view/a/x").code(), ErrorCode::kNotADirectory);

  // Only resolution sees them: the directory stores nothing.
  EXPECT_TRUE(fs_.ReadDir("/view").value().empty());
  EXPECT_EQ(fs_.LstatPath("/view/a").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs_.Locate("/view/a", /*follow_final=*/false).value().node, kInvalidInode);

  // A stored entry shadows an external link of the same name; stored names never ask.
  ASSERT_TRUE(fs_.WriteFile("/view/a", "stored").ok());  // written through the link
  EXPECT_EQ(fs_.ReadFileToString("/docs/a.txt").value(), "stored");
  ASSERT_TRUE(fs_.Symlink("/docs/deep/b.txt", "/view/a").ok());
  const int before = calls_;
  EXPECT_EQ(fs_.ReadFileToString("/view/a").value(), "bravo");
  EXPECT_EQ(calls_, before);
}

TEST_F(ExternalLinkTest, ChargesWhatAStoredSymlinkCharges) {
  const InodeId view = fs_.Lookup("/view").value();
  ASSERT_TRUE(fs_.Symlink("/docs/a.txt", "/view/stored").ok());
  const Stat stored = fs_.LstatPath("/view/stored").value();
  const uint64_t t0 = fs_.clock().Now();
  EXPECT_EQ(fs_.LstatPath("/view").value().mtime, t0);
  EXPECT_EQ(stored.mtime, t0 - 1);  // a new inode's mtime is the tick before its parent's

  FileSystem::ExternalLink link = fs_.AddExternalLink(view).value();
  EXPECT_EQ(link.id, stored.inode + 1);
  EXPECT_EQ(link.mtime, t0);
  EXPECT_EQ(fs_.clock().Now(), t0 + 1);
  EXPECT_EQ(fs_.LstatPath("/view").value().mtime, t0 + 1);
  ASSERT_TRUE(fs_.RemoveExternalLink(view).ok());
  EXPECT_EQ(fs_.LstatPath("/view").value().mtime, t0 + 2);
  ASSERT_TRUE(fs_.WriteFile("/docs/c.txt", "charlie").ok());
  EXPECT_EQ(fs_.Lookup("/docs/c.txt").value(), link.id + 1);

  const InodeId file = fs_.Lookup("/docs/c.txt").value();
  EXPECT_EQ(fs_.AddExternalLink(file).code(), ErrorCode::kNotADirectory);
}

TEST_F(ExternalLinkTest, DetachAndAttachKeepIdAndMtimeWithoutTicks) {
  ASSERT_TRUE(fs_.Symlink("/docs/a.txt", "/view/l").ok());
  const Stat link = fs_.LstatPath("/view/l").value();
  const uint64_t t0 = fs_.clock().Now();
  FileSystem::ExternalLink kept = fs_.DetachSymlink("/view/l").value();
  EXPECT_EQ(kept.id, link.inode);
  EXPECT_EQ(kept.mtime, link.mtime);
  EXPECT_EQ(fs_.LstatPath("/view/l").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs_.FindInode(link.inode), nullptr);

  ASSERT_TRUE(fs_.AttachSymlink("/view/moved", kept, "/docs/deep/b.txt").ok());
  const Stat back = fs_.LstatPath("/view/moved").value();
  EXPECT_EQ(back.inode, link.inode);
  EXPECT_EQ(back.mtime, link.mtime);
  EXPECT_EQ(fs_.ReadLink("/view/moved").value(), "/docs/deep/b.txt");
  EXPECT_EQ(fs_.clock().Now(), t0);

  EXPECT_EQ(fs_.AttachSymlink("/view/other", kept, "/x").code(),
            ErrorCode::kInvalidArgument);  // id in use
  EXPECT_EQ(fs_.AttachSymlink("/view/moved", {999, 0}, "/x").code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs_.DetachSymlink("/docs/a.txt").code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace hac
