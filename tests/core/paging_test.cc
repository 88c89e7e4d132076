// HacFileSystem::ReadDirPage / SearchPage: continuation tokens, byte budgets, and
// the resume-by-position contract behind the service's cursor ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/hac_file_system.h"

namespace hac {
namespace {

std::vector<std::string> Names(const std::vector<DirEntry>& entries) {
  std::vector<std::string> out;
  for (const auto& e : entries) {
    out.push_back(e.name);
  }
  return out;
}

class PagingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.Mkdir("/docs").ok());
    for (int i = 0; i < 12; ++i) {
      const std::string name = "/docs/f" + std::string(1, char('a' + i)) + ".txt";
      ASSERT_TRUE(fs_.WriteFile(name, i % 2 ? "alpha topic" : "bravo topic").ok());
    }
    ASSERT_TRUE(fs_.SMkdir("/q", "alpha OR bravo").ok());
    ASSERT_TRUE(fs_.Reindex().ok());
  }

  HacFileSystem fs_;
};

TEST_F(PagingTest, PagedReadDirCoversEverythingInOrder) {
  const std::vector<std::string> full = Names(fs_.ReadDir("/docs").value());
  std::vector<std::string> paged;
  const PageToken* token = nullptr;
  PageToken held;
  size_t pages = 0;
  for (;;) {
    auto page = fs_.ReadDirPage("/docs", token, 5, 0);
    ASSERT_TRUE(page.ok());
    ++pages;
    for (const auto& e : page.value().entries) {
      paged.push_back(e.name);
    }
    if (!page.value().has_more) {
      break;
    }
    EXPECT_EQ(page.value().entries.size(), 5u);  // full pages until the tail
    held = page.value().next;
    token = &held;
  }
  EXPECT_EQ(pages, 3u);  // 5 + 5 + 2
  EXPECT_EQ(paged, full);
  EXPECT_TRUE(std::is_sorted(paged.begin(), paged.end()));
}

TEST_F(PagingTest, ByteBudgetBoundsPagesButAlwaysDeliversOne) {
  std::vector<std::string> paged;
  const PageToken* token = nullptr;
  PageToken held;
  for (;;) {
    // A budget smaller than any single name: progress is still guaranteed.
    auto page = fs_.ReadDirPage("/docs", token, 0, 1);
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page.value().entries.size(), 1u);
    paged.push_back(page.value().entries[0].name);
    if (!page.value().has_more) {
      break;
    }
    held = page.value().next;
    token = &held;
  }
  EXPECT_EQ(paged, Names(fs_.ReadDir("/docs").value()));
}

TEST_F(PagingTest, ReadDirResumesAfterLastNameAcrossAddsAndRemoves) {
  auto first = fs_.ReadDirPage("/docs", nullptr, 4, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().has_more);
  std::vector<std::string> drained = Names(first.value().entries);
  EXPECT_EQ(drained.back(), "fd.txt");
  PageToken token = first.value().next;

  // Mutations on both sides of the cursor position, including removing the very
  // entry the token names.
  ASSERT_TRUE(fs_.WriteFile("/docs/a0.txt", "before the cursor").ok());
  ASSERT_TRUE(fs_.Unlink("/docs/fb.txt").ok());
  ASSERT_TRUE(fs_.Unlink("/docs/fd.txt").ok());
  ASSERT_TRUE(fs_.WriteFile("/docs/zz.txt", "after the cursor").ok());
  ASSERT_TRUE(fs_.Unlink("/docs/fh.txt").ok());

  for (;;) {
    auto page = fs_.ReadDirPage("/docs", &token, 4, 0);
    ASSERT_TRUE(page.ok()) << page.error().ToString();
    for (const std::string& name : Names(page.value().entries)) {
      drained.push_back(name);
    }
    if (!page.value().has_more) {
      break;
    }
    token = page.value().next;
  }
  // Resumed strictly after "fd.txt": the entry added before the position never
  // shows, the one added after it does, and the one removed ahead of the cursor
  // is skipped. Every untouched entry arrives exactly once, in order.
  const std::vector<std::string> expected = {
      "fa.txt", "fb.txt", "fc.txt", "fd.txt", "fe.txt", "ff.txt",
      "fg.txt", "fi.txt", "fj.txt", "fk.txt", "fl.txt", "zz.txt"};
  EXPECT_EQ(drained, expected);
}

TEST_F(PagingTest, AtStartTokenStartsAtTheFirstEntry) {
  // A token that has delivered nothing starts from the first entry, whatever was
  // written after it was made.
  PageToken token;
  ASSERT_TRUE(fs_.WriteFile("/docs/a0.txt", "early arrival").ok());
  auto page = fs_.ReadDirPage("/docs", &token, 4, 0);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page.value().entries.size(), 4u);
  EXPECT_EQ(page.value().entries.front().name, "a0.txt");
  EXPECT_FALSE(page.value().next.at_start);
  EXPECT_EQ(page.value().next.last_name, "fc.txt");
}

TEST_F(PagingTest, WritesElsewhereDoNotDisturbADrain) {
  ASSERT_TRUE(fs_.Mkdir("/elsewhere").ok());
  std::vector<std::string> paged;
  PageToken token;
  for (int i = 0;; ++i) {
    auto page = fs_.ReadDirPage("/docs", &token, 3, 0);
    ASSERT_TRUE(page.ok()) << page.error().ToString();
    for (const std::string& name : Names(page.value().entries)) {
      paged.push_back(name);
    }
    if (!page.value().has_more) {
      break;
    }
    ASSERT_TRUE(fs_.WriteFile("/elsewhere/w" + std::to_string(i), "alpha").ok());
    ASSERT_TRUE(fs_.Reindex().ok());
    token = page.value().next;
  }
  EXPECT_EQ(paged, Names(fs_.ReadDir("/docs").value()));
}

TEST_F(PagingTest, PagedSearchEqualsMonolithicSearch) {
  std::vector<std::string> expected = fs_.Search("alpha OR bravo", "/docs").value();
  std::sort(expected.begin(), expected.end());

  std::vector<std::string> paged;
  const PageToken* token = nullptr;
  PageToken held;
  size_t pages = 0;
  for (;;) {
    auto page = fs_.SearchPage("alpha OR bravo", "/docs", token, 3, 0);
    ASSERT_TRUE(page.ok());
    ++pages;
    for (const auto& p : page.value().paths) {
      paged.push_back(p);
    }
    if (!page.value().has_more) {
      break;
    }
    held = page.value().next;
    token = &held;
  }
  EXPECT_GE(pages, 4u);  // 12 matches in pages of <= 3
  std::sort(paged.begin(), paged.end());
  EXPECT_EQ(paged, expected);
}

TEST_F(PagingTest, PagedSearchHonorsScope) {
  ASSERT_TRUE(fs_.Mkdir("/other").ok());
  ASSERT_TRUE(fs_.WriteFile("/other/x.txt", "alpha elsewhere").ok());
  ASSERT_TRUE(fs_.Reindex().ok());
  auto page = fs_.SearchPage("alpha", "/docs", nullptr, 0, 0);
  ASSERT_TRUE(page.ok());
  for (const auto& p : page.value().paths) {
    EXPECT_EQ(p.rfind("/docs/", 0), 0u) << p;
  }
  EXPECT_FALSE(page.value().has_more);
}

TEST_F(PagingTest, SearchPageResumesAfterLastDocAcrossReindex) {
  auto first = fs_.SearchPage("alpha OR bravo", "/docs", nullptr, 3, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().has_more);
  std::vector<std::string> drained = first.value().paths;
  PageToken token = first.value().next;

  // Docs before and after the position change membership, then a reindex runs
  // between pages. DocIds follow creation order, so the file created now sorts
  // after the cursor and the removed ones are gone before it reaches them.
  const std::string behind = drained.front();
  ASSERT_TRUE(fs_.Unlink(behind).ok());
  ASSERT_TRUE(fs_.Unlink("/docs/fk.txt").ok());
  ASSERT_TRUE(fs_.WriteFile("/docs/new.txt", "alpha too").ok());
  ASSERT_TRUE(fs_.Reindex().ok());

  for (;;) {
    auto page = fs_.SearchPage("alpha OR bravo", "/docs", &token, 3, 0);
    ASSERT_TRUE(page.ok()) << page.error().ToString();
    for (const std::string& p : page.value().paths) {
      drained.push_back(p);
    }
    if (!page.value().has_more) {
      break;
    }
    token = page.value().next;
  }
  std::vector<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "/docs/f" + std::string(1, char('a' + i)) + ".txt";
    if (name != "/docs/fk.txt") {
      expected.push_back(name);
    }
  }
  expected.push_back("/docs/new.txt");
  // Delivered in DocId (creation) order, each untouched doc exactly once; the doc
  // removed behind the cursor was already delivered.
  EXPECT_EQ(drained, expected);
}

TEST_F(PagingTest, ErrorsMatchMonolithicReadDir) {
  EXPECT_EQ(fs_.ReadDirPage("/nope", nullptr, 0, 0).error().code,
            ErrorCode::kNotFound);
  EXPECT_EQ(fs_.ReadDirPage("/docs/fa.txt", nullptr, 0, 0).error().code,
            ErrorCode::kNotADirectory);
}

TEST_F(PagingTest, EntryCapIsClamped) {
  // An absurd per-page request is clamped to the facade maximum, not honored.
  auto page = fs_.ReadDirPage("/docs", nullptr, size_t{1} << 40, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_LE(page.value().entries.size(), size_t{4096});
}

}  // namespace
}  // namespace hac
