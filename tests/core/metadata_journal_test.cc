#include "src/core/metadata_journal.h"

#include <gtest/gtest.h>

namespace hac {
namespace {

TEST(MetadataJournalTest, AppendAndDecode) {
  MetadataJournal journal;
  journal.Append(JournalOp::kDirCreated, 7, "/a");
  journal.Append(JournalOp::kRename, 0, "/a", "/b");
  journal.Append(JournalOp::kQuerySet, 7, "fingerprint AND ridge");
  auto records = journal.Decode();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[0].op, JournalOp::kDirCreated);
  EXPECT_EQ(records.value()[0].subject, 7u);
  EXPECT_EQ(records.value()[0].a, "/a");
  EXPECT_EQ(records.value()[1].b, "/b");
  EXPECT_EQ(records.value()[2].a, "fingerprint AND ridge");
  EXPECT_EQ(journal.PendingRecords(), 3u);
}

TEST(MetadataJournalTest, EmptyDecode) {
  MetadataJournal journal;
  auto records = journal.Decode();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records.value().empty());
  EXPECT_EQ(journal.SizeBytes(), 0u);
}

TEST(MetadataJournalTest, ClearResets) {
  MetadataJournal journal;
  journal.Append(JournalOp::kMount, 1, "/m");
  ASSERT_GT(journal.SizeBytes(), 0u);
  journal.Clear();
  EXPECT_EQ(journal.SizeBytes(), 0u);
  EXPECT_EQ(journal.PendingRecords(), 0u);
  EXPECT_TRUE(journal.Decode().value().empty());
}

TEST(MetadataJournalTest, BinarySafePayloads) {
  MetadataJournal journal;
  std::string binary("\x00\x01\xff payload", 12);
  journal.Append(JournalOp::kLinkAdded, 3, binary, "");
  auto records = journal.Decode();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value()[0].a, binary);
}

TEST(MetadataJournalTest, GrowsLinearly) {
  MetadataJournal journal;
  size_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    journal.Append(JournalOp::kFileRegistered, static_cast<uint64_t>(i), "/same/len");
    EXPECT_GT(journal.SizeBytes(), prev);
    prev = journal.SizeBytes();
  }
  EXPECT_EQ(journal.PendingRecords(), 100u);
}

TEST(MetadataJournalTest, DrainConsumesInOrder) {
  MetadataJournal journal;
  journal.Append(JournalOp::kDirCreated, 1, "/a");
  journal.Append(JournalOp::kFileRegistered, 2, "/a/f");
  journal.Append(JournalOp::kUnlinked, 0, "/a/f");
  auto drained = journal.Drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].op, JournalOp::kDirCreated);
  EXPECT_EQ(drained[1].op, JournalOp::kFileRegistered);
  EXPECT_EQ(drained[2].op, JournalOp::kUnlinked);
  EXPECT_EQ(journal.SizeBytes(), 0u);
  EXPECT_EQ(journal.PendingRecords(), 0u);
  EXPECT_TRUE(journal.Drain().empty());
}

TEST(MetadataJournalTest, DrainInterleavesWithAppends) {
  MetadataJournal journal;
  for (int i = 0; i < 2; ++i) {
    journal.Append(JournalOp::kFileWritten, static_cast<uint64_t>(i), "/f", "x");
  }
  auto first = journal.Drain();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].subject, 0u);
  EXPECT_EQ(first[1].subject, 1u);
  // Appends after a drain wait for the next one, in order.
  for (int i = 2; i < 6; ++i) {
    journal.Append(JournalOp::kFileWritten, static_cast<uint64_t>(i), "/f", "x");
  }
  EXPECT_EQ(journal.PendingRecords(), 4u);
  auto rest = journal.Drain();
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0].subject, 2u);
  EXPECT_EQ(rest[3].subject, 5u);
  EXPECT_EQ(journal.PendingRecords(), 0u);
}

TEST(MetadataJournalTest, JournalOpNamesCoverEveryOp) {
  for (size_t i = 1; i < kJournalOpCount; ++i) {
    const auto op = static_cast<JournalOp>(i);
    EXPECT_STRNE(JournalOpName(op), "?") << "op " << i << " has no name";
  }
  EXPECT_STREQ(JournalOpName(static_cast<JournalOp>(0)), "?");
  EXPECT_STREQ(JournalOpName(JournalOp::kProhibitCleared), "ProhibitCleared");
}

}  // namespace
}  // namespace hac
