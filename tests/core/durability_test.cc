// The recovery test matrix for the durability layer (docs/DURABILITY.md).
//
// Every row runs the same scripted workload in batches against a DurableStore, kills
// the "process" somewhere (fault-injected WAL, corrupted files, or a plain drop of
// the in-memory state), recovers from the surviving data directory, and asserts the
// durability contract:
//
//   * every batch whose CommitFrom() succeeded (an "acknowledged" batch) is fully
//     present in the recovered state;
//   * the recovered state equals a clean replay reference digest-for-digest
//     (StateDigest covers paths, contents, symlink targets, queries, link classes);
//   * fsck reports the recovered instance fully consistent.
#include "src/core/durability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/core/hac_file_system.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/tools/fsck.h"

namespace hac {
namespace {

namespace fs_std = std::filesystem;

// Fresh per-test data directory under the build tree (never /tmp).
std::string TestDir(const std::string& name) {
  fs_std::path dir = fs_std::current_path() / "durability_test_data" / name;
  fs_std::remove_all(dir);
  fs_std::create_directories(dir);
  return dir.string();
}

using Batch = std::function<Result<void>(HacFileSystem&)>;

// The scripted workload: replayable mutations only (no mounts), touching every
// journaled operation class — creates, writes at offsets, truncation, unlink,
// rename, symlinks, semantic directories, query changes, prohibit/unprohibit.
std::vector<Batch> Workload() {
  return {
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Mkdir("/docs"));
        return fs.WriteFile("/docs/a.txt", "alpha fingerprint evidence");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.WriteFile("/docs/b.txt", "beta dental records"));
        return fs.Mkdir("/work");
      },
      [](HacFileSystem& fs) -> Result<void> {
        return fs.SMkdir("/sem", "fingerprint");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(
            fs.WriteFile("/docs/c.txt", "gamma fingerprint dental"));
        return fs.SetQuery("/sem", "fingerprint OR dental");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Rename("/docs/b.txt", "/work/b.txt"));
        return fs.Symlink("/docs/a.txt", "/work/alink");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Prohibit("/sem", "/docs/c.txt"));
        return fs.WriteFile("/docs/d.txt", "delta notes fingerprint");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Unlink("/docs/d.txt"));
        return fs.AppendFile("/docs/a.txt", " appended tail");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Unprohibit("/sem", "/docs/c.txt"));
        return fs.WriteFile("/work/e.txt", "epsilon findings");
      },
  };
}

// Reference: the first `num_batches` batches applied to a fresh instance, reindexed.
uint64_t CleanReplayDigest(size_t num_batches) {
  HacFileSystem fs;
  const std::vector<Batch> batches = Workload();
  for (size_t i = 0; i < num_batches && i < batches.size(); ++i) {
    EXPECT_TRUE(batches[i](fs).ok()) << "reference batch " << i;
  }
  EXPECT_TRUE(fs.Reindex().ok());
  return StateDigest(fs);
}

// Reference: the given WAL frames re-executed through ApplyRecord, reindexed.
// Matches recovery exactly — including a tail cut mid-batch.
uint64_t FrameReplayDigest(const std::vector<DurableStore::DecodedFrame>& frames) {
  HacFileSystem fs;
  for (const auto& frame : frames) {
    (void)DurableStore::ApplyRecord(fs, frame.record);
  }
  EXPECT_TRUE(fs.Reindex().ok());
  return StateDigest(fs);
}

uint64_t DigestOf(HacFileSystem& fs) {
  EXPECT_TRUE(fs.Reindex().ok());
  return StateDigest(fs);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// The bytes of the valid frames at the front of a segment, its zero tail excluded.
uint64_t FrameBytes(const std::vector<uint8_t>& bytes) {
  uint64_t n = 0;
  for (const auto& frame : DurableStore::DecodeFrames(bytes, nullptr, nullptr)) {
    n += frame.bytes;
  }
  return n;
}

bool AllZero(std::vector<uint8_t>::const_iterator begin,
             std::vector<uint8_t>::const_iterator end) {
  return std::all_of(begin, end, [](uint8_t b) { return b == 0; });
}

std::vector<std::string> ListFiles(const std::string& dir, const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& entry : fs_std::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs batches through `store`, committing after each; returns the number of
// acknowledged batches (stops at the first failed commit, like the service would).
size_t RunBatches(HacFileSystem& fs, DurableStore& store, size_t checkpoint_after,
                  size_t second_checkpoint_after = 0) {
  const std::vector<Batch> batches = Workload();
  for (size_t i = 0; i < batches.size(); ++i) {
    Result<void> applied = batches[i](fs);
    EXPECT_TRUE(applied.ok()) << "batch " << i << ": "
                              << (applied.ok() ? "" : applied.error().ToString());
    if (!store.CommitFrom(fs).ok()) {
      return i;  // this batch was not acknowledged
    }
    if ((checkpoint_after != 0 && i + 1 == checkpoint_after) ||
        (second_checkpoint_after != 0 && i + 1 == second_checkpoint_after)) {
      EXPECT_TRUE(store.Checkpoint(fs).ok());
    }
  }
  return batches.size();
}

void ExpectAckedBatchesPresent(HacFileSystem& fs, size_t acked) {
  // Spot checks per batch: the on-disk artifact each acknowledged batch left.
  if (acked >= 1) {
    auto a = fs.ReadFileToString("/docs/a.txt");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value().rfind("alpha fingerprint evidence", 0), 0u);
  }
  if (acked >= 3) {
    auto q = fs.GetQuery("/sem");
    ASSERT_TRUE(q.ok());
    EXPECT_FALSE(q.value().empty());
  }
  if (acked >= 5) {
    EXPECT_TRUE(fs.Exists("/work/b.txt"));
    auto target = fs.ReadLink("/work/alink");
    ASSERT_TRUE(target.ok());
    EXPECT_EQ(target.value(), "/docs/a.txt");
  }
  if (acked >= 7) {
    EXPECT_FALSE(fs.Exists("/docs/d.txt"));
    auto a = fs.ReadFileToString("/docs/a.txt");
    ASSERT_TRUE(a.ok());
    EXPECT_NE(a.value().find(" appended tail"), std::string::npos);
  }
  if (acked >= 8) {
    EXPECT_TRUE(fs.Exists("/work/e.txt"));
  }
}

std::string CheckpointName(const std::string& dir, uint64_t lsn) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(lsn));
  return (fs_std::path(dir) / (std::string("checkpoint-") + hex + ".hacs")).string();
}

enum class Row {
  kCrashBeforeFsync,
  kTornLastFrame,
  kTruncatedCheckpoint,
  kUnpublishedCheckpoint,
  kStaleCheckpointLongTail,
  kCorruptCrcMidLog,
  kCorruptCoveredSegment,
};

std::string RowName(Row row) {
  switch (row) {
    case Row::kCrashBeforeFsync:
      return "CrashBeforeFsync";
    case Row::kTornLastFrame:
      return "TornLastFrame";
    case Row::kTruncatedCheckpoint:
      return "TruncatedCheckpoint";
    case Row::kUnpublishedCheckpoint:
      return "UnpublishedCheckpoint";
    case Row::kStaleCheckpointLongTail:
      return "StaleCheckpointLongTail";
    case Row::kCorruptCrcMidLog:
      return "CorruptCrcMidLog";
    case Row::kCorruptCoveredSegment:
      return "CorruptCoveredSegment";
  }
  return "?";
}

class CrashMatrixTest : public ::testing::TestWithParam<Row> {};

TEST_P(CrashMatrixTest, RecoversToCleanReplayReference) {
  const Row row = GetParam();
  const std::string dir = TestDir(RowName(row));

  DurabilityOptions opts;
  opts.data_dir = dir;
  size_t checkpoint_after = 0;
  size_t second_checkpoint_after = 0;
  switch (row) {
    case Row::kCrashBeforeFsync:
      opts.wal_fault = FaultSpec::Parse("crash_after:6");
      break;
    case Row::kTornLastFrame:
      opts.wal_fault = FaultSpec::Parse("torn:5");
      break;
    case Row::kTruncatedCheckpoint:
    case Row::kUnpublishedCheckpoint:
      checkpoint_after = 4;
      second_checkpoint_after = 6;
      break;
    case Row::kCorruptCoveredSegment:
      checkpoint_after = 2;
      second_checkpoint_after = 5;
      break;
    case Row::kStaleCheckpointLongTail:
      checkpoint_after = 1;
      break;
    case Row::kCorruptCrcMidLog:
      break;
  }

  // --- phase 1: live run until the injected crash (or a clean drop) ---
  size_t acked = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    acked = RunBatches(*fs.value(), *store.value(), checkpoint_after,
                       second_checkpoint_after);
    // The in-memory state now dies with the "process": unique_ptrs go out of scope
    // without any checkpoint or shutdown courtesy.
  }
  if (opts.wal_fault.active()) {
    EXPECT_LT(acked, Workload().size()) << "the fault was supposed to fire";
  } else {
    EXPECT_EQ(acked, Workload().size());
  }

  // --- phase 2: post-crash disk damage for the file-corruption rows ---
  if (row == Row::kTruncatedCheckpoint) {
    auto checkpoints = ListFiles(dir, "checkpoint-");
    ASSERT_EQ(checkpoints.size(), 2u);
    // Tear the NEWEST checkpoint in half; recovery must fall back to the older one.
    std::vector<uint8_t> bytes = ReadFileBytes(checkpoints.back());
    bytes.resize(bytes.size() / 2);
    WriteFileBytes(checkpoints.back(), bytes);
  }
  std::string older_checkpoint;
  if (row == Row::kUnpublishedCheckpoint) {
    // A crash after checkpoint B rotated the WAL to wal-<B> and before its rename:
    // B exists only as a half-written temp file. Recovery must ignore it and load A,
    // then replay wal-<A> and wal-<B>.
    auto checkpoints = ListFiles(dir, "checkpoint-");
    ASSERT_EQ(checkpoints.size(), 2u);
    ASSERT_EQ(ListFiles(dir, "wal-").size(), 2u);
    older_checkpoint = checkpoints.front();
    std::vector<uint8_t> bytes = ReadFileBytes(checkpoints.back());
    bytes.resize(bytes.size() / 2);
    WriteFileBytes(checkpoints.back() + ".tmp", bytes);
    fs_std::remove(checkpoints.back());
  }
  // The media-corruption rows flip one bit halfway through a segment's frames (not
  // halfway through the file, which would land in its zero tail).
  std::vector<DurableStore::DecodedFrame> surviving;
  std::string damaged_segment;
  uint64_t frame_bytes = 0;
  if (row == Row::kCorruptCrcMidLog) {
    auto wals = ListFiles(dir, "wal-");
    ASSERT_EQ(wals.size(), 1u);
    damaged_segment = wals[0];
    std::vector<uint8_t> bytes = ReadFileBytes(wals[0]);
    frame_bytes = FrameBytes(bytes);
    ASSERT_GT(frame_bytes, 16u);
    bytes[frame_bytes / 2] ^= 0x01;  // silent media corruption mid-log
    WriteFileBytes(wals[0], bytes);
    bool truncated = false;
    std::string detail;
    surviving = DurableStore::DecodeFrames(bytes, &truncated, &detail);
    ASSERT_TRUE(truncated) << "the flipped bit must invalidate a frame";
    ASSERT_LE(FrameBytes(bytes), frame_bytes / 2) << "the scan must stop at the flip";
  }
  std::string newer_checkpoint;
  if (row == Row::kCorruptCoveredSegment) {
    // Checkpoint A after batch 2, B after batch 5: wal-<A> holds batches 3-5, which
    // B covers, and wal-<B> holds batches 6-8. Damage in wal-<A> must not cost the
    // acknowledged batches in wal-<B>.
    auto checkpoints = ListFiles(dir, "checkpoint-");
    ASSERT_EQ(checkpoints.size(), 2u);
    newer_checkpoint = checkpoints.back();
    auto wals = ListFiles(dir, "wal-");
    ASSERT_EQ(wals.size(), 2u);
    std::vector<uint8_t> bytes = ReadFileBytes(wals.front());
    frame_bytes = FrameBytes(bytes);
    ASSERT_GT(frame_bytes, 16u);
    bytes[frame_bytes / 2] ^= 0x01;
    WriteFileBytes(wals.front(), bytes);
    bool truncated = false;
    std::string detail;
    (void)DurableStore::DecodeFrames(bytes, &truncated, &detail);
    ASSERT_TRUE(truncated) << "the flipped bit must invalidate a frame";
    ASSERT_LE(FrameBytes(bytes), frame_bytes / 2) << "the scan must stop at the flip";
  }
  if (row == Row::kTornLastFrame) {
    // The torn tail is literally on disk: decoding must stop early.
    auto wals = ListFiles(dir, "wal-");
    ASSERT_EQ(wals.size(), 1u);
    bool truncated = false;
    std::string detail;
    surviving = DurableStore::DecodeFrames(ReadFileBytes(wals[0]), &truncated, &detail);
    ASSERT_TRUE(truncated);
  }

  // --- phase 3: recover (no fault injection; the new process is healthy) ---
  DurabilityOptions clean = opts;
  clean.wal_fault = FaultSpec{};
  auto reopened = DurableStore::Open(clean);
  ASSERT_TRUE(reopened.ok());
  auto recovered = reopened.value()->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error().ToString();
  const RecoveryInfo& info = reopened.value()->recovery_info();

  // --- phase 4: the contract ---
  FsckReport report = RunFsck(*recovered.value());
  EXPECT_TRUE(report.Clean()) << report.ToString();
  if (row != Row::kCorruptCrcMidLog) {
    // Every crash shape preserves acknowledged batches. Silent media corruption
    // (the CRC row) is the one damage model outside that guarantee — it destroys
    // already-acknowledged frames post hoc, and the contract there is "serve the
    // valid prefix", asserted via FrameReplayDigest below.
    ExpectAckedBatchesPresent(*recovered.value(), acked);
  }
  const uint64_t got = DigestOf(*recovered.value());
  switch (row) {
    case Row::kCrashBeforeFsync:
      // Unsynced frames are gone wholesale: the surviving log is exactly the
      // acknowledged batches, so the op-level reference applies.
      EXPECT_EQ(got, CleanReplayDigest(acked));
      EXPECT_FALSE(info.tail_truncated) << info.detail;
      break;
    case Row::kTornLastFrame:
      EXPECT_EQ(got, FrameReplayDigest(surviving));
      EXPECT_TRUE(info.tail_truncated);
      break;
    case Row::kTruncatedCheckpoint:
      EXPECT_EQ(got, CleanReplayDigest(Workload().size()));
      EXPECT_GT(info.checkpoint_lsn, 0u);  // fell back to the older generation
      EXPECT_GT(info.replayed_records, 0u);
      break;
    case Row::kUnpublishedCheckpoint:
      EXPECT_EQ(got, CleanReplayDigest(Workload().size()));
      EXPECT_EQ(info.checkpoint_file, older_checkpoint);
      EXPECT_FALSE(info.tail_truncated) << info.detail;
      // Batches 5-6 live in wal-<A>, batches 7-8 in wal-<B>: both segments replay.
      EXPECT_GT(info.replayed_records, 0u);
      EXPECT_EQ(ListFiles(dir, "wal-").size(), 2u);
      break;
    case Row::kStaleCheckpointLongTail:
      EXPECT_EQ(got, CleanReplayDigest(Workload().size()));
      EXPECT_GT(info.replayed_records, 0u);
      // The genesis segment predates the checkpoint, which covers it: left unread.
      EXPECT_EQ(info.skipped_segments, 1u);
      break;
    case Row::kCorruptCrcMidLog: {
      EXPECT_EQ(got, FrameReplayDigest(surviving));
      EXPECT_TRUE(info.tail_truncated);
      // The repair keeps the frames before the damaged one and nothing after.
      uint64_t kept = 0;
      for (const auto& frame : surviving) {
        kept += frame.bytes;
      }
      EXPECT_EQ(fs_std::file_size(damaged_segment), kept);
      EXPECT_LE(kept, frame_bytes / 2);
      break;
    }
    case Row::kCorruptCoveredSegment:
      EXPECT_EQ(got, CleanReplayDigest(Workload().size()));
      EXPECT_EQ(info.checkpoint_file, newer_checkpoint);
      EXPECT_FALSE(info.tail_truncated) << info.detail;
      EXPECT_EQ(info.skipped_segments, 1u);
      EXPECT_GT(info.replayed_records, 0u);
      EXPECT_EQ(ListFiles(dir, "wal-").size(), 2u);  // wal-<B> survives
      break;
  }

  // A second recovery of the repaired directory is clean and identical: the damaged
  // suffix was discarded on the first pass, not deferred.
  auto again = DurableStore::Open(clean);
  ASSERT_TRUE(again.ok());
  auto recovered2 = again.value()->Recover();
  ASSERT_TRUE(recovered2.ok());
  EXPECT_FALSE(again.value()->recovery_info().tail_truncated)
      << again.value()->recovery_info().detail;
  EXPECT_EQ(DigestOf(*recovered2.value()), got);
}

INSTANTIATE_TEST_SUITE_P(DurabilityMatrix, CrashMatrixTest,
                         ::testing::Values(Row::kCrashBeforeFsync,
                                           Row::kTornLastFrame,
                                           Row::kTruncatedCheckpoint,
                                           Row::kUnpublishedCheckpoint,
                                           Row::kStaleCheckpointLongTail,
                                           Row::kCorruptCrcMidLog,
                                           Row::kCorruptCoveredSegment),
                         [](const ::testing::TestParamInfo<Row>& param_info) {
                           return RowName(param_info.param);
                         });

// --- unit coverage around the matrix ---

TEST(DurabilityTest, FrameCodecRoundTrips) {
  JournalRecord rec;
  rec.op = JournalOp::kFileWritten;
  rec.subject = 42;
  rec.a = "/docs/a.txt";
  rec.b = std::string("payload\0with zero", 17);
  std::vector<uint8_t> bytes;
  DurableStore::EncodeFrame(7, rec, bytes);
  DurableStore::EncodeFrame(8, rec, bytes);
  bool truncated = true;
  std::string detail;
  auto frames = DurableStore::DecodeFrames(bytes, &truncated, &detail);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(frames[0].lsn, 7u);
  EXPECT_EQ(frames[1].lsn, 8u);
  EXPECT_EQ(frames[0].record.op, JournalOp::kFileWritten);
  EXPECT_EQ(frames[0].record.subject, 42u);
  EXPECT_EQ(frames[0].record.a, "/docs/a.txt");
  EXPECT_EQ(frames[0].record.b, rec.b);

  // A torn header (under 8 bytes of trailer) stops the scan but keeps the prefix.
  bytes.resize(bytes.size() - frames.back().record.b.size() - 12);
  frames = DurableStore::DecodeFrames(bytes, &truncated, &detail);
  EXPECT_EQ(frames.size(), 1u);
  EXPECT_TRUE(truncated);
}

// CRC-32 one byte at a time, bit by bit, over the same reflected polynomial: the
// reference the table-driven Crc32 must equal.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(DurabilityTest, Crc32MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(DurabilityTest, Crc32EqualsTheByteAtATimeLoop) {
  std::mt19937_64 rng(20261019);
  std::vector<uint8_t> buf(4096 + 8);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng() % 8;  // every alignment of the 8-byte loads
    const size_t n = rng() % (buf.size() - offset);
    const uint32_t seed = trial % 4 == 0 ? 0 : static_cast<uint32_t>(rng());
    ASSERT_EQ(Crc32(buf.data() + offset, n, seed),
              ReferenceCrc32(buf.data() + offset, n, seed))
        << "offset " << offset << " length " << n << " seed " << seed;
  }
}

TEST(DurabilityTest, FaultSpecParses) {
  EXPECT_EQ(FaultSpec::Parse("crash_after:3").kind, FaultSpec::Kind::kCrashAfter);
  EXPECT_EQ(FaultSpec::Parse("crash_after:3").at_write, 3u);
  EXPECT_EQ(FaultSpec::Parse("torn:9").kind, FaultSpec::Kind::kTorn);
  EXPECT_EQ(FaultSpec::Parse("bitflip:1").kind, FaultSpec::Kind::kBitFlip);
  EXPECT_FALSE(FaultSpec::Parse("").active());
  EXPECT_FALSE(FaultSpec::Parse("nonsense").active());
  EXPECT_FALSE(FaultSpec::Parse("torn").active());
}

TEST(DurabilityTest, BitFlipIsCaughtByCrc) {
  const std::string dir = TestDir("BitFlip");
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.wal_fault = FaultSpec::Parse("bitflip:3");
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  const size_t acked = RunBatches(*fs.value(), *store.value(), 0);
  // The flip is silent: every batch still acknowledges.
  EXPECT_EQ(acked, Workload().size());

  DurabilityOptions clean = opts;
  clean.wal_fault = FaultSpec{};
  auto reopened = DurableStore::Open(clean);
  ASSERT_TRUE(reopened.ok());
  auto recovered = reopened.value()->Recover();
  ASSERT_TRUE(recovered.ok());
  // Only the CRC notices — replay stops at the flipped frame.
  EXPECT_TRUE(reopened.value()->recovery_info().tail_truncated);
  EXPECT_TRUE(RunFsck(*recovered.value()).Clean());
}

TEST(DurabilityTest, CommitFromWritesOnlyReplayableFrames) {
  const std::string dir = TestDir("ReplayableOnly");
  DurabilityOptions opts;
  opts.data_dir = dir;
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  // SMkdir journals bookkeeping echoes (kLinkAdded) alongside the replayable ops.
  ASSERT_TRUE(fs.value()->Mkdir("/d").ok());
  ASSERT_TRUE(fs.value()->WriteFile("/d/x.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.value()->Reindex().ok());
  ASSERT_TRUE(fs.value()->SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());

  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  bool truncated = false;
  auto frames = DurableStore::DecodeFrames(ReadFileBytes(wals[0]), &truncated, nullptr);
  EXPECT_FALSE(truncated);
  ASSERT_FALSE(frames.empty());
  uint64_t prev_lsn = 0;
  for (const auto& frame : frames) {
    EXPECT_TRUE(IsReplayableOp(frame.record.op))
        << "non-replayable op in the WAL: " << JournalOpName(frame.record.op);
    EXPECT_GT(frame.lsn, prev_lsn) << "LSNs must be strictly monotone";
    prev_lsn = frame.lsn;
  }
}

// The WAL bytes CommitFrom writes for a fixed op sequence, pinned: file writes, a
// rename, an unlink, a query set and a link promotion over two group commits. The
// expected frame bytes and their FNV-1a hash were computed by the implementation
// that encoded journal records and WAL frames in two separate places. The segment's
// zero fill follows them, to a whole chunk.
TEST(DurabilityTest, WalSegmentBytesArePinned) {
  const std::string dir = TestDir("WalGolden");
  DurabilityOptions opts;
  opts.data_dir = dir;
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  HacFileSystem& f = *fs.value();
  ASSERT_TRUE(f.Mkdir("/docs").ok());
  ASSERT_TRUE(f.WriteFile("/docs/a.txt", "alpha fingerprint evidence").ok());
  ASSERT_TRUE(f.WriteFile("/docs/b.txt", "beta dental records").ok());
  ASSERT_TRUE(f.WriteFile("/docs/d.txt", "delta notes").ok());
  ASSERT_TRUE(f.Reindex().ok());
  ASSERT_TRUE(f.SMkdir("/sem", "fingerprint").ok());
  ASSERT_TRUE(store.value()->CommitFrom(f).ok());
  ASSERT_TRUE(f.SetQuery("/sem", "fingerprint OR dental").ok());
  ASSERT_TRUE(f.Rename("/docs/b.txt", "/docs/c.txt").ok());
  ASSERT_TRUE(f.Unlink("/docs/d.txt").ok());
  ASSERT_TRUE(f.PromoteLink("/sem/a.txt").ok());
  ASSERT_TRUE(store.value()->CommitFrom(f).ok());

  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  const std::vector<uint8_t> bytes = ReadFileBytes(wals[0]);
  const uint64_t frames = FrameBytes(bytes);
  ASSERT_LE(frames, bytes.size());
  uint64_t fnv = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < frames; ++i) {
    fnv = (fnv ^ bytes[i]) * 0x100000001b3ull;
  }
  EXPECT_EQ(frames, 383u);
  EXPECT_EQ(fnv, 0xf2edfb5bbbc2b25dull)
      << "{" << frames << ", 0x" << std::hex << fnv << "ull}";
  EXPECT_TRUE(AllZero(bytes.begin() + static_cast<std::ptrdiff_t>(frames), bytes.end()));
  EXPECT_EQ(bytes.size(), WalSegmentFile::kFillChunk);
}

// A segment's zero tail is a clean end, at any length: the scan reports no damage,
// hac.durability.corrupt_frames does not move, and recovery cuts nothing.
TEST(DurabilityTest, ZeroTailIsACleanEnd) {
  const std::string dir = TestDir("ZeroTail");
  DurabilityOptions opts;
  opts.data_dir = dir;
  uint64_t lsn = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    ASSERT_EQ(RunBatches(*fs.value(), *store.value(), 0), Workload().size());
    lsn = store.value()->last_lsn();
  }
  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  const std::vector<uint8_t> bytes = ReadFileBytes(wals[0]);
  const uint64_t frames = FrameBytes(bytes);
  ASSERT_LT(frames, bytes.size());
  Counter& corrupt =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityCorruptFrames);
  const uint64_t corrupt_before = corrupt.Value();
  for (const uint64_t tail : {uint64_t{0}, uint64_t{3}, uint64_t{8}, uint64_t{100},
                              uint64_t{bytes.size() - frames}}) {
    SCOPED_TRACE(tail);
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<std::ptrdiff_t>(frames + tail));
    bool truncated = true;
    std::string detail;
    EXPECT_EQ(DurableStore::DecodeFrames(cut, &truncated, &detail).size(), lsn);
    EXPECT_FALSE(truncated) << detail;
  }

  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(store.value()->recovery_info().tail_truncated)
      << store.value()->recovery_info().detail;
  EXPECT_EQ(store.value()->recovery_info().replayed_records, lsn);
  EXPECT_EQ(corrupt.Value(), corrupt_before);
  EXPECT_EQ(ReadFileBytes(wals[0]), bytes);
  EXPECT_EQ(DigestOf(*fs.value()), CleanReplayDigest(Workload().size()));
}

// A zero frame header followed by anything but zeros is damage: the scan stops
// there, and recovery keeps the frames before it and cuts the rest.
TEST(DurabilityTest, ZeroHeaderFollowedByBytesIsDamage) {
  const std::string dir = TestDir("ZeroHeader");
  DurabilityOptions opts;
  opts.data_dir = dir;
  uint64_t lsn = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    ASSERT_EQ(RunBatches(*fs.value(), *store.value(), 0), Workload().size());
    lsn = store.value()->last_lsn();
  }
  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  std::vector<uint8_t> bytes = ReadFileBytes(wals[0]);
  const uint64_t frames = FrameBytes(bytes);
  ASSERT_GT(bytes.size(), frames + 100);
  bytes[frames + 100] = 0x5A;  // one stray byte inside the zero tail
  WriteFileBytes(wals[0], bytes);
  bool truncated = false;
  std::string detail;
  EXPECT_EQ(DurableStore::DecodeFrames(bytes, &truncated, &detail).size(), lsn);
  EXPECT_TRUE(truncated);

  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_TRUE(store.value()->recovery_info().tail_truncated);
  EXPECT_EQ(store.value()->recovery_info().replayed_records, lsn);
  EXPECT_EQ(fs_std::file_size(wals[0]), frames);  // the valid prefix, nothing after
  EXPECT_EQ(DigestOf(*fs.value()), CleanReplayDigest(Workload().size()));
}

// A restarted store writes right after the last frame, over the zero tail, not
// after it: the two runs' frames lie back to back in one chunk.
TEST(DurabilityTest, RestartAppendsRightAfterTheLastFrame) {
  const std::string dir = TestDir("RestartAppends");
  DurabilityOptions opts;
  opts.data_dir = dir;
  const std::vector<Batch> batches = Workload();
  const size_t half = batches.size() / 2;
  uint64_t digest = 0;
  uint64_t lsn = 0;
  for (size_t run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    EXPECT_FALSE(store.value()->recovery_info().tail_truncated);
    EXPECT_EQ(store.value()->last_lsn(), lsn);
    for (size_t i = run * half; i < (run + 1) * half; ++i) {
      ASSERT_TRUE(batches[i](*fs.value()).ok());
      ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    }
    lsn = store.value()->last_lsn();
    digest = DigestOf(*fs.value());
  }
  EXPECT_EQ(digest, CleanReplayDigest(batches.size()));

  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(store.value()->recovery_info().tail_truncated);
  EXPECT_EQ(store.value()->recovery_info().replayed_records, lsn);
  EXPECT_EQ(DigestOf(*fs.value()), digest);
  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  const std::vector<uint8_t> bytes = ReadFileBytes(wals[0]);
  bool truncated = true;
  auto frames = DurableStore::DecodeFrames(bytes, &truncated, nullptr);
  EXPECT_FALSE(truncated);
  ASSERT_EQ(frames.size(), lsn);
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].lsn, i + 1);
  }
  EXPECT_TRUE(AllZero(bytes.begin() + static_cast<std::ptrdiff_t>(FrameBytes(bytes)),
                      bytes.end()));
  EXPECT_EQ(bytes.size(), WalSegmentFile::kFillChunk);
}

// One batch whose frames cross a fill boundary: the commit fills the next chunk and
// writes across the boundary, and recovery serves the whole batch.
TEST(DurabilityTest, BatchAcrossAFillBoundaryRecoversWhole) {
  const std::string dir = TestDir("AcrossFill");
  DurabilityOptions opts;
  opts.data_dir = dir;
  constexpr uint64_t kChunk = WalSegmentFile::kFillChunk;
  Counter& filled =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityWalZeroFillBytes);
  const uint64_t filled_before = filled.Value();
  uint64_t digest = 0;
  uint64_t lsn = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(fs.value()->Mkdir("/x").ok());
    ASSERT_TRUE(fs.value()->WriteFile("/x/big", std::string(kChunk - 600, 'b')).ok());
    ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    const uint64_t first = store.value()->bytes_since_checkpoint();
    ASSERT_LT(first, kChunk);
    ASSERT_GT(first, kChunk - 1000);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(fs.value()
                      ->WriteFile("/x/f" + std::to_string(i) + ".txt",
                                  "crossing batch " + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    ASSERT_GT(store.value()->bytes_since_checkpoint(), kChunk);
    lsn = store.value()->last_lsn();
    digest = DigestOf(*fs.value());
  }
  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  EXPECT_EQ(fs_std::file_size(wals[0]), 2 * kChunk);
  EXPECT_EQ(filled.Value() - filled_before, 2 * kChunk);

  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(store.value()->recovery_info().tail_truncated)
      << store.value()->recovery_info().detail;
  EXPECT_EQ(store.value()->recovery_info().replayed_records, lsn);
  EXPECT_EQ(DigestOf(*fs.value()), digest);
}

// A segment from before zero-filling ends at its last frame. It recovers as
// before, and writing resumes right after that frame.
TEST(DurabilityTest, SegmentWithoutZeroTailStillRecovers) {
  const std::string dir = TestDir("NoZeroTail");
  DurabilityOptions opts;
  opts.data_dir = dir;
  const std::vector<Batch> batches = Workload();
  const size_t half = batches.size() / 2;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(batches[i](*fs.value()).ok());
      ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    }
  }
  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  const uint64_t frames = FrameBytes(ReadFileBytes(wals[0]));
  fs_std::resize_file(wals[0], frames);  // the layout an appending writer left
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    EXPECT_FALSE(store.value()->recovery_info().tail_truncated);
    EXPECT_EQ(DigestOf(*fs.value()), CleanReplayDigest(half));
    for (size_t i = half; i < batches.size(); ++i) {
      ASSERT_TRUE(batches[i](*fs.value()).ok());
      ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    }
  }
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(store.value()->recovery_info().tail_truncated);
  EXPECT_EQ(store.value()->recovery_info().replayed_records, store.value()->last_lsn());
  EXPECT_EQ(DigestOf(*fs.value()), CleanReplayDigest(batches.size()));
  const std::vector<uint8_t> bytes = ReadFileBytes(wals[0]);
  EXPECT_GT(FrameBytes(bytes), frames);
  EXPECT_EQ(bytes.size(), WalSegmentFile::kFillChunk);
}

// FaultyFile counts frames, not appends: a fault at frame N leaves the same bytes
// on disk whether every frame is its own append or a commit appends all its frames
// at once, so a matrix row's N means the same under either writer.
TEST(DurabilityTest, FaultyFileCountsFramesNotAppends) {
  std::vector<std::vector<uint8_t>> frames(6);
  for (size_t i = 0; i < frames.size(); ++i) {
    DurableStore::EncodeFrame(
        i + 1,
        JournalRecord{JournalOp::kFileWritten, i, "/f" + std::to_string(i),
                      std::string(10 + 7 * i, 'x')},
        frames[i]);
  }
  const std::vector<std::vector<size_t>> commits = {{0, 1}, {2, 3, 4}, {5}};
  const std::vector<size_t> synced_before = {0, 0, 2, 2, 2, 5};  // frames, by frame
  const std::string dir = TestDir("FaultyFileFrames");
  for (const std::string kind : {"crash_after", "torn", "bitflip"}) {
    for (size_t n = 1; n <= frames.size(); ++n) {
      const std::string spec = kind + ":" + std::to_string(n);
      SCOPED_TRACE(spec);
      std::vector<uint8_t> on_disk[2];
      for (const bool one_append_per_commit : {false, true}) {
        const std::string path =
            dir + "/" + kind + std::to_string(n) + (one_append_per_commit ? "c" : "f");
        auto disk = WalSegmentFile::Open(path, 0);
        ASSERT_TRUE(disk.ok());
        FaultyFile file(std::move(disk).value(), path, FaultSpec::Parse(spec));
        for (const auto& commit : commits) {
          std::vector<uint8_t> batch;
          for (size_t i : commit) {
            if (one_append_per_commit) {
              batch.insert(batch.end(), frames[i].begin(), frames[i].end());
            } else {
              ASSERT_TRUE(file.Append(frames[i].data(), frames[i].size()).ok());
            }
          }
          if (one_append_per_commit) {
            ASSERT_TRUE(file.Append(batch.data(), batch.size()).ok());
          }
          (void)file.Sync();
        }
        EXPECT_EQ(file.dead(), kind != "bitflip");
        on_disk[one_append_per_commit ? 1 : 0] = ReadFileBytes(path);
      }
      EXPECT_EQ(on_disk[0], on_disk[1]);
      bool truncated = false;
      const size_t decoded = DurableStore::DecodeFrames(on_disk[1], &truncated, nullptr).size();
      if (kind == "crash_after") {
        EXPECT_EQ(decoded, synced_before[n - 1]);  // the commit holding frame N is lost
        EXPECT_FALSE(truncated);
      } else {
        EXPECT_EQ(decoded, n - 1);  // frame N is torn or flipped
        EXPECT_TRUE(truncated);
      }
    }
  }
}

TEST(DurabilityTest, CleanStopRestartReplaysNothing) {
  const std::string dir = TestDir("CleanRestart");
  DurabilityOptions opts;
  opts.data_dir = dir;
  uint64_t digest = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    RunBatches(*fs.value(), *store.value(), 0);
    ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());  // the clean shutdown
    digest = DigestOf(*fs.value());
  }
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(store.value()->recovery_info().replayed_records, 0u);
  EXPECT_GT(store.value()->recovery_info().checkpoint_lsn, 0u);
  EXPECT_EQ(DigestOf(*fs.value()), digest);
}

TEST(DurabilityTest, CheckpointsPruneToTwoGenerations) {
  const std::string dir = TestDir("Prune");
  DurabilityOptions opts;
  opts.data_dir = dir;
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  const std::vector<Batch> batches = Workload();
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(batches[i](*fs.value()).ok());
    ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
  }
  EXPECT_LE(ListFiles(dir, "checkpoint-").size(), 2u);
  // The WAL never accumulates segments the retained checkpoints cannot use.
  EXPECT_LE(ListFiles(dir, "wal-").size(), 3u);
}

// The two halves of a checkpoint: BeginCheckpoint returns with the WAL already
// rotated, so a commit can land in the new segment while the image is published.
TEST(DurabilityTest, BeginCheckpointRotatesTheWalBeforePublishing) {
  const std::string dir = TestDir("BeginWait");
  DurabilityOptions opts;
  opts.data_dir = dir;
  uint64_t lsn = 0;
  uint64_t digest = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    RunBatches(*fs.value(), *store.value(), 0);
    lsn = store.value()->last_lsn();
    ASSERT_TRUE(store.value()->BeginCheckpoint(*fs.value()).ok());
    EXPECT_EQ(store.value()->records_since_checkpoint(), 0u);
    ASSERT_TRUE(fs.value()->Mkdir("/after").ok());
    ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    EXPECT_TRUE(store.value()->WaitCheckpoint().ok());
    EXPECT_FALSE(store.value()->publishing());
    EXPECT_TRUE(store.value()->WaitCheckpoint().ok()) << "nothing left to join";
    digest = DigestOf(*fs.value());
  }
  EXPECT_TRUE(fs_std::exists(CheckpointName(dir, lsn)));
  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 2u);  // the genesis segment and wal-<lsn>
  bool truncated = false;
  auto frames = DurableStore::DecodeFrames(ReadFileBytes(wals.back()), &truncated, nullptr);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].lsn, lsn + 1);
  EXPECT_EQ(frames[0].record.op, JournalOp::kDirCreated);

  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(store.value()->recovery_info().checkpoint_lsn, lsn);
  EXPECT_EQ(store.value()->recovery_info().replayed_records, 1u);
  EXPECT_EQ(DigestOf(*fs.value()), digest);
}

// A crash mid-publication leaves checkpoint-<lsn>.hacs.tmp behind. A later checkpoint
// at the same LSN must replace it, not append to it.
TEST(DurabilityTest, CheckpointReplacesAStaleTempFileOfItsLsn) {
  const std::string dir = TestDir("StaleTemp");
  DurabilityOptions opts;
  opts.data_dir = dir;
  uint64_t lsn = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    RunBatches(*fs.value(), *store.value(), 0);
    lsn = store.value()->last_lsn();
    WriteFileBytes(CheckpointName(dir, lsn) + ".tmp", std::vector<uint8_t>(100, 0xAB));
    ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
  }
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(store.value()->recovery_info().checkpoint_file, CheckpointName(dir, lsn));
  EXPECT_EQ(store.value()->recovery_info().replayed_records, 0u);
  EXPECT_EQ(DigestOf(*fs.value()), CleanReplayDigest(Workload().size()));
}

// An explicit record interval still triggers by records. With
// checkpoint_interval_bytes = 0 the byte trigger is off, size-relative part
// included: a tail several times the last image's size does not trigger.
TEST(DurabilityTest, ShouldCheckpointTracksThresholds) {
  const std::string dir = TestDir("Thresholds");
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.checkpoint_interval_records = 3;
  opts.checkpoint_interval_bytes = 0;
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(store.value()->ShouldCheckpoint());
  ASSERT_TRUE(fs.value()->Mkdir("/a").ok());
  ASSERT_TRUE(fs.value()->Mkdir("/b").ok());
  ASSERT_TRUE(fs.value()->Mkdir("/c").ok());
  ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
  EXPECT_TRUE(store.value()->ShouldCheckpoint());
  ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
  EXPECT_FALSE(store.value()->ShouldCheckpoint());

  const uint64_t image = store.value()->last_image_bytes();
  ASSERT_GT(image, 0u);
  ASSERT_TRUE(fs.value()->WriteFile("/big", std::string(4 * image, 'b')).ok());
  ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
  ASSERT_LT(store.value()->records_since_checkpoint(), 3u);
  ASSERT_GT(store.value()->bytes_since_checkpoint(), 4 * image);
  EXPECT_FALSE(store.value()->ShouldCheckpoint());
}

// Commits WAL frames until bytes_since_checkpoint() is exactly `target`: one large
// write to come within a few hundred bytes, then Mkdirs sized to the byte. A Mkdir
// appends one kDirCreated frame, which EncodeFrame sizes in advance: the new
// directory's uid, like every other varint in it here, takes one byte.
void CommitUntilBytes(HacFileSystem& fs, DurableStore& store, uint64_t target) {
  static int seq = 0;
  const auto gap = [&] { return target - store.bytes_since_checkpoint(); };
  const auto commit_mkdir_frame = [&](uint64_t frame_bytes) {
    std::vector<uint8_t> pathless;
    DurableStore::EncodeFrame(store.last_lsn() + 1,
                              JournalRecord{JournalOp::kDirCreated, 1, "", ""}, pathless);
    std::string path = "/m" + std::to_string(seq++) + "_";
    ASSERT_LE(pathless.size() + path.size(), frame_bytes);
    ASSERT_LT(frame_bytes - pathless.size(), 128u);
    path.resize(frame_bytes - pathless.size(), 'x');
    ASSERT_TRUE(fs.Mkdir(path).ok()) << path;
    ASSERT_TRUE(store.CommitFrom(fs).ok());
  };
  ASSERT_LE(store.bytes_since_checkpoint(), target);
  if (gap() > 500) {
    ASSERT_TRUE(fs.WriteFile("/fill" + std::to_string(seq++), std::string(gap() - 300, 'f'))
                    .ok());
    ASSERT_TRUE(store.CommitFrom(fs).ok());
  }
  while (gap() > 140 && !::testing::Test::HasFatalFailure()) {
    commit_mkdir_frame(80);
  }
  commit_mkdir_frame(gap());
  ASSERT_EQ(store.bytes_since_checkpoint(), target);
}

// The default trigger: due once the WAL since the last image reaches
// max(checkpoint_interval_bytes, that image's size), and not one byte earlier.
// One directory's image is above the floor, the other's below it.
TEST(DurabilityTest, ShouldCheckpointWaitsForTheLastImagesSize) {
  for (const bool image_above_floor : {true, false}) {
    SCOPED_TRACE(image_above_floor ? "image above the floor" : "image below the floor");
    const std::string dir =
        TestDir(image_above_floor ? "SizeTriggerLargeImage" : "SizeTriggerSmallImage");
    DurabilityOptions opts;
    opts.data_dir = dir;
    opts.checkpoint_interval_bytes = image_above_floor ? 1024 : 16384;
    EXPECT_EQ(opts.checkpoint_interval_records, 0u) << "records trigger off by default";
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    EXPECT_EQ(store.value()->last_image_bytes(), 0u);
    ASSERT_TRUE(fs.value()->WriteFile("/seed.txt", std::string(8192, 's')).ok());
    ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
    const uint64_t image = store.value()->last_image_bytes();
    const uint64_t floor = opts.checkpoint_interval_bytes;
    ASSERT_EQ(image > floor, image_above_floor) << image << " image bytes";
    const uint64_t due = std::max(image, floor);

    // Past the smaller of the two bounds, 30 bytes short of the larger: not due.
    ASSERT_NO_FATAL_FAILURE(CommitUntilBytes(*fs.value(), *store.value(), due - 30));
    EXPECT_GT(store.value()->bytes_since_checkpoint(), std::min(image, floor));
    EXPECT_FALSE(store.value()->ShouldCheckpoint());
    ASSERT_NO_FATAL_FAILURE(CommitUntilBytes(*fs.value(), *store.value(), due));
    EXPECT_TRUE(store.value()->ShouldCheckpoint());

    ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
    EXPECT_FALSE(store.value()->ShouldCheckpoint());
    EXPECT_GT(store.value()->last_image_bytes(), image);  // the tail is in it now
  }
}

// Recover counts the replayed tail against the policy and remembers the loaded
// image's size, so a restarted store checkpoints where the crashed one would have.
TEST(DurabilityTest, RecoverCountsTheReplayedTailAgainstThePolicy) {
  for (const uint64_t short_of_due : {uint64_t{30}, uint64_t{0}}) {
    SCOPED_TRACE(short_of_due);
    const std::string dir = TestDir("RecoverTail" + std::to_string(short_of_due));
    DurabilityOptions opts;
    opts.data_dir = dir;
    opts.checkpoint_interval_bytes = 1024;
    uint64_t image = 0;
    uint64_t tail = 0;
    {
      auto store = DurableStore::Open(opts);
      ASSERT_TRUE(store.ok());
      auto fs = store.value()->Recover();
      ASSERT_TRUE(fs.ok());
      ASSERT_TRUE(fs.value()->WriteFile("/seed.txt", std::string(8192, 's')).ok());
      ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
      ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
      image = store.value()->last_image_bytes();
      ASSERT_GT(image, opts.checkpoint_interval_bytes);
      ASSERT_NO_FATAL_FAILURE(CommitUntilBytes(*fs.value(), *store.value(), image - short_of_due));
      tail = store.value()->bytes_since_checkpoint();
    }  // crash: no checkpoint retires the tail
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    EXPECT_GT(store.value()->recovery_info().replayed_records, 0u);
    EXPECT_EQ(store.value()->last_image_bytes(), image);
    EXPECT_EQ(store.value()->bytes_since_checkpoint(), tail);
    EXPECT_EQ(store.value()->ShouldCheckpoint(), short_of_due == 0);
  }
}

// hac.durability.checkpoint_bytes counts each published file, header included.
TEST(DurabilityTest, CheckpointBytesCountsThePublishedFile) {
  const std::string dir = TestDir("CheckpointBytes");
  DurabilityOptions opts;
  opts.data_dir = dir;
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  RunBatches(*fs.value(), *store.value(), 0);
  Counter& published =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityCheckpointBytes);
  const uint64_t before = published.Value();
  ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
  const uint64_t file = fs_std::file_size(CheckpointName(dir, store.value()->last_lsn()));
  EXPECT_EQ(published.Value() - before, file);
  EXPECT_GT(file, store.value()->last_image_bytes());
}

TEST(DurabilityTest, OpenRejectsEmptyDataDir) {
  EXPECT_FALSE(DurableStore::Open(DurabilityOptions{}).ok());
}

}  // namespace
}  // namespace hac
