// Crash-safe persistence for HacFileSystem: on-disk write-ahead log, atomic
// checkpoints, and recovery.
//
// The in-memory MetadataJournal models the paper's synchronous metadata writes; this
// layer makes them real. The contract (documented in full in docs/DURABILITY.md):
//
//   * WAL — every replayable JournalRecord (see IsReplayableOp) is drained from the
//     facade's journal at each group commit and appended to the current WAL segment
//     as a length-prefixed, CRC32-framed record tagged with a monotone LSN. A commit
//     writes all its frames with one positioned write over blocks zero-filled ahead
//     of it and syncs them with one fdatasync; CommitFrom() returns only after the
//     frames are durable, so the service layer can acknowledge the batch.
//   * Checkpoint — two halves. BeginCheckpoint() builds: it serializes the facade's
//     full SaveState() image (VFS + registry + per-directory state + index snapshot),
//     records the image's LSN and rotates the WAL to a fresh segment named after it.
//     A publisher thread then seals the image (CRC), writes it to a temp file,
//     fsyncs, renames it into place, fsyncs the directory, and only then prunes
//     segments and checkpoint generations no longer needed (the newest two
//     checkpoints are retained, so a crash that tears the newest one still recovers
//     from its predecessor plus the surviving log). WaitCheckpoint() joins the
//     publisher; Checkpoint() is the two back to back.
//   * Recovery — Recover() loads the newest checkpoint that validates (magic,
//     version, CRC), falls back to older generations or an empty file system, then
//     replays the WAL tail in LSN order through the public facade API, leaving
//     segments the checkpoint covers unread, skipping records at or below the
//     checkpoint LSN and stopping cleanly at the first torn, truncated, or
//     CRC-corrupt frame (ErrorCode::kCorrupt semantics: the damaged suffix is
//     discarded, everything before it is served). An all-zero remainder is the
//     segment's unwritten end, not damage. A final Reindex() restores data
//     consistency, and writing resumes right after the newest segment's last frame.
//
// Fault injection: DurableFile is the seam. FaultyFile buffers frames until Sync()
// (modelling the volatile page cache) and can crash after N frames, tear frame N in
// half, or flip a bit in it, as DurabilityOptions::wal_fault says (FaultSpec::Parse
// reads "crash_after:N" | "torn:N" | "bitflip:N"). The recovery test matrix in
// tests/core/durability_test.cc is built on it.
#ifndef HAC_CORE_DURABILITY_H_
#define HAC_CORE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/hac_file_system.h"

namespace hac {

// IEEE CRC-32 (the zlib polynomial, reflected), slicing-by-8. Seed 0 gives the
// standard check value: Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed = 0);

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

// N counts WAL frames, however many of them one append carries.
struct FaultSpec {
  enum class Kind : uint8_t {
    kNone = 0,
    kCrashAfter,  // at frame N, drop unsynced data and go dead (crash pre-fsync)
    kTorn,        // at frame N, persist only the first half of it, then go dead
    kBitFlip,     // at frame N, flip one bit in the persisted bytes, then continue
  };
  Kind kind = Kind::kNone;
  uint64_t at_write = 0;

  bool active() const { return kind != Kind::kNone; }

  // Parses "crash_after:N" / "torn:N" / "bitflip:N" (empty or unknown -> kNone).
  static FaultSpec Parse(const std::string& spec);
};

// Append-only file abstraction the WAL and checkpoint writers go through.
class DurableFile {
 public:
  virtual ~DurableFile() = default;
  // Buffers or writes `n` bytes after the last bytes appended.
  virtual Result<void> Append(const void* data, size_t n) = 0;
  // Makes every appended byte durable. CommitFrom() acknowledges only after this.
  virtual Result<void> Sync() = 0;
};

// Checkpoint images and repaired segments: POSIX append + fsync.
class RealFile : public DurableFile {
 public:
  static Result<std::unique_ptr<RealFile>> Open(const std::string& path);
  ~RealFile() override;
  Result<void> Append(const void* data, size_t n) override;
  Result<void> Sync() override;

 private:
  explicit RealFile(int fd) : fd_(fd) {}
  int fd_;
};

// A WAL segment, kept zero-filled ahead of its write offset. An append that would
// pass the zeroed end first extends the file with zeros to the next whole
// kFillChunk, then lands with one positioned write; Sync() is an fdatasync. Between
// fills an append changes neither the file's size nor its block map, so the sync
// commits data only, not the file system's journal.
class WalSegmentFile : public DurableFile {
 public:
  static constexpr uint64_t kFillChunk = uint64_t{1} << 20;

  // Opens (creating if needed) `path` to write at byte `offset`. Every byte from
  // `offset` to the end of the file must be zero.
  static Result<std::unique_ptr<WalSegmentFile>> Open(const std::string& path,
                                                      uint64_t offset);
  // Closes the descriptor it owns.
  ~WalSegmentFile() override;
  WalSegmentFile(const WalSegmentFile&) = delete;
  WalSegmentFile& operator=(const WalSegmentFile&) = delete;
  Result<void> Append(const void* data, size_t n) override;
  Result<void> Sync() override;

 private:
  WalSegmentFile(int fd, uint64_t offset, uint64_t zeroed_end)
      : fd_(fd), offset_(offset), zeroed_end_(zeroed_end) {}
  int fd_;
  uint64_t offset_;      // where the next append lands
  uint64_t zeroed_end_;  // the file's size; [offset_, zeroed_end_) is zero
};

// Fault-injecting file. Frames accumulate in a volatile buffer ("page cache") and
// reach `disk` only at Sync() — so a crash before fsync deterministically loses
// exactly the unsynced suffix, which a real kernel page cache would hide from a
// same-machine test. Faults count frames (an append may carry several). When the
// configured fault fires the file goes dead: the on-disk state is frozen in its
// crash shape and later appends/syncs are swallowed (the "process" has crashed;
// the service notices via the next commit's error).
class FaultyFile : public DurableFile {
 public:
  // `path` names `disk` in the injected-crash error.
  FaultyFile(std::unique_ptr<DurableFile> disk, std::string path, FaultSpec fault);
  Result<void> Append(const void* data, size_t n) override;
  Result<void> Sync() override;
  bool dead() const { return dead_; }

 private:
  Result<void> AppendFrame(const uint8_t* frame, size_t n);
  Result<void> FlushToDisk(const uint8_t* data, size_t n);

  std::unique_ptr<DurableFile> disk_;
  std::string path_;
  FaultSpec fault_;
  std::vector<uint8_t> unsynced_;
  uint64_t frames_ = 0;
  bool dead_ = false;
};

// ---------------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------------

struct DurabilityOptions {
  std::string data_dir;
  // Checkpoint policy. ShouldCheckpoint() turns true once the WAL bytes written
  // since the last image reach that image's size, and never below
  // checkpoint_interval_bytes, the floor for small images. Each image then retires
  // at least its own size of log, so image bytes written per WAL byte stay at or
  // below about 1, recovery replays about one image's worth of WAL at most, and the
  // data directory holds two images plus two images' worth of WAL at most
  // (docs/DURABILITY.md, "Checkpoint policy").
  // checkpoint_interval_bytes = 0 turns the byte trigger off, size-relative part
  // included. checkpoint_interval_records, when not 0, also triggers after that
  // many WAL records; it is off by default and set by tests and
  // `hacd --checkpoint-records`.
  uint64_t checkpoint_interval_records = 0;
  uint64_t checkpoint_interval_bytes = 4u << 20;
  // Fault injection for the WAL file, set in code by tests (checkpoint temp files
  // stay real so the matrix rows stay independent). Off by default.
  FaultSpec wal_fault;
};

struct RecoveryInfo {
  uint64_t checkpoint_lsn = 0;     // 0 = recovered from an empty/genesis state
  std::string checkpoint_file;     // empty when no checkpoint was used
  uint64_t replayed_records = 0;   // WAL frames re-executed through the facade
  uint64_t skipped_segments = 0;   // segments the checkpoint covers, left unread
  uint64_t replay_errors = 0;      // frames whose re-execution failed (tolerated)
  bool tail_truncated = false;     // replay stopped at a torn/corrupt frame
  std::string detail;              // human-readable note about the stop reason
};

// One data directory. Layout:
//   checkpoint-<lsn,16 hex>.hacs   full SaveState image, CRC-sealed header
//   wal-<lsn,16 hex>.log           frames with LSNs > <lsn>, in order
// One caller at a time, like the facade it persists: the service layer calls it from
// the writer thread only (and from Stop() once the writer has exited). The one other
// thread is the publisher a checkpoint starts; it takes its image, touches none of
// the store's WAL state, and is joined by WaitCheckpoint(), the next
// BeginCheckpoint() or the destructor. If no thread can be started, the caller
// publishes inline instead.
class DurableStore {
 public:
  // Opens (creating if needed) the data directory and scans generations. Does not
  // read the state yet — call Recover() for that.
  static Result<std::unique_ptr<DurableStore>> Open(DurabilityOptions options);
  // Joins a publication still in flight.
  ~DurableStore();
  // The publisher thread holds `this`.
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // Builds the file system the directory describes: newest valid checkpoint plus
  // the surviving WAL tail, reindexed. On a fresh directory returns an empty
  // facade. Also drains the recovered instance's journal (replay re-journals) and
  // writes nothing — the caller decides when the first checkpoint happens.
  Result<std::unique_ptr<HacFileSystem>> Recover(HacOptions fs_options = {});
  const RecoveryInfo& recovery_info() const { return recovery_; }

  // Group commit: drains every journal record `fs` accumulated, encodes the
  // replayable ones as WAL frames into one buffer, appends it, and syncs once. The
  // caller must not release acknowledgements for the drained mutations before this
  // returns OK.
  Result<void> CommitFrom(HacFileSystem& fs);

  // The build half of a checkpoint. Joins any publication still in flight, then
  // serializes `fs` (SaveState), records the image's LSN, resets the policy
  // counters and rotates the WAL to `wal-<lsn>`. `fs` must not change meanwhile but
  // may be read: the service holds the shared lock. Then hands the image to a
  // publisher thread, which, holding no lock, seals it, writes it to a temp file,
  // fsyncs, renames it into place, fsyncs the directory and prunes generations
  // older than the previous retained checkpoint. Fails, publishing nothing, only
  // if the rotation fails.
  Result<void> BeginCheckpoint(const HacFileSystem& fs);
  // Joins the publication in flight, if any, and returns the status of the last
  // publication not yet collected (OK if none).
  Result<void> WaitCheckpoint();
  // True while a publication runs (false once it finished, even if not yet joined).
  bool publishing() const { return publishing_.load(std::memory_order_acquire); }
  // BeginCheckpoint + WaitCheckpoint: returns once the image is published and old
  // generations are pruned.
  Result<void> Checkpoint(const HacFileSystem& fs);

  // The checkpoint policy (DurabilityOptions): true once the WAL since the last
  // image has reached that image's size (or the configured floor or record count).
  bool ShouldCheckpoint() const;

  uint64_t last_lsn() const { return last_lsn_; }
  uint64_t records_since_checkpoint() const { return records_since_checkpoint_; }
  // WAL frame bytes since the last image; after Recover, the replayed tail's.
  uint64_t bytes_since_checkpoint() const { return bytes_since_checkpoint_; }
  // SaveState bytes of the last image built or loaded (0 if none).
  uint64_t last_image_bytes() const { return last_image_bytes_; }
  const DurabilityOptions& options() const { return options_; }

  // --- shared frame codec (exposed for tests and fsck tooling) ---

  // Appends one frame (u32 length | u32 crc | payload) to `out`.
  static void EncodeFrame(uint64_t lsn, const JournalRecord& rec,
                          std::vector<uint8_t>& out);
  struct DecodedFrame {
    uint64_t lsn = 0;
    JournalRecord record;
    uint64_t bytes = 0;  // encoded size: the 8-byte header plus the payload
  };
  // Decodes every valid frame from the front of `bytes`; stops at the first torn,
  // truncated or corrupt frame. An all-zero remainder (a segment's zero-filled,
  // unwritten end) ends the scan cleanly. `truncated`/`detail` report whether and
  // why the scan stopped early.
  static std::vector<DecodedFrame> DecodeFrames(const std::vector<uint8_t>& bytes,
                                                bool* truncated, std::string* detail);

  // Re-executes one replayed record through the public facade API. Exposed so the
  // clean-replay reference in tests shares the exact semantics.
  static Result<void> ApplyRecord(HacFileSystem& fs, const JournalRecord& rec);

 private:
  explicit DurableStore(DurabilityOptions options);

  // Opens wal-<start_lsn> to write at byte `offset`, past its frames.
  Result<void> OpenWalSegment(uint64_t start_lsn, uint64_t offset);
  // The publisher's half: seal, write, fsync, rename, fsync the directory, prune.
  Result<void> Publish(std::vector<uint8_t> image, uint64_t lsn);
  Result<void> PruneGenerations();
  // Newest-first list of (lsn, path) for files matching `prefix`.
  std::vector<std::pair<uint64_t, std::string>> ListGeneration(
      const std::string& prefix, const std::string& suffix) const;

  DurabilityOptions options_;
  std::unique_ptr<DurableFile> wal_;
  std::string wal_path_;
  uint64_t wal_start_lsn_ = 0;       // segment name; frames in it have lsn > this
  uint64_t last_lsn_ = 0;            // highest LSN ever assigned (or recovered)
  uint64_t last_checkpoint_lsn_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  uint64_t bytes_since_checkpoint_ = 0;
  uint64_t last_image_bytes_ = 0;
  RecoveryInfo recovery_;

  // At most one publication in flight. BeginCheckpoint hands the publisher image_,
  // which it empties; the publisher writes publish_status_ and clears publishing_ as
  // it exits; the joining thread reads the status.
  std::vector<uint8_t> image_;
  std::atomic<bool> publishing_ = false;
  Result<void> publish_status_ = OkResult();
  std::thread publisher_;
};

}  // namespace hac

#endif  // HAC_CORE_DURABILITY_H_
