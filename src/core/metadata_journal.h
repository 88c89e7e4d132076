// Metadata journal: HAC's durable bookkeeping channel.
//
// The paper's prototype writes its per-directory structures, global-map updates and
// dependency-graph nodes to disk ("All of these are stored in the disk and require
// extra I/O operations"), which is where the Makedir/Copy overhead of Table 1 comes
// from. Each bookkeeping action encodes a real record into the journal buffer; the
// work is genuine (serialization + copy), the buffer size is reported by the space
// bench, and tests replay it.
//
// Since the durability layer (core/durability.h) the journal is also the write-ahead
// log's record source: the subset of ops marked REPLAYABLE below carries full-path
// operands sufficient to re-execute the mutation through the public HacFileSystem
// API, and DurableStore drains the buffer into CRC-framed on-disk WAL frames at each
// group commit (docs/DURABILITY.md). Draining bounds the in-memory footprint: once
// records are on disk the buffer drops them instead of retaining the full history.
#ifndef HAC_CORE_METADATA_JOURNAL_H_
#define HAC_CORE_METADATA_JOURNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/serializer.h"

namespace hac {

// Append only: the numeric values are written to the on-disk WAL (docs/DURABILITY.md
// pins the mapping). Ops 1-10 predate the durability layer; several are bookkeeping
// echoes of derived state (skipped by recovery replay), the rest were retrofitted
// with replayable operands. Ops 11+ exist so that every acknowledged user mutation
// has exactly one replayable record.
enum class JournalOp : uint8_t {
  kDirCreated = 1,       // REPLAYABLE  a = dir path
  kDirRemoved = 2,       // REPLAYABLE  a = dir path
  kFileRegistered = 3,   // REPLAYABLE  subject = doc, a = path (file came to exist)
  kFileDeactivated = 4,  // bookkeeping subject = doc, a = path (derived from unlink/rename)
  kQuerySet = 5,         // REPLAYABLE  subject = uid, a = dir path, b = query ("" reverts)
  kLinkAdded = 6,        // bookkeeping subject = uid, a = name (link-table echo)
  kLinkRemoved = 7,      // bookkeeping subject = uid, a = name (link-table echo)
  kRename = 8,           // REPLAYABLE  a = from path, b = to path
  kMount = 9,            // bookkeeping (mounts are session state, never replayed)
  kUnmount = 10,         // bookkeeping
  kFileWritten = 11,     // REPLAYABLE  subject = offset, a = path, b = bytes
  kFileTruncated = 12,   // REPLAYABLE  a = path (open with kOpenTruncate)
  kUnlinked = 13,        // REPLAYABLE  a = path (user unlink; prohibit semantics re-derive)
  kSymlinked = 14,       // REPLAYABLE  subject = dir uid, a = link path, b = verbatim target
  kLinkPromoted = 15,    // REPLAYABLE  subject = dir uid, a = link path
  kLinkDemoted = 16,     // REPLAYABLE  subject = dir uid, a = link path
  kProhibitAdded = 17,   // REPLAYABLE  subject = dir uid, a = dir path, b = file path
  kProhibitCleared = 18, // REPLAYABLE  subject = dir uid, a = dir path, b = file path
};

// The highest assigned op. The WAL decoder rejects values above this bound and the
// docs_check gate iterates the enum through it; bump when appending (append only —
// the numeric values are in on-disk WAL frames).
inline constexpr JournalOp kMaxJournalOp = JournalOp::kProhibitCleared;
inline constexpr size_t kJournalOpCount = static_cast<size_t>(kMaxJournalOp) + 1;

// Stable identifier per op (index = numeric value; index 0 is unassigned). The
// docs_check gate cross-checks `JournalOp::k<Name>` tokens in docs/DURABILITY.md
// against this table in both directions.
inline constexpr const char* kJournalOpNames[kJournalOpCount] = {
    "?",
    "DirCreated",     "DirRemoved",    "FileRegistered", "FileDeactivated",
    "QuerySet",       "LinkAdded",     "LinkRemoved",    "Rename",
    "Mount",          "Unmount",       "FileWritten",    "FileTruncated",
    "Unlinked",       "Symlinked",     "LinkPromoted",   "LinkDemoted",
    "ProhibitAdded",  "ProhibitCleared",
};

inline const char* JournalOpName(JournalOp op) {
  const auto i = static_cast<size_t>(op);
  return i > 0 && i < kJournalOpCount ? kJournalOpNames[i] : "?";
}

// True for ops recovery re-executes through the facade; the rest are bookkeeping
// echoes of state that replay re-derives (registry ids, transient links, mounts).
bool IsReplayableOp(JournalOp op);

struct JournalRecord {
  JournalOp op;
  uint64_t subject;   // uid, doc id or byte offset (see the op table)
  std::string a;      // op-specific (path, query text, link name, ...)
  std::string b;
};

// The record layout, shared by the journal buffer and the WAL: a WAL frame's payload
// is the frame's LSN varint followed by exactly these bytes (docs/DURABILITY.md).
//
//   u8 op | varint subject | string a | string b
void EncodeJournalRecord(JournalOp op, uint64_t subject, std::string_view a,
                         std::string_view b, ByteWriter& out);
// Reads one record into `rec`. kCorrupt if it is truncated or its op is outside
// 1..kMaxJournalOp.
Result<void> DecodeJournalRecord(ByteReader& in, JournalRecord& rec);

class MetadataJournal {
 public:
  void Append(JournalOp op, uint64_t subject, std::string_view a = {},
              std::string_view b = {});

  // Decodes the records currently buffered, i.e. everything appended since the last
  // Drain()/Clear() (tests replay this to validate bookkeeping).
  Result<std::vector<JournalRecord>> Decode() const;

  // Decodes and removes every buffered record. The durability layer calls this at
  // each group commit, so a long-running server's buffer holds only the records not
  // yet on disk.
  std::vector<JournalRecord> Drain();

  size_t SizeBytes() const { return buf_.size(); }
  // Records currently buffered (appended and not yet drained or cleared).
  uint64_t PendingRecords() const { return pending_; }
  // Drops every buffered record undecoded, for owners that keep no WAL (nothing will
  // ever drain them).
  void Clear();

 private:
  std::vector<uint8_t> buf_;
  uint64_t pending_ = 0;
};

}  // namespace hac

#endif  // HAC_CORE_METADATA_JOURNAL_H_
