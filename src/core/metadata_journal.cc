#include "src/core/metadata_journal.h"

#include <cstddef>

namespace hac {

bool IsReplayableOp(JournalOp op) {
  switch (op) {
    case JournalOp::kDirCreated:
    case JournalOp::kDirRemoved:
    case JournalOp::kFileRegistered:
    case JournalOp::kQuerySet:
    case JournalOp::kRename:
    case JournalOp::kFileWritten:
    case JournalOp::kFileTruncated:
    case JournalOp::kUnlinked:
    case JournalOp::kSymlinked:
    case JournalOp::kLinkPromoted:
    case JournalOp::kLinkDemoted:
    case JournalOp::kProhibitAdded:
    case JournalOp::kProhibitCleared:
      return true;
    case JournalOp::kFileDeactivated:
    case JournalOp::kLinkAdded:
    case JournalOp::kLinkRemoved:
    case JournalOp::kMount:
    case JournalOp::kUnmount:
      return false;
  }
  return false;
}

void EncodeJournalRecord(JournalOp op, uint64_t subject, std::string_view a,
                         std::string_view b, ByteWriter& out) {
  out.PutU8(static_cast<uint8_t>(op));
  out.PutVarint(subject);
  out.PutString(a);
  out.PutString(b);
}

Result<void> DecodeJournalRecord(ByteReader& in, JournalRecord& rec) {
  HAC_ASSIGN_OR_RETURN(uint8_t op, in.GetU8());
  if (op == 0 || op > static_cast<uint8_t>(kMaxJournalOp)) {
    return Error(ErrorCode::kCorrupt, "journal: unknown op " + std::to_string(op));
  }
  rec.op = static_cast<JournalOp>(op);
  HAC_ASSIGN_OR_RETURN(rec.subject, in.GetVarint());
  HAC_RETURN_IF_ERROR(in.GetStringInto(rec.a));
  return in.GetStringInto(rec.b);
}

void MetadataJournal::Append(JournalOp op, uint64_t subject, std::string_view a,
                             std::string_view b) {
  ByteWriter w;
  EncodeJournalRecord(op, subject, a, b, w);
  const std::vector<uint8_t>& rec = w.buffer();
  ByteWriter frame;
  frame.PutVarint(rec.size());
  buf_.insert(buf_.end(), frame.buffer().begin(), frame.buffer().end());
  buf_.insert(buf_.end(), rec.begin(), rec.end());
  ++pending_;
}

Result<std::vector<JournalRecord>> MetadataJournal::Decode() const {
  std::vector<JournalRecord> out;
  ByteReader r(buf_);
  while (!r.AtEnd()) {
    HAC_ASSIGN_OR_RETURN(uint64_t len, r.GetVarint());
    (void)len;
    HAC_RETURN_IF_ERROR(DecodeJournalRecord(r, out.emplace_back()));
  }
  return out;
}

std::vector<JournalRecord> MetadataJournal::Drain() {
  std::vector<JournalRecord> out;
  ByteReader r(buf_);
  size_t consumed = 0;
  while (!r.AtEnd()) {
    // The buffer only ever holds records Append() wrote, so a decode failure here
    // means memory corruption; stop draining and leave the tail untouched.
    auto len = r.GetVarint();
    if (!len.ok() || len.value() > r.remaining()) break;
    if (!DecodeJournalRecord(r, out.emplace_back()).ok()) {
      out.pop_back();
      break;
    }
    consumed = buf_.size() - r.remaining();
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(consumed));
  pending_ -= out.size();
  return out;
}

void MetadataJournal::Clear() {
  buf_.clear();
  pending_ = 0;
}

}  // namespace hac
