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

void MetadataJournal::Append(JournalOp op, uint64_t subject, std::string_view a,
                             std::string_view b) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(op));
  w.PutVarint(subject);
  w.PutString(a);
  w.PutString(b);
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
    JournalRecord rec;
    HAC_ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
    rec.op = static_cast<JournalOp>(op);
    HAC_ASSIGN_OR_RETURN(rec.subject, r.GetVarint());
    HAC_ASSIGN_OR_RETURN(rec.a, r.GetString());
    HAC_ASSIGN_OR_RETURN(rec.b, r.GetString());
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<JournalRecord> MetadataJournal::Drain(size_t max_records) {
  std::vector<JournalRecord> out;
  ByteReader r(buf_);
  size_t consumed = 0;
  while (!r.AtEnd() && (max_records == 0 || out.size() < max_records)) {
    // The buffer only ever holds frames Append() wrote, so a decode failure here
    // means memory corruption; stop draining and leave the tail untouched.
    auto len = r.GetVarint();
    if (!len.ok() || len.value() > r.remaining()) break;
    JournalRecord rec;
    auto op = r.GetU8();
    if (!op.ok()) break;
    rec.op = static_cast<JournalOp>(op.value());
    auto subject = r.GetVarint();
    if (!subject.ok()) break;
    rec.subject = subject.value();
    auto a = r.GetString();
    if (!a.ok()) break;
    rec.a = std::move(a).value();
    auto b = r.GetString();
    if (!b.ok()) break;
    rec.b = std::move(b).value();
    out.push_back(std::move(rec));
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
