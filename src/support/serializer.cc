#include "src/support/serializer.h"

#include <cstring>

namespace hac {

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

Error ByteReader::Truncated() {
  return Error(ErrorCode::kCorrupt, "truncated buffer");
}

Result<uint32_t> ByteReader::GetU32() {
  if (size_ - pos_ < 4) {
    return Truncated();
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  if (size_ - pos_ < 8) {
    return Truncated();
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<uint64_t> ByteReader::GetVarintSlow() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos_ == size_) {
      return Truncated();
    }
    uint8_t b = data_[pos_++];
    if (shift >= 64) {
      return Error(ErrorCode::kCorrupt, "varint overflow");
    }
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      break;
    }
    shift += 7;
  }
  return v;
}

Result<void> ByteReader::GetBytes(void* out, size_t n) {
  if (size_ - pos_ < n) {
    return Truncated();
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return OkResult();
}

}  // namespace hac
