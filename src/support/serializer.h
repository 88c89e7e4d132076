// Byte-buffer serialization used by VFS snapshots, HAC metadata persistence and the
// wire codec.
//
// Format: little-endian fixed-width integers, LEB128 varints, and length-prefixed
// strings. The Reader validates bounds and reports kCorrupt instead of reading past
// the end.
//
// The per-byte paths (PutU8/PutVarint/PutString, GetU8, a one-byte GetVarint, string
// reads) are inline: a listing of thousands of entries makes thousands of calls, and a
// successful read constructs no Error. Failures are built out of line, with the
// codes and messages they always had.
#ifndef HAC_SUPPORT_SERIALIZER_H_
#define HAC_SUPPORT_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/result.h"

namespace hac {

class ByteWriter {
 public:
  ByteWriter() = default;
  // Adopts `storage` (cleared) as the output buffer, preserving its capacity —
  // lets callers reuse pooled scratch (src/support/buffer_pool.h) so steady-state
  // encoding allocates nothing.
  explicit ByteWriter(std::vector<uint8_t> storage) : buf_(std::move(storage)) {
    buf_.clear();
  }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }
  void PutBytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  // Overwrites 4 already-written bytes at `offset` (little-endian). For
  // length-prefixed framing: write a placeholder, encode the body, patch the real
  // size — one buffer, no copy of the payload into a second one.
  void PatchU32(size_t offset, uint32_t v);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf) : data_(buf.data()), size_(buf.size()) {}

  Result<uint8_t> GetU8() {
    if (pos_ == size_) {
      return Truncated();
    }
    return data_[pos_++];
  }
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<uint64_t> GetVarint() {
    if (pos_ < size_ && data_[pos_] < 0x80) {
      return data_[pos_++];
    }
    return GetVarintSlow();
  }
  Result<std::string> GetString() {
    std::string s;
    HAC_RETURN_IF_ERROR(GetStringInto(s));
    return s;
  }
  // Reads a string into `out` in place, reusing its storage: the decode loops of
  // large lists fill pre-sized containers with it.
  Result<void> GetStringInto(std::string& out) {
    HAC_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    if (n > size_ - pos_) {
      return Truncated();
    }
    out.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return OkResult();
  }
  // Copies `n` raw bytes into `out`.
  Result<void> GetBytes(void* out, size_t n);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  // kCorrupt "truncated buffer": what every read past the end reports.
  static Error Truncated();
  Result<uint64_t> GetVarintSlow();

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace hac

#endif  // HAC_SUPPORT_SERIALIZER_H_
