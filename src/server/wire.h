// Versioned binary wire schema for the hacd service API (docs/API.md "Wire
// protocol").
//
// Every message is one frame:
//
//   offset  size  field
//   0       4     magic    0x31434148 ("HAC1" on the wire, little-endian)
//   4       1     version  protocol version (kWireVersion)
//   5       1     kind     0 = request, 1 = response
//   6       4     length   payload byte count (little-endian; <= kMaxFramePayload)
//   10      len   payload  encoded ServerRequest / ServerResponse
//
// Payloads reuse the persistence serializer (src/support/serializer.h): LEB128
// varints and length-prefixed strings. Every field of ServerRequest/ServerResponse
// is encoded unconditionally in a fixed order, so the layout is deterministic and a
// round-trip is byte-identical. Enum values cross the wire numerically: ServerOp and
// ErrorCode are append-only (request.h / error.h), so their numeric values ARE the
// stable on-wire mapping; a decoder rejects values above the bound it was compiled
// with (kUnsupported for ops, kCorrupt for error codes) instead of guessing.
//
// Error taxonomy of the decode paths, relied on by transports and tests:
//   * kCorrupt      — framing/payload damage: bad magic, bad kind, oversized or
//                     truncated payload, invalid enum field, trailing garbage.
//   * kUnsupported  — well-formed but from a different protocol era: version skew,
//                     unknown ServerOp.
// A decoder never crashes on arbitrary bytes (fuzzed in tests/server/wire_test.cc).
#ifndef HAC_SERVER_WIRE_H_
#define HAC_SERVER_WIRE_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/server/request.h"
#include "src/support/result.h"
#include "src/support/serializer.h"

namespace hac {

inline constexpr uint32_t kWireMagic = 0x31434148;  // "HAC1" little-endian
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kWireHeaderSize = 10;
// Upper bound on a payload; a header claiming more is corruption, not a large
// message (keeps a garbage length field from looking like a 4 GiB allocation).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class FrameKind : uint8_t {
  kRequest = 0,
  kResponse = 1,
};

// --- payload codecs (no frame header) ---
void EncodeRequest(const ServerRequest& req, ByteWriter& out);
void EncodeResponse(const ServerResponse& resp, ByteWriter& out);
Result<ServerRequest> DecodeRequest(ByteReader& in);
Result<ServerResponse> DecodeResponse(ByteReader& in);

// --- whole frames (header + payload), as sent on a socket ---
// Encoding records hac.server.wire_encode_ns; decoding hac.server.wire_decode_ns.
// Frames are built in ONE buffer drawn from the global BufferPool (the header's
// length field is patched in place after the payload is encoded), so steady-state
// encoding performs no heap allocation. A transport that is done with a frame
// should hand the vector back via RecycleBuffer; not doing so is only a missed pool
// hit, never a leak.
std::vector<uint8_t> EncodeRequestFrame(const ServerRequest& req);
// Response frames are additionally bounded by MaxEncodablePayload(): a response
// whose payload would exceed it (or overflow the u32 length patch) is replaced
// with a small kOverloaded error frame directing the caller at the cursor ops —
// the encoder never emits a frame its own decoder refuses.
std::vector<uint8_t> EncodeResponseFrame(const ServerResponse& resp);

// The encoder-side single-frame payload cap (kMaxFramePayload unless lowered for
// tests). RemoteServiceClient also refuses to send requests beyond it.
size_t MaxEncodablePayload();
// Test hook: lowers the cap (clamped to kMaxFramePayload; 0 restores the
// default). Returns the previous value.
size_t SetMaxEncodablePayloadForTest(size_t limit);
// Returns an encoded frame's buffer to the codec's scratch pool.
void RecycleBuffer(std::vector<uint8_t>&& buf);
// Decode one complete frame (header included). `expect` is the kind the caller is
// prepared to handle; a frame of the other kind is kCorrupt.
Result<ServerRequest> DecodeRequestFrame(const std::vector<uint8_t>& frame);
Result<ServerResponse> DecodeResponseFrame(const std::vector<uint8_t>& frame);

// Decode a bare payload as produced by FrameDecoder (header already validated and
// stripped). Rejects trailing bytes; records hac.server.wire_decode_ns.
Result<ServerRequest> DecodeRequestPayload(const uint8_t* data, size_t size);
Result<ServerResponse> DecodeResponsePayload(const uint8_t* data, size_t size);
inline Result<ServerRequest> DecodeRequestPayload(const std::vector<uint8_t>& payload) {
  return DecodeRequestPayload(payload.data(), payload.size());
}
inline Result<ServerResponse> DecodeResponsePayload(const std::vector<uint8_t>& payload) {
  return DecodeResponsePayload(payload.data(), payload.size());
}

// Incremental frame scanner for a byte stream. Bytes go in either by receiving
// straight into Reserve()'s room and Commit()ting the count, or by Feed() (a copy).
// NextView() yields each complete frame in order with its header validated and its
// payload left in place, std::nullopt when more bytes are needed, or an error once
// the stream is unrecoverable (framing is length-prefixed, so any header damage
// poisons everything after it — transports close the connection). The shipped
// transports decode from the view, so a frame is never copied out of the buffer it
// was received into.
class FrameDecoder {
 public:
  // A complete frame's payload, in place. Valid until the next Reserve() or Feed().
  struct FrameView {
    FrameKind kind;
    const uint8_t* data;
    size_t size;
  };
  struct Frame {
    FrameKind kind;
    std::vector<uint8_t> payload;
  };

  // Room for at least `n` more bytes at the end of the stream; write into it, then
  // Commit() how many were written. Invalidates earlier views.
  uint8_t* Reserve(size_t n);
  void Commit(size_t n) {
    assert(n <= buf_.size() - end_);
    end_ += n;
  }
  void Feed(const uint8_t* data, size_t n);

  Result<std::optional<FrameView>> NextView();
  // NextView() with the payload copied out, for callers that keep frames.
  Result<std::optional<Frame>> Next();

  size_t buffered() const { return end_ - pos_; }

 private:
  std::vector<uint8_t> buf_;  // [pos_, end_) unconsumed; [end_, size()) free room
  size_t pos_ = 0;
  size_t end_ = 0;
};

}  // namespace hac

#endif  // HAC_SERVER_WIRE_H_
