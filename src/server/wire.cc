#include "src/server/wire.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/support/buffer_pool.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {

namespace {

// The wire carries enum values numerically; both tables are append-only, so a
// version-1 decoder can state its exact bounds at compile time. Growing either
// enum without revisiting the codec (and these bounds) is a build error.
static_assert(kMaxErrorCode == 21, "ErrorCode grew: extend the wire mapping bound");
static_assert(kServerOpCount == 36, "ServerOp grew: extend the wire mapping bound");

// Encoder-side payload cap (kMaxFramePayload by default; tests lower it). Kept
// at or below kMaxFramePayload so the u32 length patch can never truncate and a
// frame we emit is never one our own decoder refuses.
std::atomic<size_t> g_encode_payload_limit{kMaxFramePayload};

struct WireMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram& encode_ns = reg.GetHistogram(metric_names::kServerWireEncodeNs, "ns");
  Histogram& decode_ns = reg.GetHistogram(metric_names::kServerWireDecodeNs, "ns");
};

WireMetrics& WM() {
  static WireMetrics* m = new WireMetrics();
  return *m;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Fd is a signed int32; -1 (no descriptor) is the common value, so it crosses the
// wire as its u32 bit pattern in a varint.
void PutFd(ByteWriter& out, Fd fd) {
  out.PutVarint(static_cast<uint32_t>(fd));
}

Result<Fd> GetFd(ByteReader& in) {
  HAC_ASSIGN_OR_RETURN(uint64_t raw, in.GetVarint());
  if (raw > UINT32_MAX) {
    return Error(ErrorCode::kCorrupt, "fd out of range");
  }
  return static_cast<Fd>(static_cast<uint32_t>(raw));
}

void PutError(ByteWriter& out, const Error& e) {
  out.PutVarint(static_cast<uint64_t>(static_cast<int>(e.code)));
  out.PutString(e.message);
}

// Out-param because Result<Error> would be ambiguous (Error is the error arm).
Result<void> GetError(ByteReader& in, Error& out) {
  HAC_ASSIGN_OR_RETURN(uint64_t code, in.GetVarint());
  if (code > static_cast<uint64_t>(kMaxErrorCode)) {
    return Error(ErrorCode::kCorrupt, "unknown error code on wire");
  }
  out.code = static_cast<ErrorCode>(code);
  return in.GetStringInto(out.message);
}

Result<NodeType> GetNodeType(ByteReader& in) {
  HAC_ASSIGN_OR_RETURN(uint8_t t, in.GetU8());
  if (t > static_cast<uint8_t>(NodeType::kSymlink)) {
    return Error(ErrorCode::kCorrupt, "invalid node type on wire");
  }
  return static_cast<NodeType>(t);
}

void PutStat(ByteWriter& out, const Stat& st) {
  out.PutVarint(st.inode);
  out.PutU8(static_cast<uint8_t>(st.type));
  out.PutVarint(st.size);
  out.PutVarint(st.mtime);
  out.PutVarint(st.nlink);
}

Result<Stat> GetStat(ByteReader& in) {
  Stat st;
  HAC_ASSIGN_OR_RETURN(st.inode, in.GetVarint());
  HAC_ASSIGN_OR_RETURN(st.type, GetNodeType(in));
  HAC_ASSIGN_OR_RETURN(st.size, in.GetVarint());
  HAC_ASSIGN_OR_RETURN(st.mtime, in.GetVarint());
  HAC_ASSIGN_OR_RETURN(uint64_t nlink, in.GetVarint());
  if (nlink > UINT32_MAX) {
    return Error(ErrorCode::kCorrupt, "nlink out of range");
  }
  st.nlink = static_cast<uint32_t>(nlink);
  return st;
}

void PutStringVec(ByteWriter& out, const std::vector<std::string>& v) {
  out.PutVarint(v.size());
  for (const auto& s : v) {
    out.PutString(s);
  }
}

// Lists decode in place: the count is checked against the smallest encoding an
// element can have (so a damaged count is refused before anything is allocated),
// the container is sized once, and each element is read straight into its slot.
Result<uint64_t> GetListCount(ByteReader& in, size_t min_element_bytes) {
  HAC_ASSIGN_OR_RETURN(uint64_t n, in.GetVarint());
  if (n > in.remaining() / min_element_bytes) {
    return Error(ErrorCode::kCorrupt, "list count exceeds payload");
  }
  return n;
}

Result<void> GetStringVec(ByteReader& in, std::vector<std::string>& v) {
  HAC_ASSIGN_OR_RETURN(uint64_t n, GetListCount(in, 1));
  v.resize(n);
  for (std::string& s : v) {
    HAC_RETURN_IF_ERROR(in.GetStringInto(s));
  }
  return OkResult();
}

void PutPairVec(ByteWriter& out,
                const std::vector<std::pair<std::string, std::string>>& v) {
  out.PutVarint(v.size());
  for (const auto& [a, b] : v) {
    out.PutString(a);
    out.PutString(b);
  }
}

Result<void> GetPairVec(ByteReader& in,
                        std::vector<std::pair<std::string, std::string>>& v) {
  HAC_ASSIGN_OR_RETURN(uint64_t n, GetListCount(in, 2));
  v.resize(n);
  for (auto& [a, b] : v) {
    HAC_RETURN_IF_ERROR(in.GetStringInto(a));
    HAC_RETURN_IF_ERROR(in.GetStringInto(b));
  }
  return OkResult();
}

// A DirEntry's smallest encoding: empty name, type, one-byte inode.
constexpr size_t kMinEntryBytes = 3;

Result<void> GetEntries(ByteReader& in, std::vector<DirEntry>& v) {
  HAC_ASSIGN_OR_RETURN(uint64_t n, GetListCount(in, kMinEntryBytes));
  v.resize(n);
  for (DirEntry& e : v) {
    HAC_RETURN_IF_ERROR(in.GetStringInto(e.name));
    HAC_ASSIGN_OR_RETURN(e.type, GetNodeType(in));
    HAC_ASSIGN_OR_RETURN(e.inode, in.GetVarint());
  }
  return OkResult();
}

// StatsSnapshot crosses the wire as a fixed sequence of varints: the 15 facade
// counters, then CbaStats, then FsStats, in declaration order. Adding a field to
// any of the three structs requires a protocol version bump (the round-trip test
// in tests/server/wire_test.cc pins the field count).
void PutStats(ByteWriter& out, const StatsSnapshot& s) {
  const uint64_t fields[] = {
      s.query_evaluations, s.delta_evaluations, s.scope_propagations,
      s.short_circuit_propagations, s.batch_flushes, s.batched_mutations,
      s.transient_links_added, s.transient_links_removed, s.docs_indexed,
      s.docs_purged, s.auto_reindexes, s.remote_searches, s.remote_imports,
      s.attr_cache_hits, s.attr_cache_misses,
      s.index.documents, s.index.terms, s.index.postings, s.index.queries_evaluated,
      s.vfs.lookups, s.vfs.mkdirs, s.vfs.creates, s.vfs.opens, s.vfs.closes,
      s.vfs.reads, s.vfs.writes, s.vfs.read_bytes, s.vfs.written_bytes, s.vfs.stats,
      s.vfs.readdirs, s.vfs.unlinks, s.vfs.rmdirs, s.vfs.renames, s.vfs.symlinks,
  };
  for (uint64_t f : fields) {
    out.PutVarint(f);
  }
}

Result<void> GetStats(ByteReader& in, StatsSnapshot& s) {
  uint64_t f[34];
  for (auto& v : f) {
    HAC_ASSIGN_OR_RETURN(v, in.GetVarint());
  }
  s.query_evaluations = f[0];
  s.delta_evaluations = f[1];
  s.scope_propagations = f[2];
  s.short_circuit_propagations = f[3];
  s.batch_flushes = f[4];
  s.batched_mutations = f[5];
  s.transient_links_added = f[6];
  s.transient_links_removed = f[7];
  s.docs_indexed = f[8];
  s.docs_purged = f[9];
  s.auto_reindexes = f[10];
  s.remote_searches = f[11];
  s.remote_imports = f[12];
  s.attr_cache_hits = f[13];
  s.attr_cache_misses = f[14];
  s.index.documents = f[15];
  s.index.terms = f[16];
  s.index.postings = f[17];
  s.index.queries_evaluated = f[18];
  s.vfs.lookups = f[19];
  s.vfs.mkdirs = f[20];
  s.vfs.creates = f[21];
  s.vfs.opens = f[22];
  s.vfs.closes = f[23];
  s.vfs.reads = f[24];
  s.vfs.writes = f[25];
  s.vfs.read_bytes = f[26];
  s.vfs.written_bytes = f[27];
  s.vfs.stats = f[28];
  s.vfs.readdirs = f[29];
  s.vfs.unlinks = f[30];
  s.vfs.rmdirs = f[31];
  s.vfs.renames = f[32];
  s.vfs.symlinks = f[33];
  return OkResult();
}

void PutHeader(ByteWriter& out, FrameKind kind, uint32_t payload_len) {
  out.PutU32(kWireMagic);
  out.PutU8(kWireVersion);
  out.PutU8(static_cast<uint8_t>(kind));
  out.PutU32(payload_len);
}

// Validates magic/version/kind/length and returns the payload length. Shared by
// the one-shot frame decoders and the streaming FrameDecoder so every entry point
// reports identical errors.
Result<uint32_t> ReadHeader(ByteReader& in, FrameKind* kind_out) {
  HAC_ASSIGN_OR_RETURN(uint32_t magic, in.GetU32());
  if (magic != kWireMagic) {
    return Error(ErrorCode::kCorrupt, "bad frame magic");
  }
  HAC_ASSIGN_OR_RETURN(uint8_t version, in.GetU8());
  if (version != kWireVersion) {
    return Error(ErrorCode::kUnsupported,
                 "wire version " + std::to_string(version) + " (speaking " +
                     std::to_string(kWireVersion) + ")");
  }
  HAC_ASSIGN_OR_RETURN(uint8_t kind, in.GetU8());
  if (kind > static_cast<uint8_t>(FrameKind::kResponse)) {
    return Error(ErrorCode::kCorrupt, "bad frame kind");
  }
  HAC_ASSIGN_OR_RETURN(uint32_t len, in.GetU32());
  if (len > kMaxFramePayload) {
    return Error(ErrorCode::kCorrupt, "frame payload exceeds limit");
  }
  *kind_out = static_cast<FrameKind>(kind);
  return len;
}

Result<void> ExpectEnd(const ByteReader& in) {
  if (!in.AtEnd()) {
    return Error(ErrorCode::kCorrupt, "trailing bytes after payload");
  }
  return OkResult();
}

template <typename T>
Result<T> DecodeFrame(const std::vector<uint8_t>& frame, FrameKind expect,
                      Result<T> (*decode)(ByteReader&)) {
  const uint64_t t0 = NowNs();
  ByteReader in(frame);
  FrameKind kind;
  HAC_ASSIGN_OR_RETURN(uint32_t len, ReadHeader(in, &kind));
  if (kind != expect) {
    return Error(ErrorCode::kCorrupt, "unexpected frame kind");
  }
  if (len != in.remaining()) {
    return Error(ErrorCode::kCorrupt, "frame length does not match payload");
  }
  Result<T> decoded = decode(in);
  if (decoded.ok()) {
    HAC_RETURN_IF_ERROR(ExpectEnd(in));
    WM().decode_ns.Record(NowNs() - t0);
  }
  return decoded;
}

}  // namespace

void EncodeRequest(const ServerRequest& req, ByteWriter& out) {
  out.PutU8(static_cast<uint8_t>(req.op));
  out.PutVarint(req.flags);
  PutFd(out, req.fd);
  out.PutVarint(req.size);
  out.PutString(req.path);
  out.PutString(req.aux);
}

Result<ServerRequest> DecodeRequest(ByteReader& in) {
  ServerRequest req;
  HAC_ASSIGN_OR_RETURN(uint8_t op, in.GetU8());
  if (op >= kServerOpCount) {
    return Error(ErrorCode::kUnsupported, "unknown op " + std::to_string(op));
  }
  req.op = static_cast<ServerOp>(op);
  HAC_ASSIGN_OR_RETURN(uint64_t flags, in.GetVarint());
  if (flags > UINT32_MAX) {
    return Error(ErrorCode::kCorrupt, "flags out of range");
  }
  req.flags = static_cast<uint32_t>(flags);
  HAC_ASSIGN_OR_RETURN(req.fd, GetFd(in));
  HAC_ASSIGN_OR_RETURN(req.size, in.GetVarint());
  HAC_RETURN_IF_ERROR(in.GetStringInto(req.path));
  HAC_RETURN_IF_ERROR(in.GetStringInto(req.aux));
  return req;
}

void EncodeResponse(const ServerResponse& resp, ByteWriter& out) {
  PutError(out, resp.error);
  PutFd(out, resp.fd);
  out.PutVarint(resp.size);
  out.PutString(resp.text);
  out.PutVarint(resp.entries.size());
  for (const DirEntry& e : resp.entries) {
    out.PutString(e.name);
    out.PutU8(static_cast<uint8_t>(e.type));
    out.PutVarint(e.inode);
  }
  PutStringVec(out, resp.paths);
  PutStat(out, resp.st);
  PutPairVec(out, resp.links.permanent);
  PutPairVec(out, resp.links.transient);
  PutStringVec(out, resp.links.prohibited);
  PutStats(out, resp.stats);
}

Result<ServerResponse> DecodeResponse(ByteReader& in) {
  ServerResponse resp;
  HAC_RETURN_IF_ERROR(GetError(in, resp.error));
  HAC_ASSIGN_OR_RETURN(resp.fd, GetFd(in));
  HAC_ASSIGN_OR_RETURN(resp.size, in.GetVarint());
  HAC_RETURN_IF_ERROR(in.GetStringInto(resp.text));
  HAC_RETURN_IF_ERROR(GetEntries(in, resp.entries));
  HAC_RETURN_IF_ERROR(GetStringVec(in, resp.paths));
  HAC_ASSIGN_OR_RETURN(resp.st, GetStat(in));
  HAC_RETURN_IF_ERROR(GetPairVec(in, resp.links.permanent));
  HAC_RETURN_IF_ERROR(GetPairVec(in, resp.links.transient));
  HAC_RETURN_IF_ERROR(GetStringVec(in, resp.links.prohibited));
  HAC_RETURN_IF_ERROR(GetStats(in, resp.stats));
  return resp;
}

namespace {

template <typename T>
std::vector<uint8_t> EncodeFrame(const T& msg, FrameKind kind,
                                 void (*encode)(const T&, ByteWriter&)) {
  const uint64_t t0 = NowNs();
  // One pooled buffer for header + payload: the length field is a placeholder
  // until the payload is in place, then patched — no second buffer, no copy.
  ByteWriter frame(BufferPool::Global().Acquire());
  PutHeader(frame, kind, 0);
  encode(msg, frame);
  frame.PatchU32(6, static_cast<uint32_t>(frame.size() - kWireHeaderSize));
  WM().encode_ns.Record(NowNs() - t0);
  return frame.TakeBuffer();
}

}  // namespace

std::vector<uint8_t> EncodeRequestFrame(const ServerRequest& req) {
  return EncodeFrame(req, FrameKind::kRequest, EncodeRequest);
}

size_t MaxEncodablePayload() {
  return g_encode_payload_limit.load(std::memory_order_relaxed);
}

size_t SetMaxEncodablePayloadForTest(size_t limit) {
  if (limit == 0 || limit > kMaxFramePayload) {
    limit = kMaxFramePayload;
  }
  return g_encode_payload_limit.exchange(limit, std::memory_order_relaxed);
}

std::vector<uint8_t> EncodeResponseFrame(const ServerResponse& resp) {
  std::vector<uint8_t> frame = EncodeFrame(resp, FrameKind::kResponse, EncodeResponse);
  const size_t limit = MaxEncodablePayload();
  if (frame.size() - kWireHeaderSize > limit) {
    // An oversized response would be refused by every decoder (and would wedge
    // the connection that parked it). Substitute a small, well-formed error in
    // the retryable taxonomy and point the caller at the paged surface.
    const size_t oversize = frame.size() - kWireHeaderSize;
    RecycleBuffer(std::move(frame));
    ServerResponse err;
    err.error = Error(ErrorCode::kOverloaded,
                      "response payload " + std::to_string(oversize) +
                          " bytes exceeds the " + std::to_string(limit) +
                          "-byte frame limit; page the result with cursor ops");
    return EncodeFrame(err, FrameKind::kResponse, EncodeResponse);
  }
  return frame;
}

void RecycleBuffer(std::vector<uint8_t>&& buf) {
  BufferPool::Global().Release(std::move(buf));
}

Result<ServerRequest> DecodeRequestFrame(const std::vector<uint8_t>& frame) {
  return DecodeFrame(frame, FrameKind::kRequest, DecodeRequest);
}

Result<ServerResponse> DecodeResponseFrame(const std::vector<uint8_t>& frame) {
  return DecodeFrame(frame, FrameKind::kResponse, DecodeResponse);
}

namespace {

template <typename T>
Result<T> DecodePayload(const uint8_t* data, size_t size,
                        Result<T> (*decode)(ByteReader&)) {
  const uint64_t t0 = NowNs();
  ByteReader in(data, size);
  Result<T> decoded = decode(in);
  if (decoded.ok()) {
    HAC_RETURN_IF_ERROR(ExpectEnd(in));
    WM().decode_ns.Record(NowNs() - t0);
  }
  return decoded;
}

}  // namespace

Result<ServerRequest> DecodeRequestPayload(const uint8_t* data, size_t size) {
  return DecodePayload(data, size, DecodeRequest);
}

Result<ServerResponse> DecodeResponsePayload(const uint8_t* data, size_t size) {
  return DecodePayload(data, size, DecodeResponse);
}

uint8_t* FrameDecoder::Reserve(size_t n) {
  if (pos_ == end_) {
    pos_ = end_ = 0;  // everything consumed: refill from the front
  }
  if (buf_.size() - end_ < n) {
    // Slide the unconsumed tail (at most one partial frame) to the front, and grow
    // only if the room is still short, so a long-lived connection's buffer stays
    // bounded by its largest frame plus one receive.
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    if (buf_.size() - end_ < n) {
      buf_.resize(std::max(buf_.size() * 2, end_ + n));
    }
  }
  return buf_.data() + end_;
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (n > 0) {
    std::memcpy(Reserve(n), data, n);
    Commit(n);
  }
}

Result<std::optional<FrameDecoder::FrameView>> FrameDecoder::NextView() {
  if (end_ - pos_ < kWireHeaderSize) {
    return std::optional<FrameView>();
  }
  ByteReader in(buf_.data() + pos_, end_ - pos_);
  FrameKind kind;
  HAC_ASSIGN_OR_RETURN(uint32_t len, ReadHeader(in, &kind));
  if (end_ - pos_ - kWireHeaderSize < len) {
    return std::optional<FrameView>();  // header complete, payload still in flight
  }
  FrameView view{kind, buf_.data() + pos_ + kWireHeaderSize, len};
  pos_ += kWireHeaderSize + len;
  return std::optional<FrameView>(view);
}

Result<std::optional<FrameDecoder::Frame>> FrameDecoder::Next() {
  HAC_ASSIGN_OR_RETURN(std::optional<FrameView> view, NextView());
  if (!view.has_value()) {
    return std::optional<Frame>();
  }
  return std::optional<Frame>(
      Frame{view->kind, std::vector<uint8_t>(view->data, view->data + view->size)});
}

}  // namespace hac
