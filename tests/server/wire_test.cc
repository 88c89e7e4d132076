// Wire-codec tests: deterministic round-trips for every ServerOp and every
// ErrorCode, the append-only bounds that keep the numeric mappings stable, and
// fuzz/property coverage of the decode paths (truncated frames, bad magic, version
// skew, bit flips — an error or a value, never a crash).
#include "src/server/wire.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hac {
namespace {

ServerRequest SampleRequest(size_t op_index) {
  ServerRequest req;
  req.op = static_cast<ServerOp>(op_index);
  req.path = "/some/dir/op" + std::to_string(op_index);
  req.aux = "aux payload for " + std::string(ServerOpName(req.op));
  req.fd = static_cast<Fd>(op_index) - 1;  // exercises -1 at index 0
  req.size = op_index * 977 + 13;
  req.flags = static_cast<uint32_t>(op_index << 3);
  return req;
}

void ExpectRequestsEqual(const ServerRequest& a, const ServerRequest& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.aux, b.aux);
  EXPECT_EQ(a.fd, b.fd);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.flags, b.flags);
}

TEST(WireRequestTest, RoundTripCoversEveryServerOp) {
  for (size_t i = 0; i < kServerOpCount; ++i) {
    ServerRequest req = SampleRequest(i);
    auto decoded = DecodeRequestFrame(EncodeRequestFrame(req));
    ASSERT_TRUE(decoded.ok()) << "op " << ServerOpName(req.op) << ": "
                              << decoded.error().ToString();
    ExpectRequestsEqual(req, decoded.value());
  }
}

TEST(WireRequestTest, OpNameTableIsCompleteAndDistinct) {
  std::vector<std::string> seen;
  for (size_t i = 0; i < kServerOpCount; ++i) {
    std::string name = ServerOpName(static_cast<ServerOp>(i));
    EXPECT_NE(name, "?") << "op " << i << " missing from kServerOpNames";
    for (const auto& prev : seen) {
      EXPECT_NE(name, prev);
    }
    seen.push_back(std::move(name));
  }
}

TEST(WireRequestTest, UnknownOpIsUnsupportedNotCorrupt) {
  // A newer peer's op decodes as kUnsupported: well-formed bytes, future schema.
  ByteWriter payload;
  EncodeRequest(SampleRequest(0), payload);
  std::vector<uint8_t> bytes = payload.TakeBuffer();
  bytes[0] = static_cast<uint8_t>(kServerOpCount);  // first unassigned op value
  auto decoded = DecodeRequestPayload(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kUnsupported);
}

ServerResponse SampleResponse() {
  ServerResponse resp;
  resp.fd = 7;
  resp.size = 4096;
  resp.text = "file contents\nwith newline";
  resp.entries = {{"a.txt", NodeType::kFile, 11}, {"sub", NodeType::kDirectory, 12},
                  {"ln", NodeType::kSymlink, 13}};
  resp.paths = {"/docs/a.txt", "/docs/b.txt"};
  resp.st = Stat{42, NodeType::kDirectory, 3, 99, 2};
  resp.links.permanent = {{"pin.txt", "/docs/a.txt"}};
  resp.links.transient = {{"t1.txt", "/docs/b.txt"}, {"t2.txt", "/docs/c.txt"}};
  resp.links.prohibited = {"/docs/vetoed.txt"};
  // Give every stats field a distinct value so a transposed field fails loudly.
  uint64_t v = 1000;
  resp.stats.query_evaluations = ++v;
  resp.stats.delta_evaluations = ++v;
  resp.stats.scope_propagations = ++v;
  resp.stats.short_circuit_propagations = ++v;
  resp.stats.batch_flushes = ++v;
  resp.stats.batched_mutations = ++v;
  resp.stats.transient_links_added = ++v;
  resp.stats.transient_links_removed = ++v;
  resp.stats.docs_indexed = ++v;
  resp.stats.docs_purged = ++v;
  resp.stats.auto_reindexes = ++v;
  resp.stats.remote_searches = ++v;
  resp.stats.remote_imports = ++v;
  resp.stats.attr_cache_hits = ++v;
  resp.stats.attr_cache_misses = ++v;
  resp.stats.index.documents = ++v;
  resp.stats.index.terms = ++v;
  resp.stats.index.postings = ++v;
  resp.stats.index.queries_evaluated = ++v;
  resp.stats.vfs.lookups = ++v;
  resp.stats.vfs.mkdirs = ++v;
  resp.stats.vfs.creates = ++v;
  resp.stats.vfs.opens = ++v;
  resp.stats.vfs.closes = ++v;
  resp.stats.vfs.reads = ++v;
  resp.stats.vfs.writes = ++v;
  resp.stats.vfs.read_bytes = ++v;
  resp.stats.vfs.written_bytes = ++v;
  resp.stats.vfs.stats = ++v;
  resp.stats.vfs.readdirs = ++v;
  resp.stats.vfs.unlinks = ++v;
  resp.stats.vfs.rmdirs = ++v;
  resp.stats.vfs.renames = ++v;
  resp.stats.vfs.symlinks = ++v;
  return resp;
}

void ExpectResponsesEqual(const ServerResponse& a, const ServerResponse& b) {
  EXPECT_EQ(a.error.code, b.error.code);
  EXPECT_EQ(a.error.message, b.error.message);
  EXPECT_EQ(a.fd, b.fd);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.st.inode, b.st.inode);
  EXPECT_EQ(a.st.type, b.st.type);
  EXPECT_EQ(a.st.size, b.st.size);
  EXPECT_EQ(a.st.mtime, b.st.mtime);
  EXPECT_EQ(a.st.nlink, b.st.nlink);
  EXPECT_EQ(a.links.permanent, b.links.permanent);
  EXPECT_EQ(a.links.transient, b.links.transient);
  EXPECT_EQ(a.links.prohibited, b.links.prohibited);
  const uint64_t af[] = {a.stats.query_evaluations, a.stats.delta_evaluations,
                         a.stats.scope_propagations, a.stats.short_circuit_propagations,
                         a.stats.batch_flushes, a.stats.batched_mutations,
                         a.stats.transient_links_added, a.stats.transient_links_removed,
                         a.stats.docs_indexed, a.stats.docs_purged,
                         a.stats.auto_reindexes, a.stats.remote_searches,
                         a.stats.remote_imports, a.stats.attr_cache_hits,
                         a.stats.attr_cache_misses, a.stats.index.documents,
                         a.stats.index.terms, a.stats.index.postings,
                         a.stats.index.queries_evaluated, a.stats.vfs.lookups,
                         a.stats.vfs.mkdirs, a.stats.vfs.creates, a.stats.vfs.opens,
                         a.stats.vfs.closes, a.stats.vfs.reads, a.stats.vfs.writes,
                         a.stats.vfs.read_bytes, a.stats.vfs.written_bytes,
                         a.stats.vfs.stats, a.stats.vfs.readdirs, a.stats.vfs.unlinks,
                         a.stats.vfs.rmdirs, a.stats.vfs.renames, a.stats.vfs.symlinks};
  const uint64_t bf[] = {b.stats.query_evaluations, b.stats.delta_evaluations,
                         b.stats.scope_propagations, b.stats.short_circuit_propagations,
                         b.stats.batch_flushes, b.stats.batched_mutations,
                         b.stats.transient_links_added, b.stats.transient_links_removed,
                         b.stats.docs_indexed, b.stats.docs_purged,
                         b.stats.auto_reindexes, b.stats.remote_searches,
                         b.stats.remote_imports, b.stats.attr_cache_hits,
                         b.stats.attr_cache_misses, b.stats.index.documents,
                         b.stats.index.terms, b.stats.index.postings,
                         b.stats.index.queries_evaluated, b.stats.vfs.lookups,
                         b.stats.vfs.mkdirs, b.stats.vfs.creates, b.stats.vfs.opens,
                         b.stats.vfs.closes, b.stats.vfs.reads, b.stats.vfs.writes,
                         b.stats.vfs.read_bytes, b.stats.vfs.written_bytes,
                         b.stats.vfs.stats, b.stats.vfs.readdirs, b.stats.vfs.unlinks,
                         b.stats.vfs.rmdirs, b.stats.vfs.renames, b.stats.vfs.symlinks};
  for (size_t i = 0; i < 34; ++i) {
    EXPECT_EQ(af[i], bf[i]) << "stats field " << i;
  }
}

TEST(WireResponseTest, RoundTripEveryField) {
  ServerResponse resp = SampleResponse();
  auto decoded = DecodeResponseFrame(EncodeResponseFrame(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  ExpectResponsesEqual(resp, decoded.value());
}

TEST(WireResponseTest, RoundTripOfDefaultResponse) {
  ServerResponse resp;
  auto decoded = DecodeResponseFrame(EncodeResponseFrame(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  ExpectResponsesEqual(resp, decoded.value());
}

// --- golden bytes: version-1 frames are pinned, not just round-tripped ---
//
// A round trip passes for any encoder/decoder pair that agree with each other; these
// constants pin the bytes themselves, so a codec change that alters the version-1
// encoding fails here even when it still round-trips. Each entry is the frame's
// size and the FNV-1a 64 hash of its bytes, computed with the codec that preceded
// the inline serializer and the in-place decoders.

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  size_t size;
  uint64_t fnv;
};

// A semantic-directory listing the size of a large churn ReadDir.
ServerResponse GoldenListing() {
  ServerResponse resp;
  for (uint64_t i = 0; i < 1479; ++i) {
    const NodeType type = i % 7 == 0 ? NodeType::kFile
                          : i % 11 == 0 ? NodeType::kDirectory
                                        : NodeType::kSymlink;
    resp.entries.push_back({"doc-" + std::to_string(100000 + i * 13) + ".txt", type,
                            1000 + i * 37});
  }
  return resp;
}

// A GetLinkClasses view with all three lists populated.
ServerResponse GoldenLinkClasses() {
  ServerResponse resp;
  for (int i = 0; i < 20; ++i) {
    resp.links.permanent.emplace_back("pin-" + std::to_string(i),
                                      "/corpus/d" + std::to_string(i % 32) + "/p.txt");
  }
  for (int i = 0; i < 800; ++i) {
    const std::string doc = "doc-" + std::to_string(i * 29) + ".txt";
    resp.links.transient.emplace_back(doc, "/corpus/d" + std::to_string(i % 32) + "/" + doc);
  }
  for (int i = 0; i < 30; ++i) {
    resp.links.prohibited.push_back("/corpus/vetoed-" + std::to_string(i) + ".txt");
  }
  return resp;
}

ServerResponse GoldenSearch() {
  ServerResponse resp;
  for (int i = 0; i < 1000; ++i) {
    resp.paths.push_back("/corpus/d" + std::to_string(i % 32) + "/doc-" +
                         std::to_string(i * 7) + ".txt");
  }
  return resp;
}

// Every stats field set, with multi-byte varints.
ServerResponse GoldenStats() {
  ServerResponse resp = SampleResponse();
  resp.entries.clear();
  resp.paths.clear();
  resp.links = LinkClassView{};
  resp.text.clear();
  resp.stats.query_evaluations = uint64_t{1} << 40;
  resp.stats.vfs.read_bytes = ~uint64_t{0};
  resp.stats.index.postings = 300;
  return resp;
}

ServerResponse GoldenError() {
  ServerResponse resp;
  resp.error = Error(ErrorCode::kNotFound, "/docs/missing.txt does not exist");
  return resp;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

void ExpectGolden(const std::vector<uint8_t>& frame, const Golden& want,
                  const std::string& what) {
  EXPECT_EQ(frame.size(), want.size) << what;
  EXPECT_EQ(Fnv1a(frame), want.fnv)
      << what << ": {" << frame.size() << ", 0x" << std::hex << Fnv1a(frame) << "ull}";
}

// Pins the response's frame and checks that it decodes back to the response.
void ExpectGoldenResponse(const ServerResponse& resp, const Golden& want,
                          const std::string& what) {
  const std::vector<uint8_t> frame = EncodeResponseFrame(resp);
  ExpectGolden(frame, want, what);
  auto decoded = DecodeResponseFrame(frame);
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.error().ToString();
  ExpectResponsesEqual(resp, decoded.value());
}

TEST(WireGoldenTest, RequestFramesOfEveryServerOpAreVersionOneBytes) {
  // Ping's frame in full, so the layout is readable here too: header (magic "HAC1",
  // version 1, kind 0, length 43), then op, flags, fd -1 as a u32 varint, size 13,
  // path and aux.
  EXPECT_EQ(Hex(EncodeRequestFrame(SampleRequest(0))),
            "4841433101002b000000"                          // header
            "00" "00" "ffffffff0f" "0d"                     // op, flags, fd, size
            "0d2f736f6d652f6469722f6f7030"                  // path
            "14617578207061796c6f616420666f722050696e67");
  const Golden kWant[kServerOpCount] = {
      {53, 0x5b9378ea46e74143ull},  // Ping
      {53, 0xb6079a78846a91baull},  // ReadDir
      {52, 0x2f90aa45aaf34a33ull},  // Search
      {50, 0xe8bfc6a7fb1b2c1bull},  // Stat
      {51, 0x899749f9f5efb04eull},  // Lstat
      {52, 0x0d47d2f8522a9cf6ull},  // ReadFd
      {50, 0x2fdcdf14c66ce2bdull},  // Seek
      {54, 0x2c0d32c2cf625c3bull},  // GetQuery
      {60, 0xf300bcae22d83121ull},  // GetLinkClasses
      {54, 0x79b485e28fbd1ebaull},  // ReadLink
      {52, 0x4893ed9ce36c7fa0ull},  // Stats
      {52, 0x4f5027e1da0e7dc5ull},  // Chdir
      {57, 0x4538a632cece1d9dull},  // Introspect
      {51, 0x8072a8571a7f74beull},  // Open
      {52, 0x4d60d70d735715cdull},  // Close
      {54, 0xa803caa901439a9cull},  // WriteFd
      {57, 0xe2adc8c9c1898192ull},  // WriteFile
      {54, 0x2246c0ea14e52cd1ull},  // Mkdir
      {55, 0x324435c64225d244ull},  // SMkdir
      {57, 0x92d97619286e6564ull},  // SetQuery
      {55, 0x113ab91162c6d90dull},  // Unlink
      {54, 0xdeb473abeeb7d638ull},  // Rmdir
      {55, 0x784d713210e3638cull},  // Rename
      {56, 0x9019bebc3481c072ull},  // Symlink
      {60, 0xc87b0c28e1a8d239ull},  // PromoteLink
      {59, 0x77417fc17372dcccull},  // DemoteLink
      {57, 0x45c33584d7b34c1full},  // Prohibit
      {59, 0x014bd6860dfbf2f0ull},  // Unprohibit
      {56, 0xc1de20ef448799ccull},  // Reindex
      {54, 0x9a482a91b22fb8d9ull},  // SSync
      {53, 0x55f8c49619063829ull},  // SAct
      {61, 0x603f1df618c42c27ull},  // CloseSession
      {59, 0xf746b0c968fa5e60ull},  // Checkpoint
      {59, 0x8771f0384df2757bull},  // OpenCursor
      {58, 0x2d245a39ff46241dull},  // FetchPage
      {60, 0xcf43703fd56d73c4ull},  // CloseCursor
  };
  for (size_t i = 0; i < kServerOpCount; ++i) {
    ExpectGolden(EncodeRequestFrame(SampleRequest(i)), kWant[i],
                 std::string("op ") + ServerOpName(static_cast<ServerOp>(i)));
  }
}

TEST(WireGoldenTest, ResponseFramesAreVersionOneBytes) {
  ExpectGoldenResponse(GoldenListing(), {27749, 0x19408c6cce794720ull}, "listing");
  ExpectGoldenResponse(GoldenLinkClasses(), {32174, 0x2d472e17530a2d60ull}, "links");
  ExpectGoldenResponse(GoldenSearch(), {24586, 0xae7e74c2f2bc1516ull}, "search");
  ExpectGoldenResponse(GoldenStats(), {106, 0xebf9ec143bd874d2ull}, "stats");
  ExpectGoldenResponse(GoldenError(), {95, 0x8d70cc4fb9970656ull}, "error");
  ExpectGoldenResponse(SampleResponse(), {238, 0xa54bcbef4c7efaa3ull}, "sample");
  ExpectGoldenResponse(ServerResponse{}, {63, 0xf2f8b804f50cde5full}, "default");
}

// --- error transport hygiene ---

TEST(WireErrorTest, EveryErrorCodeSurvivesTheWireWithItsStableName) {
  for (int c = 0; c <= kMaxErrorCode; ++c) {
    ServerResponse resp;
    resp.error.code = static_cast<ErrorCode>(c);
    resp.error.message = "ctx " + std::to_string(c);
    auto decoded = DecodeResponseFrame(EncodeResponseFrame(resp));
    ASSERT_TRUE(decoded.ok()) << "code " << c;
    EXPECT_EQ(decoded.value().error.code, resp.error.code);
    EXPECT_EQ(decoded.value().error.message, resp.error.message);
    // The identifier is the stable contract (persisted logs + docs); "unknown"
    // would mean a code was assigned without a name.
    EXPECT_NE(ErrorCodeName(decoded.value().error.code), "unknown") << "code " << c;
    EXPECT_EQ(ErrorCodeName(decoded.value().error.code),
              ErrorCodeName(resp.error.code));
  }
}

TEST(WireErrorTest, ErrorCodeNamesAreDistinct) {
  for (int a = 0; a <= kMaxErrorCode; ++a) {
    for (int b = a + 1; b <= kMaxErrorCode; ++b) {
      EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(a)),
                ErrorCodeName(static_cast<ErrorCode>(b)))
          << a << " vs " << b;
    }
  }
}

TEST(WireErrorTest, StaleCursorStaysTheMaxCode) {
  // Append-only discipline: a new code must extend past kStaleCursor and bump
  // kMaxErrorCode (wire.cc static_asserts the same bound at compile time), so a
  // value can never be silently reused.
  EXPECT_EQ(static_cast<int>(ErrorCode::kStaleExport), 20);
  EXPECT_EQ(ErrorCodeName(ErrorCode::kStaleExport), "stale_export");
  EXPECT_EQ(static_cast<int>(ErrorCode::kStaleCursor), 21);
  EXPECT_EQ(kMaxErrorCode, 21);
  EXPECT_EQ(ErrorCodeName(ErrorCode::kStaleCursor), "stale_cursor");
}

TEST(WireRequestTest, CursorOpsKeepTheirWireValues) {
  // The cursor ops are the tail of the append-only op table; their numeric
  // values (and read classification) are the on-wire contract.
  EXPECT_EQ(static_cast<int>(ServerOp::kOpenCursor), 33);
  EXPECT_EQ(static_cast<int>(ServerOp::kFetchPage), 34);
  EXPECT_EQ(static_cast<int>(ServerOp::kCloseCursor), 35);
  EXPECT_EQ(kServerOpCount, 36u);
  EXPECT_TRUE(IsReadOp(ServerOp::kOpenCursor));
  EXPECT_TRUE(IsReadOp(ServerOp::kFetchPage));
  EXPECT_TRUE(IsReadOp(ServerOp::kCloseCursor));
}

TEST(WireErrorTest, UnknownErrorCodeOnWireIsCorrupt) {
  ByteWriter payload;
  EncodeResponse(ServerResponse{}, payload);
  std::vector<uint8_t> bytes = payload.TakeBuffer();
  bytes[0] = static_cast<uint8_t>(kMaxErrorCode + 1);  // first unassigned code
  auto decoded = DecodeResponsePayload(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kCorrupt);
}

// --- framing ---

class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 16;
  }

 private:
  uint64_t state_;
};

// Valid frames of both kinds; the response carries entries, paths and all three
// link lists, so the in-place list decoders see every truncation and byte flip.
std::vector<std::pair<std::vector<uint8_t>, FrameKind>> ValidFrames() {
  return {{EncodeRequestFrame(SampleRequest(2)), FrameKind::kRequest},
          {EncodeResponseFrame(SampleResponse()), FrameKind::kResponse}};
}

// Decodes `frame` as `kind`; returns the error code (kOk on success).
ErrorCode DecodeAs(const std::vector<uint8_t>& frame, FrameKind kind) {
  return kind == FrameKind::kRequest ? DecodeRequestFrame(frame).code()
                                     : DecodeResponseFrame(frame).code();
}

TEST(WireFrameTest, OversizedResponseIsReplacedWithOverloadedError) {
  const size_t prev = SetMaxEncodablePayloadForTest(512);
  ServerResponse big;
  for (int i = 0; i < 200; ++i) {
    big.paths.push_back("/very/long/path/component/number/" + std::to_string(i));
  }
  std::vector<uint8_t> frame = EncodeResponseFrame(big);
  // The substituted frame is itself well-formed, under the cap, and carries a
  // retryable error pointing at the paged surface.
  EXPECT_LE(frame.size() - kWireHeaderSize, 512u);
  auto decoded = DecodeResponseFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded.value().error.code, ErrorCode::kOverloaded);
  EXPECT_NE(decoded.value().error.message.find("cursor"), std::string::npos);
  EXPECT_TRUE(decoded.value().paths.empty());
  SetMaxEncodablePayloadForTest(prev);

  // With the default cap restored, the same response passes through untouched.
  auto ok = DecodeResponseFrame(EncodeResponseFrame(big));
  ASSERT_TRUE(ok.ok()) << ok.error().ToString();
  EXPECT_EQ(ok.value().paths.size(), big.paths.size());
}

TEST(WireFrameTest, EncodeCapIsClampedToDecoderBound) {
  // The encoder cap can never exceed what ReadHeader accepts (or what the u32
  // length patch can represent): an absurd override clamps to kMaxFramePayload.
  SetMaxEncodablePayloadForTest(size_t{1} << 40);
  EXPECT_EQ(MaxEncodablePayload(), kMaxFramePayload);
  SetMaxEncodablePayloadForTest(0);  // 0 restores the default
  EXPECT_EQ(MaxEncodablePayload(), kMaxFramePayload);
}

TEST(WireFrameTest, BadMagicIsCorrupt) {
  std::vector<uint8_t> frame = EncodeRequestFrame(SampleRequest(1));
  frame[0] ^= 0xFF;
  auto decoded = DecodeRequestFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kCorrupt);
}

TEST(WireFrameTest, VersionSkewIsUnsupported) {
  std::vector<uint8_t> frame = EncodeRequestFrame(SampleRequest(1));
  frame[4] = kWireVersion + 1;
  auto decoded = DecodeRequestFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kUnsupported);
}

TEST(WireFrameTest, KindMismatchIsCorrupt) {
  std::vector<uint8_t> frame = EncodeResponseFrame(ServerResponse{});
  auto decoded = DecodeRequestFrame(frame);  // expecting a request
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kCorrupt);
}

TEST(WireFrameTest, EveryTruncationOfAValidFrameFailsCleanly) {
  for (const auto& [frame, kind] : ValidFrames()) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      std::vector<uint8_t> prefix(frame.begin(),
                                  frame.begin() + static_cast<ptrdiff_t>(cut));
      EXPECT_EQ(DecodeAs(prefix, kind), ErrorCode::kCorrupt)
          << "kind " << static_cast<int>(kind) << " cut at " << cut;
      if (cut < kWireHeaderSize) {
        continue;
      }
      // A truncated frame already fails its length check; the payload cut at the
      // same point reaches the field and list decoders. It gets its own buffer, so
      // a read past the cut is a heap overflow the ASan build reports.
      const std::vector<uint8_t> payload(frame.begin() + kWireHeaderSize,
                                         frame.begin() + static_cast<ptrdiff_t>(cut));
      const ErrorCode code = kind == FrameKind::kRequest
                                 ? DecodeRequestPayload(payload).code()
                                 : DecodeResponsePayload(payload).code();
      EXPECT_EQ(code, ErrorCode::kCorrupt)
          << "kind " << static_cast<int>(kind) << " payload cut at " << payload.size();
    }
  }
}

void PutStatForTest(ByteWriter& w) {
  w.PutVarint(0);  // inode
  w.PutU8(0);      // type
  w.PutVarint(0);  // size
  w.PutVarint(0);  // mtime
  w.PutVarint(1);  // nlink
}

// A response payload whose fields before list `list` (0 entries, 1 paths,
// 2 permanent, 3 transient, 4 prohibited) are empty, then that list's `count`, then
// `tail` zero bytes.
std::vector<uint8_t> PayloadWithListCount(int list, uint64_t count, size_t tail) {
  ByteWriter w;
  w.PutVarint(0);           // error code
  w.PutString("");          // error message
  w.PutVarint(0xFFFFFFFF);  // fd -1
  w.PutVarint(0);           // size
  w.PutString("");          // text
  for (int i = 0; i < list; ++i) {
    w.PutVarint(0);
    if (i == 1) {
      PutStatForTest(w);
    }
  }
  w.PutVarint(count);
  std::vector<uint8_t> payload = w.TakeBuffer();
  payload.resize(payload.size() + tail, 0);
  return payload;
}

TEST(WireFrameTest, ListCountBeyondWhatThePayloadCanHoldIsCorrupt) {
  // Each list's count is checked against its elements' smallest encoding before
  // anything is allocated: an entry takes at least 3 bytes, a pair 2, a string 1.
  const size_t kMinBytes[] = {3, 1, 2, 2, 1};
  const size_t tail = 30;
  for (int list = 0; list < 5; ++list) {
    const uint64_t fits = tail / kMinBytes[list];
    auto over = DecodeResponsePayload(PayloadWithListCount(list, fits + 1, tail));
    ASSERT_FALSE(over.ok()) << "list " << list;
    EXPECT_EQ(over.error().code, ErrorCode::kCorrupt) << "list " << list;
    EXPECT_EQ(over.error().message, "list count exceeds payload") << "list " << list;
    // One element fewer passes the count check; the payload then runs out later.
    auto at_bound = DecodeResponsePayload(PayloadWithListCount(list, fits, tail));
    ASSERT_FALSE(at_bound.ok()) << "list " << list;
    EXPECT_EQ(at_bound.error().code, ErrorCode::kCorrupt) << "list " << list;
    EXPECT_NE(at_bound.error().message, "list count exceeds payload") << "list " << list;
  }
}

TEST(WireFrameTest, StreamingDecoderYieldsFramesAcrossArbitrarySplits) {
  const std::vector<uint8_t> f1 = EncodeRequestFrame(SampleRequest(3));
  const std::vector<uint8_t> f2 = EncodeResponseFrame(SampleResponse());
  std::vector<uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  // Feed one byte at a time: exactly two frames, in order, at the right offsets.
  FrameDecoder dec;
  std::vector<FrameDecoder::Frame> got;
  for (uint8_t b : stream) {
    dec.Feed(&b, 1);
    auto next = dec.Next();
    ASSERT_TRUE(next.ok());
    if (next.value().has_value()) {
      got.push_back(std::move(*next.value()));
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, FrameKind::kRequest);
  EXPECT_EQ(got[1].kind, FrameKind::kResponse);
  auto req = DecodeRequestPayload(got[0].payload);
  ASSERT_TRUE(req.ok());
  ExpectRequestsEqual(SampleRequest(3), req.value());
  auto resp = DecodeResponsePayload(got[1].payload);
  ASSERT_TRUE(resp.ok());
  ExpectResponsesEqual(SampleResponse(), resp.value());
  EXPECT_EQ(dec.buffered(), 0u);

  // The in-place path (receive into Reserve()'s room, NextView()) and the copying
  // one (Feed(), Next()) over one stream: chunks of random size, so several frames
  // arrive in one chunk and one frame larger than any receive spans many.
  std::vector<std::vector<uint8_t>> frames = {f1, f2};
  for (size_t i = 0; i < 10; ++i) {
    frames.push_back(EncodeRequestFrame(SampleRequest(i)));
  }
  ServerResponse big = GoldenSearch();
  while (big.paths.size() < 12000) {
    big.paths.push_back(big.paths[big.paths.size() % 1000] + "/x");
  }
  frames.push_back(EncodeResponseFrame(big));
  ASSERT_GE(frames.back().size(), 200u * 1024);
  frames.push_back(EncodeResponseFrame(GoldenListing()));
  frames.push_back(EncodeResponseFrame(ServerResponse{}));
  std::vector<uint8_t> all;
  for (const auto& f : frames) {
    all.insert(all.end(), f.begin(), f.end());
  }
  FrameDecoder inplace;
  FrameDecoder copying;
  std::vector<std::vector<uint8_t>> viewed;
  std::vector<std::vector<uint8_t>> copied;
  Lcg rng(0x5EED);
  for (size_t at = 0; at < all.size();) {
    const size_t limit = rng.Next() % 4 == 0 ? 70000 : 300;
    const size_t n = std::min(all.size() - at, 1 + rng.Next() % limit);
    std::memcpy(inplace.Reserve(n), all.data() + at, n);
    inplace.Commit(n);
    copying.Feed(all.data() + at, n);
    at += n;
    for (;;) {
      auto view = inplace.NextView();
      ASSERT_TRUE(view.ok());
      if (!view.value().has_value()) {
        break;
      }
      viewed.emplace_back(view.value()->data, view.value()->data + view.value()->size);
    }
    for (;;) {
      auto next = copying.Next();
      ASSERT_TRUE(next.ok());
      if (!next.value().has_value()) {
        break;
      }
      copied.push_back(std::move(next.value()->payload));
    }
    EXPECT_EQ(inplace.buffered(), copying.buffered());
  }
  ASSERT_EQ(viewed.size(), frames.size());
  EXPECT_EQ(viewed, copied);
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(viewed[i], std::vector<uint8_t>(frames[i].begin() + kWireHeaderSize,
                                              frames[i].end()))
        << "frame " << i;
  }
  EXPECT_EQ(inplace.buffered(), 0u);
  EXPECT_EQ(copying.buffered(), 0u);
}

TEST(WireFrameTest, StreamingDecoderReportsHeaderDamage) {
  FrameDecoder dec;
  std::vector<uint8_t> garbage(64, 0xAB);
  dec.Feed(garbage.data(), garbage.size());
  auto next = dec.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, ErrorCode::kCorrupt);
}

TEST(WireFrameTest, OversizedLengthClaimIsCorruptNotAnAllocation) {
  ByteWriter w;
  w.PutU32(kWireMagic);
  w.PutU8(kWireVersion);
  w.PutU8(0);
  w.PutU32(kMaxFramePayload + 1);
  FrameDecoder dec;
  dec.Feed(w.buffer().data(), w.size());
  auto next = dec.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, ErrorCode::kCorrupt);
}

// --- fuzz/property: arbitrary bytes produce a value or an error, never a crash ---

TEST(WireFuzzTest, RandomBuffersNeverCrashTheDecoders) {
  Lcg rng(0xC0FFEE);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = rng.Next() % 256;
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    (void)DecodeRequestFrame(buf);
    (void)DecodeResponseFrame(buf);
    (void)DecodeRequestPayload(buf);
    (void)DecodeResponsePayload(buf);
    FrameDecoder dec;
    dec.Feed(buf.data(), buf.size());
    for (int i = 0; i < 8; ++i) {
      auto next = dec.Next();
      if (!next.ok() || !next.value().has_value()) {
        break;
      }
    }
  }
}

TEST(WireFuzzTest, SingleByteFlipsOfValidFramesFailCleanlyOrDecode) {
  Lcg rng(0xFACADE);
  for (const auto& [frame, kind] : ValidFrames()) {
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      std::vector<uint8_t> mutated = frame;
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Next() % 255);
      // A value, or an error from the decoders' taxonomy; never a crash.
      const ErrorCode code = DecodeAs(mutated, kind);
      EXPECT_TRUE(code == ErrorCode::kOk || code == ErrorCode::kCorrupt ||
                  code == ErrorCode::kUnsupported)
          << "kind " << static_cast<int>(kind) << " flip at " << pos << ": "
          << ErrorCodeName(code);
    }
  }
}

TEST(WireFuzzTest, RandomTruncationsOfValidPayloadsAreCorrupt) {
  ByteWriter w;
  EncodeResponse(SampleResponse(), w);
  const std::vector<uint8_t> payload = w.TakeBuffer();
  Lcg rng(0xBEEF);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t cut = rng.Next() % payload.size();
    std::vector<uint8_t> prefix(payload.begin(),
                                payload.begin() + static_cast<ptrdiff_t>(cut));
    auto decoded = DecodeResponsePayload(prefix);
    // Any strict prefix is missing at least the trailing stats varints.
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace hac
