#include "src/core/durability.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/support/serializer.h"
#include "src/support/trace.h"
#include "src/vfs/types.h"

namespace hac {

namespace fs_std = std::filesystem;

namespace {

constexpr uint32_t kCheckpointMagic = 0x4841434B;  // "HACK"
constexpr uint32_t kCheckpointVersion = 1;
constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".hacs";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".log";

Counter& WalAppendsCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityWalAppends);
  return c;
}
Counter& WalBytesCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityWalBytes);
  return c;
}
Counter& WalZeroFillBytesCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityWalZeroFillBytes);
  return c;
}
Counter& CheckpointsCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityCheckpoints);
  return c;
}
Counter& CheckpointBytesCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityCheckpointBytes);
  return c;
}
Counter& RecoveriesCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityRecoveries);
  return c;
}
Counter& ReplayedCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityReplayedRecords);
  return c;
}
Counter& CorruptFramesCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kDurabilityCorruptFrames);
  return c;
}
Histogram& FsyncHistogram() {
  static Histogram& h =
      MetricsRegistry::Global().GetHistogram(metric_names::kDurabilityFsyncUs, "us");
  return h;
}
Histogram& CheckpointHistogram() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      metric_names::kDurabilityCheckpointUs, "us");
  return h;
}
Histogram& CheckpointBuildHistogram() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      metric_names::kDurabilityCheckpointBuildUs, "us");
  return h;
}
Histogram& RecoveryHistogram() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      metric_names::kDurabilityRecoveryUs, "us");
  return h;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

std::string GenerationFileName(const char* prefix, uint64_t lsn, const char* suffix) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(lsn));
  return std::string(prefix) + hex + suffix;
}

Result<void> SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Error(ErrorCode::kNotFound, dir + ": " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Error(ErrorCode::kBusy, "fsync " + dir + ": " + std::strerror(errno));
  }
  return OkResult();
}

// Writes all `n` bytes at `offset`, retrying short writes.
Result<void> WriteAt(int fd, const uint8_t* data, size_t n, uint64_t offset) {
  while (n > 0) {
    ssize_t put = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error(ErrorCode::kBusy, std::string("pwrite: ") + std::strerror(errno));
    }
    data += put;
    n -= static_cast<size_t>(put);
    offset += static_cast<uint64_t>(put);
  }
  return OkResult();
}

// The encoded size of the frame at the front of `data`: its 8-byte header plus the
// payload length the header declares (or all of `n`, for a header cut short).
size_t FrameSize(const uint8_t* data, size_t n) {
  if (n < 8) {
    return n;
  }
  return 8 + size_t{ByteReader(data, 4).GetU32().value()};
}

// One fstat and, normally, one read: recovery reads whole images and segments.
Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Error(ErrorCode::kNotFound, path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Error(ErrorCode::kNotFound, path + ": " + std::strerror(err));
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < bytes.size()) {
    ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return Error(ErrorCode::kBusy, "read " + path + ": " + std::strerror(err));
    }
    if (n == 0) {
      break;  // the file shrank since the fstat
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  // Slicing-by-8: kTables[k][b] is byte b's contribution to the CRC once k more
  // bytes follow it, so eight bytes cost eight independent lookups rather than a
  // chain of eight dependent ones.
  static const std::array<std::array<uint32_t, 256>, 8> kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  const auto& t = kTables;
  auto le32 = [](const uint8_t* p) {
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
           uint32_t{p[3]} << 24;
  };
  uint32_t crc = ~seed;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = le32(data) ^ crc;
    const uint32_t hi = le32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

FaultSpec FaultSpec::Parse(const std::string& spec) {
  FaultSpec out;
  size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    return out;
  }
  std::string kind = spec.substr(0, colon);
  out.at_write = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
  if (kind == "crash_after") {
    out.kind = Kind::kCrashAfter;
  } else if (kind == "torn") {
    out.kind = Kind::kTorn;
  } else if (kind == "bitflip") {
    out.kind = Kind::kBitFlip;
  }
  return out;
}

// ---------------------------------------------------------------------------
// RealFile
// ---------------------------------------------------------------------------

Result<std::unique_ptr<RealFile>> RealFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Error(ErrorCode::kNotFound, path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<RealFile>(new RealFile(fd));
}

RealFile::~RealFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<void> RealFile::Append(const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t put = ::write(fd_, p, n);
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error(ErrorCode::kBusy, std::string("write: ") + std::strerror(errno));
    }
    p += put;
    n -= static_cast<size_t>(put);
  }
  return OkResult();
}

Result<void> RealFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Error(ErrorCode::kBusy, std::string("fsync: ") + std::strerror(errno));
  }
  return OkResult();
}

// ---------------------------------------------------------------------------
// WalSegmentFile
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WalSegmentFile>> WalSegmentFile::Open(const std::string& path,
                                                             uint64_t offset) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return Error(ErrorCode::kNotFound, path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Error(ErrorCode::kNotFound, path + ": " + std::strerror(err));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  return std::unique_ptr<WalSegmentFile>(
      new WalSegmentFile(fd, offset, std::max(size, offset)));
}

WalSegmentFile::~WalSegmentFile() { ::close(fd_); }

Result<void> WalSegmentFile::Append(const void* data, size_t n) {
  const uint64_t end = offset_ + n;
  if (end > zeroed_end_) {
    // Zeros to the next whole chunk past `end`, written rather than allocated: an
    // unwritten extent would need a journal commit again when the frames land.
    static const std::array<uint8_t, 64 << 10> kZeros{};
    const uint64_t fill_to = (end + kFillChunk - 1) / kFillChunk * kFillChunk;
    for (uint64_t at = zeroed_end_; at < fill_to;) {
      const size_t part = static_cast<size_t>(std::min<uint64_t>(kZeros.size(), fill_to - at));
      HAC_RETURN_IF_ERROR(WriteAt(fd_, kZeros.data(), part, at));
      at += part;
    }
    WalZeroFillBytesCounter().Inc(fill_to - zeroed_end_);
    zeroed_end_ = fill_to;
  }
  HAC_RETURN_IF_ERROR(WriteAt(fd_, static_cast<const uint8_t*>(data), n, offset_));
  offset_ = end;
  return OkResult();
}

Result<void> WalSegmentFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Error(ErrorCode::kBusy, std::string("fdatasync: ") + std::strerror(errno));
  }
  return OkResult();
}

// ---------------------------------------------------------------------------
// FaultyFile
// ---------------------------------------------------------------------------

FaultyFile::FaultyFile(std::unique_ptr<DurableFile> disk, std::string path,
                       FaultSpec fault)
    : disk_(std::move(disk)), path_(std::move(path)), fault_(fault) {}

Result<void> FaultyFile::FlushToDisk(const uint8_t* data, size_t n) {
  if (n > 0) {
    HAC_RETURN_IF_ERROR(disk_->Append(data, n));
  }
  return disk_->Sync();
}

Result<void> FaultyFile::Append(const void* data, size_t n) {
  // A commit appends all its frames at once; a fault's N counts frames.
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const size_t frame = std::min(n, FrameSize(bytes, n));
    HAC_RETURN_IF_ERROR(AppendFrame(bytes, frame));
    bytes += frame;
    n -= frame;
  }
  return OkResult();
}

Result<void> FaultyFile::AppendFrame(const uint8_t* bytes, size_t n) {
  if (dead_) {
    return OkResult();  // the modelled process is gone; nothing observes this write
  }
  ++frames_;
  if (fault_.kind == FaultSpec::Kind::kTorn && frames_ == fault_.at_write) {
    // The kernel flushed everything buffered plus half of this frame, then the
    // machine died: the log ends in a torn frame.
    std::vector<uint8_t> torn(unsynced_);
    torn.insert(torn.end(), bytes, bytes + n / 2);
    HAC_RETURN_IF_ERROR(FlushToDisk(torn.data(), torn.size()));
    unsynced_.clear();
    dead_ = true;
    return OkResult();
  }
  unsynced_.insert(unsynced_.end(), bytes, bytes + n);
  if (fault_.kind == FaultSpec::Kind::kBitFlip && frames_ == fault_.at_write &&
      !unsynced_.empty()) {
    // Silent media corruption: one bit of the just-buffered frame flips and the
    // write path never notices — only the CRC check at recovery does.
    unsynced_[unsynced_.size() - 1 - n / 2] ^= 0x10;
  }
  if (fault_.kind == FaultSpec::Kind::kCrashAfter && frames_ >= fault_.at_write) {
    // Crash before the fsync: the buffered ("page cache") suffix is lost.
    unsynced_.clear();
    dead_ = true;
  }
  return OkResult();
}

Result<void> FaultyFile::Sync() {
  if (dead_) {
    return Error(ErrorCode::kBusy, "wal: injected crash (" + path_ + ")");
  }
  HAC_RETURN_IF_ERROR(FlushToDisk(unsynced_.data(), unsynced_.size()));
  unsynced_.clear();
  return OkResult();
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

void DurableStore::EncodeFrame(uint64_t lsn, const JournalRecord& rec,
                               std::vector<uint8_t>& out) {
  ByteWriter payload;
  payload.PutVarint(lsn);
  EncodeJournalRecord(rec.op, rec.subject, rec.a, rec.b, payload);
  const std::vector<uint8_t>& body = payload.buffer();
  ByteWriter header;
  header.PutU32(static_cast<uint32_t>(body.size()));
  header.PutU32(Crc32(body.data(), body.size()));
  out.insert(out.end(), header.buffer().begin(), header.buffer().end());
  out.insert(out.end(), body.begin(), body.end());
}

std::vector<DurableStore::DecodedFrame> DurableStore::DecodeFrames(
    const std::vector<uint8_t>& bytes, bool* truncated, std::string* detail) {
  std::vector<DecodedFrame> out;
  if (truncated != nullptr) {
    *truncated = false;
  }
  auto stop = [&](const std::string& why) {
    if (truncated != nullptr) {
      *truncated = true;
    }
    if (detail != nullptr) {
      *detail = why;
    }
    CorruptFramesCounter().Inc();
  };
  // Each frame's CRC is checked over its body where it lies in `bytes`.
  const uint8_t* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    // The zeros a segment is filled with ahead of its frames: a clean end. A frame's
    // length is never 0, so at a frame this check ends within its first four bytes.
    if (std::all_of(p, p + left, [](uint8_t b) { return b == 0; })) {
      break;
    }
    if (left < 8) {
      stop("torn frame header (" + std::to_string(left) + " trailing bytes)");
      break;
    }
    ByteReader header(p, 8);
    const uint32_t len = header.GetU32().value();
    const uint32_t crc = header.GetU32().value();
    p += 8;
    left -= 8;
    if (len > left) {
      stop("truncated frame body (want " + std::to_string(len) + " bytes, have " +
           std::to_string(left) + ")");
      break;
    }
    if (Crc32(p, len) != crc) {
      stop("crc mismatch at frame " + std::to_string(out.size()));
      break;
    }
    ByteReader b(p, len);
    DecodedFrame frame;
    auto lsn = b.GetVarint();
    if (!lsn.ok() || !DecodeJournalRecord(b, frame.record).ok()) {
      stop("malformed frame payload at frame " + std::to_string(out.size()));
      break;
    }
    frame.lsn = lsn.value();
    frame.bytes = 8 + uint64_t{len};
    out.push_back(std::move(frame));
    p += len;
    left -= len;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

Result<void> DurableStore::ApplyRecord(HacFileSystem& fs, const JournalRecord& rec) {
  switch (rec.op) {
    case JournalOp::kDirCreated: {
      Result<void> s = fs.Mkdir(rec.a);
      if (!s.ok() && s.code() == ErrorCode::kAlreadyExists) {
        return OkResult();
      }
      return s;
    }
    case JournalOp::kDirRemoved:
      return fs.Rmdir(rec.a);
    case JournalOp::kFileRegistered: {
      HAC_ASSIGN_OR_RETURN(Fd fd, fs.Open(rec.a, kOpenWrite | kOpenCreate));
      return fs.Close(fd);
    }
    case JournalOp::kQuerySet:
      return fs.SetQuery(rec.a, rec.b);
    case JournalOp::kRename:
      return fs.Rename(rec.a, rec.b);
    case JournalOp::kFileWritten: {
      HAC_ASSIGN_OR_RETURN(Fd fd, fs.Open(rec.a, kOpenWrite | kOpenCreate));
      Result<uint64_t> seek = fs.Seek(fd, rec.subject);
      Result<size_t> put =
          seek.ok() ? fs.Write(fd, rec.b.data(), rec.b.size()) : Result<size_t>(seek.error());
      HAC_RETURN_IF_ERROR(fs.Close(fd));
      if (!put.ok()) {
        return put.error();
      }
      return OkResult();
    }
    case JournalOp::kFileTruncated: {
      HAC_ASSIGN_OR_RETURN(Fd fd, fs.Open(rec.a, kOpenWrite | kOpenTruncate));
      return fs.Close(fd);
    }
    case JournalOp::kUnlinked:
      return fs.Unlink(rec.a);
    case JournalOp::kSymlinked:
      return fs.Symlink(rec.b, rec.a);
    case JournalOp::kLinkPromoted:
      return fs.PromoteLink(rec.a);
    case JournalOp::kLinkDemoted:
      return fs.DemoteLink(rec.a);
    case JournalOp::kProhibitAdded:
      return fs.Prohibit(rec.a, rec.b);
    case JournalOp::kProhibitCleared:
      return fs.Unprohibit(rec.a, rec.b);
    case JournalOp::kFileDeactivated:
    case JournalOp::kLinkAdded:
    case JournalOp::kLinkRemoved:
    case JournalOp::kMount:
    case JournalOp::kUnmount:
      return OkResult();  // bookkeeping echo: replay re-derives this state
  }
  return OkResult();
}

// ---------------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------------

DurableStore::DurableStore(DurabilityOptions options) : options_(std::move(options)) {}

DurableStore::~DurableStore() { (void)WaitCheckpoint(); }

Result<std::unique_ptr<DurableStore>> DurableStore::Open(DurabilityOptions options) {
  if (options.data_dir.empty()) {
    return Error(ErrorCode::kInvalidArgument, "durability needs a data_dir");
  }
  std::error_code ec;
  fs_std::create_directories(options.data_dir, ec);
  if (ec) {
    return Error(ErrorCode::kInvalidArgument,
                 options.data_dir + ": " + ec.message());
  }
  return std::unique_ptr<DurableStore>(new DurableStore(std::move(options)));
}

std::vector<std::pair<uint64_t, std::string>> DurableStore::ListGeneration(
    const std::string& prefix, const std::string& suffix) const {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : fs_std::directory_iterator(options_.data_dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() != prefix.size() + 16 + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    uint64_t lsn = std::strtoull(name.c_str() + prefix.size(), nullptr, 16);
    out.emplace_back(lsn, entry.path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

Result<void> DurableStore::OpenWalSegment(uint64_t start_lsn, uint64_t offset) {
  wal_start_lsn_ = start_lsn;
  wal_path_ = (fs_std::path(options_.data_dir) /
               GenerationFileName(kWalPrefix, start_lsn, kWalSuffix))
                  .string();
  HAC_ASSIGN_OR_RETURN(std::unique_ptr<WalSegmentFile> f,
                       WalSegmentFile::Open(wal_path_, offset));
  if (options_.wal_fault.active()) {
    wal_ = std::make_unique<FaultyFile>(std::move(f), wal_path_, options_.wal_fault);
  } else {
    wal_ = std::move(f);
  }
  return OkResult();
}

Result<std::unique_ptr<HacFileSystem>> DurableStore::Recover(HacOptions fs_options) {
  const auto started = std::chrono::steady_clock::now();
  recovery_ = RecoveryInfo{};

  // 1. Newest checkpoint that validates end to end; older generations are the
  // fallback for a checkpoint torn mid-write (its rename never happened, or the
  // image fails its CRC).
  std::unique_ptr<HacFileSystem> fs;
  uint64_t image_bytes = 0;
  for (const auto& [lsn, path] : ListGeneration(kCheckpointPrefix, kCheckpointSuffix)) {
    auto bytes = ReadWholeFile(path);
    if (!bytes.ok()) {
      continue;
    }
    ByteReader r(bytes.value());
    auto magic = r.GetU32();
    auto version = r.GetU32();
    auto cp_lsn = r.GetU64();
    auto crc = r.GetU32();
    auto len = r.GetVarint();
    if (!magic.ok() || magic.value() != kCheckpointMagic || !version.ok() ||
        version.value() != kCheckpointVersion || !cp_lsn.ok() || !crc.ok() ||
        !len.ok() || len.value() != r.remaining()) {
      CorruptFramesCounter().Inc();
      continue;
    }
    std::vector<uint8_t> image(len.value());
    if (!r.GetBytes(image.data(), image.size()).ok() ||
        Crc32(image.data(), image.size()) != crc.value()) {
      CorruptFramesCounter().Inc();
      continue;
    }
    auto loaded = HacFileSystem::LoadState(image, fs_options);
    if (!loaded.ok()) {
      CorruptFramesCounter().Inc();
      continue;
    }
    fs = std::move(loaded).value();
    image_bytes = image.size();
    recovery_.checkpoint_lsn = cp_lsn.value();
    recovery_.checkpoint_file = path;
    break;
  }
  if (fs == nullptr) {
    fs = std::make_unique<HacFileSystem>(fs_options);
  }

  // 2. Replay the log tail in segment order, skipping frames the checkpoint
  // already covers, stopping at the first invalid frame. A segment that stops
  // early is repaired to its valid prefix and everything after it is dropped, so
  // post-recovery appends never hide behind a corrupt frame.
  auto segments = ListGeneration(kWalPrefix, kWalSuffix);
  std::sort(segments.begin(), segments.end());  // ascending for replay
  uint64_t max_lsn = recovery_.checkpoint_lsn;
  uint64_t tail_bytes = 0;
  bool stopped = false;
  // Writing resumes in the newest segment read, right after its last valid frame,
  // or in a fresh segment named after the image when none is newer.
  uint64_t resume_lsn = recovery_.checkpoint_lsn;
  uint64_t resume_offset = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [seg_lsn, seg_path] = segments[i];
    if (stopped) {
      std::error_code ec;
      fs_std::remove(seg_path, ec);
      continue;
    }
    // A segment holds no frame above the next segment's start (the rotation that
    // named the next one happened at the last LSN written), so when that start is
    // at or below the image's LSN the image covers the whole segment. It stays on
    // disk for the older retained image but is not read: a damaged frame in it
    // would otherwise stop the scan and drop the segments the image needs.
    if (i + 1 < segments.size() && segments[i + 1].first <= recovery_.checkpoint_lsn) {
      ++recovery_.skipped_segments;
      continue;
    }
    auto bytes = ReadWholeFile(seg_path);
    if (!bytes.ok()) {
      return bytes.error();  // neither replay nor the next append can skip it
    }
    bool truncated = false;
    std::string detail;
    std::vector<DecodedFrame> frames = DecodeFrames(bytes.value(), &truncated, &detail);
    uint64_t frames_end = 0;
    for (const DecodedFrame& frame : frames) {
      frames_end += frame.bytes;
      max_lsn = std::max(max_lsn, frame.lsn);
      if (frame.lsn <= recovery_.checkpoint_lsn) {
        continue;
      }
      tail_bytes += frame.bytes;
      Result<void> applied = ApplyRecord(*fs, frame.record);
      if (applied.ok()) {
        ++recovery_.replayed_records;
      } else {
        ++recovery_.replay_errors;
      }
    }
    if (seg_lsn >= resume_lsn) {
      resume_lsn = seg_lsn;
      resume_offset = frames_end;
    }
    if (truncated) {
      stopped = true;
      recovery_.tail_truncated = true;
      recovery_.detail = seg_path + ": " + detail;
      // Rewrite the segment as its valid prefix (frames re-encode byte-identically).
      std::vector<uint8_t> repaired;
      for (const DecodedFrame& frame : frames) {
        EncodeFrame(frame.lsn, frame.record, repaired);
      }
      std::error_code ec;
      fs_std::remove(seg_path, ec);
      auto f = RealFile::Open(seg_path);
      if (f.ok()) {
        (void)f.value()->Append(repaired.data(), repaired.size());
        (void)f.value()->Sync();
      }
    }
  }

  // 3. Settle data consistency, then discard the bookkeeping the replay itself
  // journalled — those mutations are already in the log.
  if (recovery_.replayed_records > 0) {
    HAC_RETURN_IF_ERROR(fs->Reindex());
  }
  (void)fs->DrainJournal();

  last_lsn_ = max_lsn;
  last_checkpoint_lsn_ = recovery_.checkpoint_lsn;
  records_since_checkpoint_ = recovery_.replayed_records;
  // The replayed tail still counts against the policy: the next image retires it.
  bytes_since_checkpoint_ = tail_bytes;
  last_image_bytes_ = image_bytes;
  HAC_RETURN_IF_ERROR(OpenWalSegment(resume_lsn, resume_offset));

  RecoveriesCounter().Inc();
  ReplayedCounter().Inc(recovery_.replayed_records);
  RecoveryHistogram().Record(ElapsedUs(started));
  return fs;
}

Result<void> DurableStore::CommitFrom(HacFileSystem& fs) {
  if (wal_ == nullptr) {
    HAC_RETURN_IF_ERROR(OpenWalSegment(last_checkpoint_lsn_, 0));
  }
  TraceSpan span(metric_names::kSpanDurabilityWalCommit);
  std::vector<JournalRecord> records = fs.DrainJournal();
  uint64_t appended = 0;
  std::vector<uint8_t> frames;
  for (const JournalRecord& rec : records) {
    if (!IsReplayableOp(rec.op)) {
      continue;
    }
    EncodeFrame(++last_lsn_, rec, frames);
    ++appended;
  }
  const uint64_t bytes = frames.size();
  span.Arg("records", appended);
  span.Arg("bytes", bytes);
  span.Arg("lsn", last_lsn_);
  if (appended == 0) {
    return OkResult();  // read-only batch: no fsync needed
  }
  HAC_RETURN_IF_ERROR(wal_->Append(frames.data(), frames.size()));
  const auto fsync_started = std::chrono::steady_clock::now();
  HAC_RETURN_IF_ERROR(wal_->Sync());
  FsyncHistogram().Record(ElapsedUs(fsync_started));
  WalAppendsCounter().Inc(appended);
  WalBytesCounter().Inc(bytes);
  records_since_checkpoint_ += appended;
  bytes_since_checkpoint_ += bytes;
  return OkResult();
}

// The byte trigger is relative to the last image, at a fixed ratio of 1. At ratio r
// each image retires r images' worth of WAL: image bytes per WAL byte are 1/r, while
// the tail recovery replays and the disk the directory holds grow with r. At 1
// neither exceeds the other: a checkpoint never writes more than the log it retires,
// and recovery never replays more log than one image holds. The floor keeps small
// images from checkpointing every few records.
bool DurableStore::ShouldCheckpoint() const {
  if (options_.checkpoint_interval_records != 0 &&
      records_since_checkpoint_ >= options_.checkpoint_interval_records) {
    return true;
  }
  return options_.checkpoint_interval_bytes != 0 &&
         bytes_since_checkpoint_ >=
             std::max(options_.checkpoint_interval_bytes, last_image_bytes_);
}

Result<void> DurableStore::BeginCheckpoint(const HacFileSystem& fs) {
  (void)WaitCheckpoint();  // at most one publication in flight
  const auto started = std::chrono::steady_clock::now();
  TraceSpan span(metric_names::kSpanDurabilityCheckpointBuild);
  std::vector<uint8_t> image = fs.SaveState();
  const uint64_t lsn = last_lsn_;
  span.Arg("lsn", lsn);
  span.Arg("bytes", image.size());
  // Rotate the log: frames after this image land in a fresh segment. The old
  // segments stay until the image is published (Publish prunes), so a crash before
  // the rename recovers from the previous image plus every segment since.
  HAC_RETURN_IF_ERROR(OpenWalSegment(lsn, 0));
  last_checkpoint_lsn_ = lsn;
  records_since_checkpoint_ = 0;
  bytes_since_checkpoint_ = 0;
  last_image_bytes_ = image.size();
  CheckpointBuildHistogram().Record(ElapsedUs(started));

  image_ = std::move(image);
  publishing_.store(true, std::memory_order_release);
  const auto publish = [this, lsn, started] {
    Result<void> published = Publish(std::move(image_), lsn);
    if (published.ok()) {
      CheckpointsCounter().Inc();
      CheckpointHistogram().Record(ElapsedUs(started));
    }
    publish_status_ = std::move(published);
    publishing_.store(false, std::memory_order_release);
  };
  try {
    publisher_ = std::thread(publish);
  } catch (const std::system_error&) {
    publish();  // no thread to be had (EAGAIN): publish on the caller's thread
  }
  return OkResult();
}

Result<void> DurableStore::WaitCheckpoint() {
  if (publisher_.joinable()) {
    publisher_.join();
  }
  Result<void> status = std::move(publish_status_);
  publish_status_ = OkResult();
  return status;
}

Result<void> DurableStore::Checkpoint(const HacFileSystem& fs) {
  HAC_RETURN_IF_ERROR(BeginCheckpoint(fs));
  return WaitCheckpoint();
}

Result<void> DurableStore::Publish(std::vector<uint8_t> image, uint64_t lsn) {
  TraceSpan span(metric_names::kSpanDurabilityCheckpointPublish);
  span.Arg("lsn", lsn);
  span.Arg("bytes", image.size());
  ByteWriter header;
  header.PutU32(kCheckpointMagic);
  header.PutU32(kCheckpointVersion);
  header.PutU64(lsn);
  header.PutU32(Crc32(image.data(), image.size()));
  header.PutVarint(image.size());
  const uint64_t file_bytes = header.buffer().size() + image.size();

  // Write-temp, fsync, rename, fsync-dir: readers only ever see a complete image
  // under the final name. The temp file stays a RealFile even under fault
  // injection — the crash matrix injects checkpoint damage separately.
  const std::string final_path =
      (fs_std::path(options_.data_dir) /
       GenerationFileName(kCheckpointPrefix, lsn, kCheckpointSuffix))
          .string();
  const std::string tmp_path = final_path + ".tmp";
  {
    // A crash may have left a partial temp file for this LSN; RealFile appends.
    std::error_code ec;
    fs_std::remove(tmp_path, ec);
    HAC_ASSIGN_OR_RETURN(std::unique_ptr<RealFile> f, RealFile::Open(tmp_path));
    HAC_RETURN_IF_ERROR(f->Append(header.buffer().data(), header.buffer().size()));
    HAC_RETURN_IF_ERROR(f->Append(image.data(), image.size()));
    std::vector<uint8_t>().swap(image);  // the bytes are the kernel's now
    HAC_RETURN_IF_ERROR(f->Sync());
  }
  std::error_code ec;
  fs_std::rename(tmp_path, final_path, ec);
  if (ec) {
    return Error(ErrorCode::kBusy, "rename " + tmp_path + ": " + ec.message());
  }
  HAC_RETURN_IF_ERROR(SyncDirectory(options_.data_dir));
  CheckpointBytesCounter().Inc(file_bytes);
  return PruneGenerations();
}

Result<void> DurableStore::PruneGenerations() {
  // Keep the two newest checkpoints; everything the older of the two no longer
  // needs — older checkpoints, and WAL segments fully covered by it — goes.
  auto checkpoints = ListGeneration(kCheckpointPrefix, kCheckpointSuffix);
  if (checkpoints.size() < 2) {
    return OkResult();
  }
  const uint64_t keep_from = checkpoints[1].first;  // older retained generation
  std::error_code ec;
  for (size_t i = 2; i < checkpoints.size(); ++i) {
    fs_std::remove(checkpoints[i].second, ec);
  }
  for (const auto& [seg_lsn, seg_path] : ListGeneration(kWalPrefix, kWalSuffix)) {
    if (seg_lsn < keep_from) {
      fs_std::remove(seg_path, ec);
    }
  }
  return OkResult();
}

}  // namespace hac
