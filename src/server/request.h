// Wire-less request/response model of the hacd service layer.
//
// Every client call is one ServerRequest. The service classifies each op as read or
// write (IsReadOp), and each class waits in its own bounded queue: read-class ops are
// drained by the reader threads and execute concurrently under a shared lock, and are
// guaranteed not to mutate shared HAC state (per-session descriptor state only);
// write-class ops are drained by the single-writer batching scheduler, which wraps
// each drained group in one ConsistencyEngine BatchScope so N concurrent writers pay
// one topological pass. Five bounded reads — Stat, Lstat, ReadLink, GetQuery, Seek —
// skip the read queue while no writer is pending and run under the shared lock on the
// submitting thread (HacService::SubmitCallback; the allow-list is fixed there).
//
// Classification table (see DESIGN.md "Service layer & threading model"):
//   read  — Ping, ReadDir, Search, Stat, Lstat, ReadFd, Seek, GetQuery,
//           GetLinkClasses, ReadLink, Stats, Chdir (session-local cwd), Introspect,
//           OpenCursor, FetchPage, CloseCursor (session-local cursor table; the
//           table has its own mutex because pipelined reads can overlap)
//   write — Open, Close, WriteFd, WriteFile, Mkdir, SMkdir, SetQuery, Unlink, Rmdir,
//           Rename, Symlink, PromoteLink, DemoteLink, Prohibit, Unprohibit, Reindex,
//           SSync, SAct, CloseSession, Checkpoint
// Notes: Open allocates in the shared descriptor tables (and may create the file), so
// it is a write even when opening read-only. SAct reads file content through the
// kernel descriptor table, which allocates a transient fd — write class for that
// reason alone. Seek and ReadFd only touch the session's own descriptor (its offset),
// which is safe under the shared lock because a session is driven by one client.
#ifndef HAC_SERVER_REQUEST_H_
#define HAC_SERVER_REQUEST_H_

#include <string>
#include <vector>

#include "src/core/hac_file_system.h"
#include "src/support/error.h"
#include "src/vfs/types.h"

namespace hac {

enum class ServerOp : uint8_t {
  // --- read class ---
  kPing = 0,
  kReadDir,
  kSearch,          // path = scope dir, aux = query text
  kStat,
  kLstat,
  kReadFd,          // fd = session fd, size = max bytes
  kSeek,            // fd = session fd, size = offset
  kGetQuery,
  kGetLinkClasses,
  kReadLink,
  kStats,
  kChdir,
  kIntrospect,      // aux = "stats" (default) or "trace"; resp.text = JSON.
                    // Read class, but exempt from admission control entirely: it
                    // reads only the process-global metrics registry and trace
                    // ring, so the service answers it even under overload
                    // (docs/API.md "Introspection").
  // --- write class ---
  kOpen,            // flags = OpenFlags; returns a session fd
  kClose,           // fd = session fd
  kWriteFd,         // fd = session fd, aux = bytes
  kWriteFile,       // aux = content (create/overwrite convenience)
  kMkdir,
  kSMkdir,          // aux = query
  kSetQuery,        // aux = query ("" reverts to syntactic)
  kUnlink,
  kRmdir,
  kRename,          // path = from, aux = to
  kSymlink,         // path = link path, aux = target (kept verbatim, may be relative)
  kPromoteLink,
  kDemoteLink,
  kProhibit,        // path = dir, aux = file
  kUnprohibit,      // path = dir, aux = file
  kReindex,
  kSSync,
  kSAct,            // path = link path
  kCloseSession,    // internal: emitted by HacService::CloseSession
  kCheckpoint,      // persist a durability checkpoint now (no-op without a data dir)
  // --- read class, appended after the write block (the numeric values are on the
  //     wire, so new ops can only go at the end; IsReadOp carves them back in) ---
  kOpenCursor,      // path = directory, aux = query ("" = plain enumeration);
                    // resp.fd = cursor id (docs/API.md "Cursor ops")
  kFetchPage,       // fd = cursor id, size = max entries (0 = server default);
                    // resp.entries or resp.paths, resp.size = 1 while more remain
  kCloseCursor,     // fd = cursor id
};

inline bool IsReadOp(ServerOp op) {
  return op < ServerOp::kOpen || op >= ServerOp::kOpenCursor;
}

// The highest assigned op. The wire codec and the docs_check gate iterate the enum
// through this bound; bump it when appending an op (append only — the numeric values
// are on the wire).
inline constexpr ServerOp kMaxServerOp = ServerOp::kCloseCursor;
inline constexpr size_t kServerOpCount = static_cast<size_t>(kMaxServerOp) + 1;

// Stable PascalCase identifier for each op, matching the classification table above
// and the docs/API.md op tables (docs_check cross-checks the two).
inline constexpr const char* kServerOpNames[kServerOpCount] = {
    "Ping",        "ReadDir",    "Search",     "Stat",        "Lstat",
    "ReadFd",      "Seek",       "GetQuery",   "GetLinkClasses", "ReadLink",
    "Stats",       "Chdir",      "Introspect", "Open",        "Close",
    "WriteFd",     "WriteFile",  "Mkdir",      "SMkdir",      "SetQuery",
    "Unlink",      "Rmdir",      "Rename",     "Symlink",     "PromoteLink",
    "DemoteLink",  "Prohibit",   "Unprohibit", "Reindex",     "SSync",
    "SAct",        "CloseSession", "Checkpoint", "OpenCursor",  "FetchPage",
    "CloseCursor",
};

inline const char* ServerOpName(ServerOp op) {
  const auto i = static_cast<size_t>(op);
  return i < kServerOpCount ? kServerOpNames[i] : "?";
}

struct ServerRequest {
  ServerOp op = ServerOp::kPing;
  std::string path;   // primary path operand (resolved against the session cwd)
  std::string aux;    // secondary operand: query / target / content (see ServerOp)
  Fd fd = -1;         // session-scoped descriptor operand
  uint64_t size = 0;  // byte count (kReadFd) or offset (kSeek)
  uint32_t flags = 0; // OpenFlags (kOpen)
};

// One response struct for every op; only the fields the op produces are filled.
struct ServerResponse {
  Error error;  // code == kOk on success

  std::vector<DirEntry> entries;   // kReadDir
  std::vector<std::string> paths;  // kSearch, kSAct
  std::string text;                // kReadFd / kGetQuery / kReadLink / kChdir (new cwd)
  Stat st;                         // kStat, kLstat
  Fd fd = -1;                      // kOpen (session fd)
  uint64_t size = 0;               // kWriteFd bytes written, kSeek resulting offset
  LinkClassView links;             // kGetLinkClasses
  StatsSnapshot stats;             // kStats

  bool ok() const { return error.code == ErrorCode::kOk; }
};

}  // namespace hac

#endif  // HAC_SERVER_REQUEST_H_
