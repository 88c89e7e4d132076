// ClientApi: the typed client surface of the hacd service, independent of how the
// calls reach it. Two implementations ship:
//
//   * ServiceClient (client.h)      — in-process: calls HacService::Submit directly.
//   * RemoteServiceClient (tcp_client.h) — over the versioned wire protocol on TCP.
//
// The two are interchangeable: tests/server/client_contract_test.cc runs the same
// behavioral suite over both, so anything written against ClientApi works unchanged
// in-process or across the network. Implementations are synchronous and must be
// driven from one thread at a time (the session contract); create one client per
// concurrent caller.
#ifndef HAC_SERVER_CLIENT_API_H_
#define HAC_SERVER_CLIENT_API_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/hac_file_system.h"
#include "src/server/request.h"
#include "src/support/result.h"
#include "src/vfs/types.h"

namespace hac {

// One page pulled from a server-side cursor (docs/API.md "Cursor ops").
// Directory cursors fill `entries`; search cursors fill `paths`.
struct CursorPage {
  std::vector<DirEntry> entries;
  std::vector<std::string> paths;
  bool has_more = false;
};

class ClientApi {
 public:
  virtual ~ClientApi() = default;

  // --- ordinary operations ---
  virtual Result<std::vector<DirEntry>> ReadDir(const std::string& path) = 0;
  virtual Result<Stat> StatPath(const std::string& path) = 0;
  virtual Result<Stat> LstatPath(const std::string& path) = 0;
  virtual Result<Fd> Open(const std::string& path, uint32_t flags) = 0;
  virtual Result<void> Close(Fd fd) = 0;
  virtual Result<std::string> Read(Fd fd, size_t max_bytes) = 0;
  virtual Result<uint64_t> Seek(Fd fd, uint64_t offset) = 0;
  virtual Result<size_t> Write(Fd fd, const std::string& bytes) = 0;
  virtual Result<void> WriteFile(const std::string& path,
                                 const std::string& content) = 0;
  virtual Result<void> Mkdir(const std::string& path) = 0;
  virtual Result<void> Unlink(const std::string& path) = 0;
  virtual Result<void> Rmdir(const std::string& path) = 0;
  virtual Result<void> Rename(const std::string& from, const std::string& to) = 0;
  virtual Result<void> Symlink(const std::string& target,
                               const std::string& link_path) = 0;
  virtual Result<std::string> ReadLink(const std::string& path) = 0;
  virtual Result<std::string> Chdir(const std::string& path) = 0;  // returns new cwd

  // --- semantic operations ---
  virtual Result<void> SMkdir(const std::string& path, const std::string& query) = 0;
  virtual Result<void> SetQuery(const std::string& path, const std::string& query) = 0;
  virtual Result<std::string> GetQuery(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> Search(const std::string& query,
                                                  const std::string& scope_dir = "/") = 0;
  virtual Result<LinkClassView> GetLinkClasses(const std::string& dir_path) = 0;
  virtual Result<void> PromoteLink(const std::string& link_path) = 0;
  virtual Result<void> DemoteLink(const std::string& link_path) = 0;
  virtual Result<void> Prohibit(const std::string& dir_path,
                                const std::string& file_path) = 0;
  virtual Result<void> Unprohibit(const std::string& dir_path,
                                  const std::string& file_path) = 0;
  virtual Result<void> Reindex() = 0;
  virtual Result<void> SSync(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> SAct(const std::string& link_path) = 0;

  // --- server-side cursors (streaming reads; docs/API.md "Cursor ops") ---
  // Opens a cursor over `path`: with an empty `query`, a paged directory
  // enumeration; otherwise a paged search scoped to that directory. The returned
  // id lives in the session's cursor table until CloseCursor, a fetch error
  // (every fetch failure auto-closes server-side), or the idle sweep harvests it.
  virtual Result<Fd> OpenCursor(const std::string& path,
                                const std::string& query = "") = 0;
  // Pulls the next page (max_entries 0 = server default), resuming strictly after
  // the last entry delivered: writes between pages never fail a cursor, an entry
  // present for the whole drain arrives exactly once, and entries added or removed
  // meanwhile may or may not appear. has_more=false means the cursor is exhausted
  // but still open (a final CloseCursor is still the caller's job).
  virtual Result<CursorPage> FetchPage(Fd cursor, size_t max_entries = 0) = 0;
  virtual Result<void> CloseCursor(Fd cursor) = 0;

  // Convenience loops over the cursor ops (implemented here once, so the two
  // transports cannot drift): stream the full result page by page, bounding peak
  // frame size instead of materializing one monolithic response.
  Result<std::vector<DirEntry>> ReadDirPaged(const std::string& path,
                                             size_t page_size = 0);
  Result<std::vector<std::string>> SearchPaged(const std::string& query,
                                               const std::string& scope_dir = "/",
                                               size_t page_size = 0);

  // Persist a durability checkpoint now (docs/DURABILITY.md). Succeeds as a no-op
  // when the service runs without a data directory.
  virtual Result<void> Checkpoint() = 0;

  virtual StatsSnapshot Stats() = 0;

  // Process-global observability snapshot as JSON (docs/API.md "Introspection").
  // `what` is "stats" (metrics registry) or "trace" (Chrome trace_event dump).
  virtual Result<std::string> Introspect(const std::string& what = "stats") = 0;
};

// Implements the entire typed surface in terms of one transport hook: a request
// goes out, a response comes back, and the mapping between the two is identical
// whether the transport is a function call or a TCP round-trip. Concrete clients
// override only Transport().
class RequestClient : public ClientApi {
 public:
  Result<std::vector<DirEntry>> ReadDir(const std::string& path) override;
  Result<Stat> StatPath(const std::string& path) override;
  Result<Stat> LstatPath(const std::string& path) override;
  Result<Fd> Open(const std::string& path, uint32_t flags) override;
  Result<void> Close(Fd fd) override;
  Result<std::string> Read(Fd fd, size_t max_bytes) override;
  Result<uint64_t> Seek(Fd fd, uint64_t offset) override;
  Result<size_t> Write(Fd fd, const std::string& bytes) override;
  Result<void> WriteFile(const std::string& path, const std::string& content) override;
  Result<void> Mkdir(const std::string& path) override;
  Result<void> Unlink(const std::string& path) override;
  Result<void> Rmdir(const std::string& path) override;
  Result<void> Rename(const std::string& from, const std::string& to) override;
  Result<void> Symlink(const std::string& target,
                       const std::string& link_path) override;
  Result<std::string> ReadLink(const std::string& path) override;
  Result<std::string> Chdir(const std::string& path) override;
  Result<void> SMkdir(const std::string& path, const std::string& query) override;
  Result<void> SetQuery(const std::string& path, const std::string& query) override;
  Result<std::string> GetQuery(const std::string& path) override;
  Result<std::vector<std::string>> Search(const std::string& query,
                                          const std::string& scope_dir = "/") override;
  Result<LinkClassView> GetLinkClasses(const std::string& dir_path) override;
  Result<void> PromoteLink(const std::string& link_path) override;
  Result<void> DemoteLink(const std::string& link_path) override;
  Result<void> Prohibit(const std::string& dir_path,
                        const std::string& file_path) override;
  Result<void> Unprohibit(const std::string& dir_path,
                          const std::string& file_path) override;
  Result<void> Reindex() override;
  Result<void> SSync(const std::string& path) override;
  Result<std::vector<std::string>> SAct(const std::string& link_path) override;
  Result<Fd> OpenCursor(const std::string& path,
                        const std::string& query = "") override;
  Result<CursorPage> FetchPage(Fd cursor, size_t max_entries = 0) override;
  Result<void> CloseCursor(Fd cursor) override;
  Result<void> Checkpoint() override;
  StatsSnapshot Stats() override;
  Result<std::string> Introspect(const std::string& what = "stats") override;

 protected:
  // One request/response exchange. Implementations report transport-level failures
  // through ServerResponse::error (see docs/API.md "Error transport").
  virtual ServerResponse Transport(ServerRequest req) = 0;

 private:
  ServerResponse Call(ServerRequest req) { return Transport(std::move(req)); }
  Result<void> VoidCall(ServerRequest req);
};

}  // namespace hac

#endif  // HAC_SERVER_CLIENT_API_H_
