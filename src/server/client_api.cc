#include "src/server/client_api.h"

#include <utility>

namespace hac {

Result<std::vector<DirEntry>> ClientApi::ReadDirPaged(const std::string& path,
                                                      size_t page_size) {
  auto cursor = OpenCursor(path);
  if (!cursor.ok()) {
    return cursor.error();
  }
  std::vector<DirEntry> out;
  for (;;) {
    auto page = FetchPage(cursor.value(), page_size);
    if (!page.ok()) {
      // A failed fetch auto-closes the cursor server-side; don't close again.
      return page.error();
    }
    for (auto& e : page.value().entries) {
      out.push_back(std::move(e));
    }
    if (!page.value().has_more) {
      break;
    }
  }
  auto closed = CloseCursor(cursor.value());
  if (!closed.ok()) {
    return closed.error();
  }
  return out;
}

Result<std::vector<std::string>> ClientApi::SearchPaged(const std::string& query,
                                                        const std::string& scope_dir,
                                                        size_t page_size) {
  auto cursor = OpenCursor(scope_dir, query);
  if (!cursor.ok()) {
    return cursor.error();
  }
  std::vector<std::string> out;
  for (;;) {
    auto page = FetchPage(cursor.value(), page_size);
    if (!page.ok()) {
      return page.error();
    }
    for (auto& p : page.value().paths) {
      out.push_back(std::move(p));
    }
    if (!page.value().has_more) {
      break;
    }
  }
  auto closed = CloseCursor(cursor.value());
  if (!closed.ok()) {
    return closed.error();
  }
  return out;
}

Result<void> ClientApi::VoidCall(ServerRequest req) {
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return OkResult();
}

Result<std::vector<DirEntry>> ClientApi::ReadDir(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kReadDir;
  req.path = path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.entries);
}

Result<Stat> ClientApi::StatPath(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kStat;
  req.path = path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return resp.st;
}

Result<Stat> ClientApi::LstatPath(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kLstat;
  req.path = path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return resp.st;
}

Result<Fd> ClientApi::Open(const std::string& path, uint32_t flags) {
  ServerRequest req;
  req.op = ServerOp::kOpen;
  req.path = path;
  req.flags = flags;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return resp.fd;
}

Result<void> ClientApi::Close(Fd fd) {
  ServerRequest req;
  req.op = ServerOp::kClose;
  req.fd = fd;
  return VoidCall(std::move(req));
}

Result<std::string> ClientApi::Read(Fd fd, size_t max_bytes) {
  ServerRequest req;
  req.op = ServerOp::kReadFd;
  req.fd = fd;
  req.size = max_bytes;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.text);
}

Result<uint64_t> ClientApi::Seek(Fd fd, uint64_t offset) {
  ServerRequest req;
  req.op = ServerOp::kSeek;
  req.fd = fd;
  req.size = offset;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return resp.size;
}

Result<size_t> ClientApi::Write(Fd fd, const std::string& bytes) {
  ServerRequest req;
  req.op = ServerOp::kWriteFd;
  req.fd = fd;
  req.aux = bytes;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return static_cast<size_t>(resp.size);
}

Result<void> ClientApi::WriteFile(const std::string& path,
                                      const std::string& content) {
  ServerRequest req;
  req.op = ServerOp::kWriteFile;
  req.path = path;
  req.aux = content;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Mkdir(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kMkdir;
  req.path = path;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Unlink(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kUnlink;
  req.path = path;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Rmdir(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kRmdir;
  req.path = path;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Rename(const std::string& from, const std::string& to) {
  ServerRequest req;
  req.op = ServerOp::kRename;
  req.path = from;
  req.aux = to;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Symlink(const std::string& target,
                                    const std::string& link_path) {
  ServerRequest req;
  req.op = ServerOp::kSymlink;
  req.path = link_path;
  req.aux = target;
  return VoidCall(std::move(req));
}

Result<std::string> ClientApi::ReadLink(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kReadLink;
  req.path = path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.text);
}

Result<std::string> ClientApi::Chdir(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kChdir;
  req.path = path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.text);
}

Result<void> ClientApi::SMkdir(const std::string& path, const std::string& query) {
  ServerRequest req;
  req.op = ServerOp::kSMkdir;
  req.path = path;
  req.aux = query;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::SetQuery(const std::string& path,
                                     const std::string& query) {
  ServerRequest req;
  req.op = ServerOp::kSetQuery;
  req.path = path;
  req.aux = query;
  return VoidCall(std::move(req));
}

Result<std::string> ClientApi::GetQuery(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kGetQuery;
  req.path = path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.text);
}

Result<std::vector<std::string>> ClientApi::Search(const std::string& query,
                                                       const std::string& scope_dir) {
  ServerRequest req;
  req.op = ServerOp::kSearch;
  req.path = scope_dir;
  req.aux = query;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.paths);
}

Result<LinkClassView> ClientApi::GetLinkClasses(const std::string& dir_path) {
  ServerRequest req;
  req.op = ServerOp::kGetLinkClasses;
  req.path = dir_path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.links);
}

Result<void> ClientApi::PromoteLink(const std::string& link_path) {
  ServerRequest req;
  req.op = ServerOp::kPromoteLink;
  req.path = link_path;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::DemoteLink(const std::string& link_path) {
  ServerRequest req;
  req.op = ServerOp::kDemoteLink;
  req.path = link_path;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Prohibit(const std::string& dir_path,
                                     const std::string& file_path) {
  ServerRequest req;
  req.op = ServerOp::kProhibit;
  req.path = dir_path;
  req.aux = file_path;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Unprohibit(const std::string& dir_path,
                                       const std::string& file_path) {
  ServerRequest req;
  req.op = ServerOp::kUnprohibit;
  req.path = dir_path;
  req.aux = file_path;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Reindex() {
  ServerRequest req;
  req.op = ServerOp::kReindex;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::SSync(const std::string& path) {
  ServerRequest req;
  req.op = ServerOp::kSSync;
  req.path = path;
  return VoidCall(std::move(req));
}

Result<std::vector<std::string>> ClientApi::SAct(const std::string& link_path) {
  ServerRequest req;
  req.op = ServerOp::kSAct;
  req.path = link_path;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.paths);
}

Result<Fd> ClientApi::OpenCursor(const std::string& path,
                                     const std::string& query) {
  ServerRequest req;
  req.op = ServerOp::kOpenCursor;
  req.path = path;
  req.aux = query;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return resp.fd;
}

Result<CursorPage> ClientApi::FetchPage(Fd cursor, size_t max_entries) {
  ServerRequest req;
  req.op = ServerOp::kFetchPage;
  req.fd = cursor;
  req.size = max_entries;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  CursorPage page;
  page.entries = std::move(resp.entries);
  page.paths = std::move(resp.paths);
  page.has_more = resp.size != 0;
  return page;
}

Result<void> ClientApi::CloseCursor(Fd cursor) {
  ServerRequest req;
  req.op = ServerOp::kCloseCursor;
  req.fd = cursor;
  return VoidCall(std::move(req));
}

Result<void> ClientApi::Checkpoint() {
  ServerRequest req;
  req.op = ServerOp::kCheckpoint;
  return VoidCall(std::move(req));
}

StatsSnapshot ClientApi::Stats() {
  ServerRequest req;
  req.op = ServerOp::kStats;
  return Call(std::move(req)).stats;
}

Result<std::string> ClientApi::Introspect(const std::string& what) {
  ServerRequest req;
  req.op = ServerOp::kIntrospect;
  req.aux = what;
  ServerResponse resp = Call(std::move(req));
  if (!resp.ok()) {
    return resp.error;
  }
  return std::move(resp.text);
}

}  // namespace hac
