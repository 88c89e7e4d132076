// Session: one connected client of the hacd service.
//
// A session owns a descriptor namespace (a BasicFdTable mapping session descriptors
// to the facade's HAC descriptors, so clients can never touch each other's open
// files) and a current working directory that relative request paths resolve
// against. A session is driven by one client at a time — the service relies on that
// for the per-descriptor offsets, which is why ReadFd/Seek can run on the concurrent
// read path.
//
// The cwd and the cursor table are the exceptions to that one-client assumption: the
// epoll transport pipelines, so read-class ops of one session overlap — on the
// reader threads, and on the reactor thread, which runs bounded reads inline (a
// relative Stat resolves against the cwd while a pipelined Chdir sets it). Each
// therefore carries its own mutex. The cursor table's is held across a whole fetch
// (serializing fetches per session — the token update must pair with the page it
// produced), and the idle sweep harvests from the reactor thread under it.
#ifndef HAC_SERVER_SESSION_H_
#define HAC_SERVER_SESSION_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "src/core/paging.h"
#include "src/vfs/fd_table.h"

namespace hac {

// One server-side cursor: pure re-execution state (what to run + how far we got),
// never live iterators — see docs/API.md "Cursor ops". Each kFetchPage re-invokes
// HacFileSystem::ReadDirPage/SearchPage with the stored token, so nothing here can
// dangle across write batches or reindex passes.
struct ServerCursor {
  bool is_search = false;  // false: directory enumeration
  std::string path;        // absolutized at open
  std::string query;       // search cursors only
  PageToken token;
  bool exhausted = false;  // last fetch reported no more pages
  std::chrono::steady_clock::time_point last_used;
};

// The per-session cursor table. Locking: take `mu` for any access; HacService
// holds it across a full fetch, the transports call HarvestIdle() from their idle
// sweeps. Capped by ServiceOptions::max_cursors_per_session at open.
class CursorTable {
 public:
  std::mutex mu;

  // All methods below require `mu` held by the caller.
  Fd Open(ServerCursor cursor) {
    const Fd id = next_id_++;
    cursors_.emplace(id, std::move(cursor));
    return id;
  }
  ServerCursor* Find(Fd id) {
    auto it = cursors_.find(id);
    return it == cursors_.end() ? nullptr : &it->second;
  }
  bool Close(Fd id) { return cursors_.erase(id) != 0; }
  size_t OpenCount() const { return cursors_.size(); }

  // Drops cursors not used since `cutoff`; returns how many were harvested.
  size_t HarvestIdle(std::chrono::steady_clock::time_point cutoff) {
    size_t n = 0;
    for (auto it = cursors_.begin(); it != cursors_.end();) {
      if (it->second.last_used < cutoff) {
        it = cursors_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

 private:
  Fd next_id_ = 1;
  std::map<Fd, ServerCursor> cursors_;
};

class Session {
 public:
  uint64_t id() const { return id_; }
  // A copy: a pipelined Chdir of the same session may replace it meanwhile.
  std::string cwd() const {
    std::lock_guard<std::mutex> lk(cwd_mu_);
    return cwd_;
  }
  size_t OpenDescriptors() const { return fds_.OpenCount(); }

  // The transports reach the table directly for idle harvesting (lock its mu).
  CursorTable& cursors() { return cursors_; }

 private:
  friend class HacService;

  explicit Session(uint64_t id) : id_(id) {}

  void SetCwd(std::string cwd) {
    std::lock_guard<std::mutex> lk(cwd_mu_);
    cwd_ = std::move(cwd);
  }

  uint64_t id_;
  mutable std::mutex cwd_mu_;
  std::string cwd_ = "/";
  BasicFdTable<Fd> fds_;  // session fd -> facade fd
  CursorTable cursors_;
};

}  // namespace hac

#endif  // HAC_SERVER_SESSION_H_
