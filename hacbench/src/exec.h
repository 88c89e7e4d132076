// Executing Steps against HAC, at each rung of the layer ladder:
//
//   facade   FacadeRunner: direct HacFileSystem calls on the calling thread
//   service  ClientRunner<ServiceClient>: in-process HacService
//   epoll    ClientRunner<RemoteServiceClient>: the wire protocol over loopback to
//            the default (epoll) TcpServer
//   durable  as epoll, with the service group-committing into a DurableStore
//
// plus PipelinedConn, a raw loopback connection that keeps a window of request
// frames in flight (durable_ingest's clients), and Stack, the shipped server stack.
#ifndef HACBENCH_EXEC_H_
#define HACBENCH_EXEC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hacbench/src/report.h"
#include "hacbench/src/streams.h"
#include "src/core/durability.h"
#include "src/server/client.h"
#include "src/server/hac_service.h"
#include "src/server/tcp_client.h"
#include "src/server/tcp_server.h"

namespace hacbench {

// One request in, one response out.
class Runner {
 public:
  virtual ~Runner() = default;
  virtual hac::ServerResponse Send(const hac::ServerRequest& req) = 0;
};

// Executes requests directly on the facade with the service's semantics (paths
// are absolute; cursors are emulated over ReadDirPage/SearchPage). The caller
// must be the only thread using `fs`.
class FacadeRunner : public Runner {
 public:
  explicit FacadeRunner(hac::HacFileSystem& fs) : fs_(fs) {}
  hac::ServerResponse Send(const hac::ServerRequest& req) override;

 private:
  struct Cursor {
    std::string path;
    std::string query;
    hac::PageToken token;
  };
  hac::HacFileSystem& fs_;
  std::map<hac::Fd, Cursor> cursors_;
  hac::Fd next_cursor_ = 1;
};

// Any RequestClient, with its transport exposed as a Runner.
template <class Client>
class ClientRunner : public Runner, public Client {
 public:
  using Client::Client;
  hac::ServerResponse Send(const hac::ServerRequest& req) override {
    return this->Transport(req);
  }
};

using ServiceRunner = ClientRunner<hac::ServiceClient>;
using RemoteRunner = ClientRunner<hac::RemoteServiceClient>;

// A captured request and its response (browse's correctness sample, the wire
// codec timing). Drains store the whole drain's concatenated entries/paths.
struct Captured {
  Step step;
  hac::ServerResponse resp;
};

// What one client thread observed.
struct Recorder {
  Samples read, write, sem, all;  // per-request latency, us
  Samples first_page, drain;      // us: OpenCursor + first FetchPage; whole drain
  uint64_t attempted = 0;         // requests
  uint64_t failed = 0;
  uint64_t fetches = 0;           // FetchPage requests
  uint64_t drains = 0;
  uint64_t stale = 0;             // drains cut short by kStaleCursor
  uint64_t user_bytes = 0;        // path + payload bytes of plain mutations
  std::vector<std::string> errors;  // first few failures, for the report

  // When set, per-request latency by op as well (the ladder's facade rung).
  std::map<hac::ServerOp, Samples>* by_op = nullptr;

  // Capture every `capture_every`-th request (0 = none) into `captured`.
  size_t capture_every = 0;
  size_t capture_limit = 0;
  std::vector<Captured> captured;

  void Fail(const Step& step, const hac::Error& err);
  void Merge(const Recorder& other);
  Samples& ClassSamples(OpClass cls);
};

// Runs one step (a drain runs to completion). Returns the step's wall time in us.
double RunStep(Runner& runner, const Step& step, Recorder& rec);

// The shipped server stack: HacService with default ServiceOptions (plus an
// optional DurableStore) behind a TcpServer with default TcpServerOptions.
class Stack {
 public:
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  hac::Result<void> Start(hac::HacFileSystem& fs, hac::DurableStore* store);
  void Stop();
  ~Stack() { Stop(); }
  uint16_t port() const { return server_ ? server_->port() : 0; }

 private:
  std::unique_ptr<hac::HacService> service_;
  std::unique_ptr<hac::TcpServer> server_;
};

// A raw loopback connection that sends a window of request frames back to back and
// then collects their responses in order.
class PipelinedConn {
 public:
  PipelinedConn() = default;
  PipelinedConn(const PipelinedConn&) = delete;
  PipelinedConn& operator=(const PipelinedConn&) = delete;
  ~PipelinedConn();
  hac::Result<void> Connect(uint16_t port);
  // Sends `reqs`, waits for all responses. lat_us[i]: send start to response i.
  bool Exchange(const std::vector<hac::ServerRequest>& reqs,
                std::vector<hac::ServerResponse>& resps, std::vector<double>& lat_us);

 private:
  int fd_ = -1;
  hac::FrameDecoder decoder_;
};

// Runs `steps` on a PipelinedConn: consecutive pipelined steps go out as one window.
void RunPipelined(PipelinedConn& conn, const std::vector<Step>& steps, Recorder& rec);

}  // namespace hacbench

#endif  // HACBENCH_EXEC_H_
