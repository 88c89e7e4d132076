#include "src/server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/server/wire.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {

namespace {

Gauge& OpenConnectionsGauge() {
  static Gauge& g =
      MetricsRegistry::Global().GetGauge(metric_names::kServerOpenConnections);
  return g;
}

ServerResponse MakeErrorResponse(ErrorCode code, std::string msg) {
  ServerResponse resp;
  resp.error = Error(code, std::move(msg));
  return resp;
}

size_t DefaultReactorThreads() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 1;
  }
  return std::min<size_t>(4, hw);
}

}  // namespace

TcpServer::TcpServer(HacService& service, TcpServerOptions options)
    : service_(service), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

Result<void> TcpServer::Start() {
  if (started_) {
    return Error(ErrorCode::kUnsupported, "server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Error(ErrorCode::kBusy, "socket() failed");
  }
  // SO_REUSEADDR on the LISTENER only: restart must not wait out TIME_WAIT
  // sockets from the previous instance. Accepted sockets never need it.
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error(ErrorCode::kInvalidArgument,
                 "bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error(ErrorCode::kBusy, "cannot bind/listen on " + options_.bind_address +
                                       ":" + std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  size_t n = options_.reactor_threads != 0 ? options_.reactor_threads
                                           : DefaultReactorThreads();
  for (size_t i = 0; i < n; ++i) {
    ReactorShared shared;
    shared.service = &service_;
    shared.counters = &counters_;
    shared.active_connections = &active_connections_;
    shared.write_high_water = options_.write_high_water;
    shared.write_low_water = options_.write_low_water;
    shared.idle_timeout_ms = options_.idle_timeout_ms;
    auto reactor = std::make_unique<EpollReactor>(shared);
    auto started = reactor->Start();
    if (!started.ok()) {
      reactors_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return started.error();
    }
    reactors_.push_back(std::move(reactor));
  }

  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return OkResult();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    // Poll with a timeout so Stop() never races fd reuse: the flag is checked
    // between waits, and the listen fd is closed only after this thread exits.
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) {
      continue;
    }
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (stopping_.load(std::memory_order_acquire) ||
        active_connections_.load(std::memory_order_acquire) >= options_.max_connections) {
      counters_.connections_rejected.Inc();
      SendFrame(fd, EncodeResponseFrame(MakeErrorResponse(
                        ErrorCode::kOverloaded, "connection limit reached")));
      ::close(fd);
      continue;
    }

    counters_.connections_opened.Inc();
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    OpenConnectionsGauge().Add(1);
    // Shard round-robin: a connection lives on one reactor for its whole life, so
    // all its state is single-threaded there.
    reactors_[next_reactor_]->Adopt(fd);
    next_reactor_ = (next_reactor_ + 1) % reactors_.size();
  }
}

bool TcpServer::SendFrame(int fd, const std::vector<uint8_t>& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that vanished must surface as EPIPE on this call, not
    // SIGPIPE for the whole process. (The reactors' sendmsg carries the same flag.)
    ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  counters_.frames_out.Inc();
  counters_.bytes_out.Inc(frame.size());
  return true;
}

void TcpServer::Stop() {
  if (!started_) {
    return;
  }
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    if (acceptor_.joinable()) {
      acceptor_.join();
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Reactors shut their connections down, drain in-flight service completions,
    // then exit; the service must still be running here (it is: callers stop the
    // transport before the service).
    for (auto& r : reactors_) {
      r->RequestStop();
    }
    for (auto& r : reactors_) {
      r->Join();
    }
    reactors_.clear();
  });
}

size_t TcpServer::ActiveConnections() const {
  return active_connections_.load(std::memory_order_acquire);
}

TcpServerStats TcpServer::Stats() const {
  TcpServerStats s;
  s.connections_opened = counters_.connections_opened.Value();
  s.connections_closed = counters_.connections_closed.Value();
  s.connections_rejected = counters_.connections_rejected.Value();
  s.frames_in = counters_.frames_in.Value();
  s.frames_out = counters_.frames_out.Value();
  s.wire_errors = counters_.wire_errors.Value();
  s.bytes_in = counters_.bytes_in.Value();
  s.bytes_out = counters_.bytes_out.Value();
  s.idle_closes = counters_.idle_closes.Value();
  s.backpressure_stalls = counters_.backpressure_stalls.Value();
  return s;
}

}  // namespace hac
