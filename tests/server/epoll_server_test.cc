// Epoll transport tests: request pipelining with in-order responses (reads the
// reactor runs inline mixed with queued ones), slow-reader backpressure (no loss,
// bounded buffering), partial-write resumption on multi-megabyte frames,
// idle-connection harvesting, the connection cap, and the client-side receive
// timeout against a server that never answers. The mixed-workload stress test and
// the pipelining tests are the body of the server_epoll_tsan_gate ctest
// (tests/CMakeLists.txt, HAC_SANITIZE=thread).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/tcp_client.h"
#include "src/server/tcp_server.h"
#include "src/server/wire.h"

namespace hac {
namespace {

bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds limit = std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// A raw loopback socket that can pipeline many request frames before reading any
// response — something RemoteServiceClient (strict call/response) never does.
class PipelinedConn {
 public:
  // rcvbuf > 0 shrinks SO_RCVBUF before connect(), making this a deliberately slow
  // reader: the advertised window caps what the server can push.
  explicit PipelinedConn(uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~PipelinedConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool ok() const { return fd_ >= 0; }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void Send(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return;
      }
      sent += static_cast<size_t>(n);
    }
  }

  void SendRequest(const ServerRequest& req) { Send(EncodeRequestFrame(req)); }

  // Pipelines `requests` in windows of `window` frames: each window goes out in one
  // send, and its responses are read before the next window. The window bounds how
  // many reads one connection queues at once (the read queue holds
  // ServiceOptions::max_read_queue, 256 by default).
  std::vector<ServerResponse> Pipeline(const std::vector<ServerRequest>& requests,
                                       size_t window) {
    std::vector<ServerResponse> out;
    for (size_t at = 0; at < requests.size(); at += window) {
      const size_t end = std::min(requests.size(), at + window);
      std::vector<uint8_t> bytes;
      for (size_t i = at; i < end; ++i) {
        const std::vector<uint8_t> frame = EncodeRequestFrame(requests[i]);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
      }
      Send(bytes);
      std::vector<ServerResponse> got = ReadResponses(end - at);
      const bool complete = got.size() == end - at;
      out.insert(out.end(), std::make_move_iterator(got.begin()),
                 std::make_move_iterator(got.end()));
      if (!complete) {
        break;
      }
    }
    return out;
  }

  // Blocks until `count` response frames have decoded (or the peer closes).
  // chunk/pause throttle the reads to keep this side slow on purpose.
  std::vector<ServerResponse> ReadResponses(size_t count, size_t chunk = 65536,
                                            std::chrono::milliseconds pause = {}) {
    std::vector<ServerResponse> out;
    std::vector<uint8_t> buf(chunk);
    while (out.size() < count) {
      for (;;) {
        auto next = decoder_.Next();
        if (!next.ok() || !next.value().has_value()) {
          break;
        }
        auto resp = DecodeResponsePayload(next.value()->payload);
        if (resp.ok()) {
          out.push_back(std::move(resp.value()));
        }
      }
      if (out.size() >= count) {
        break;
      }
      ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
      if (n <= 0) {
        break;
      }
      decoder_.Feed(buf.data(), static_cast<size_t>(n));
      if (pause.count() > 0) {
        std::this_thread::sleep_for(pause);
      }
    }
    return out;
  }

  // True once the server has closed its side (recv returns 0).
  bool WaitPeerClose(std::chrono::milliseconds limit) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(limit.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((limit.count() % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    uint8_t b;
    return ::recv(fd_, &b, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

class EpollServerTest : public ::testing::Test {
 protected:
  void StartServer(TcpServerOptions options = {}) {
    service_.emplace(fs_);
    server_.emplace(*service_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_.has_value()) {
      server_->Stop();
    }
    if (service_.has_value()) {
      service_->Stop();
    }
  }

  HacFileSystem fs_;
  std::optional<HacService> service_;
  std::optional<TcpServer> server_;
};

TEST_F(EpollServerTest, PipelinedRequestsAnswerInRequestOrder) {
  StartServer();
  constexpr int kRequests = 64;
  // Pre-create files whose sizes encode their index: a stat response then names
  // the request position it must answer. The requests themselves are independent
  // (pipelined requests execute concurrently — reads on the pool, writes in
  // batches — so one may NOT depend on another's effect), which is exactly what
  // makes in-order delivery a real claim: completions arrive scrambled and the
  // reactor's reorder buffer must untangle them.
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(fs_.WriteFile("/p" + std::to_string(i) + ".txt",
                              std::string(static_cast<size_t>(i + 1), 'x'))
                    .ok());
  }
  PipelinedConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < kRequests; ++i) {
    ServerRequest req;
    if (i % 8 == 7) {
      // Sprinkle independent writes through the stream so the pipeline crosses
      // the read/write queues too.
      req.op = ServerOp::kWriteFile;
      req.path = "/w" + std::to_string(i) + ".txt";
      req.aux = "pipelined write";
    } else {
      req.op = ServerOp::kStat;
      req.path = "/p" + std::to_string(i) + ".txt";
    }
    conn.SendRequest(req);
  }
  auto responses = conn.ReadResponses(kRequests);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].error.ToString();
    if (i % 8 != 7) {
      // Response position i must carry the stat of file i — size i+1 bytes.
      EXPECT_EQ(responses[i].st.size, static_cast<uint64_t>(i + 1)) << i;
    }
  }
  auto stats = server_->Stats();
  EXPECT_GE(stats.frames_in, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.wire_errors, 0u);
}

ServerRequest Req(ServerOp op, std::string path, std::string aux = "") {
  ServerRequest req;
  req.op = op;
  req.path = std::move(path);
  req.aux = std::move(aux);
  return req;
}

// Rounds of [ReadDir, Stat, Search, Lstat, GetQuery, ReadLink] on one connection:
// the reactor runs Stat, Lstat, GetQuery and ReadLink itself and queues the other
// two for the readers, so each round's frames complete on different threads and in
// a different order than they were sent. Every answer must still arrive in request
// order, byte-for-byte the answer the in-process service gives.
TEST_F(EpollServerTest, PipelinedInlineAndQueuedReadsMatchInProcessAnswers) {
  ASSERT_TRUE(fs_.Mkdir("/d").ok());
  constexpr int kFiles = 8;
  for (int k = 0; k < kFiles; ++k) {
    ASSERT_TRUE(fs_.WriteFile("/d/f" + std::to_string(k) + ".txt",
                              std::string(k % 2 == 0 ? "whorl " : "ridge ") +
                                  std::string(static_cast<size_t>(k), 'x'))
                    .ok());
  }
  ASSERT_TRUE(fs_.Reindex().ok());
  const std::string queries[2] = {"whorl", "ridge"};
  std::vector<std::string> links[2];
  for (int q = 0; q < 2; ++q) {
    const std::string dir = "/s" + std::to_string(q);
    ASSERT_TRUE(fs_.SMkdir(dir, queries[q]).ok());
    auto entries = fs_.ReadDir(dir);
    ASSERT_TRUE(entries.ok());
    for (const DirEntry& e : entries.value()) {
      links[q].push_back(dir + "/" + e.name);
    }
    ASSERT_EQ(links[q].size(), static_cast<size_t>(kFiles / 2));
  }
  StartServer();

  constexpr int kRounds = 200;
  std::vector<ServerRequest> requests;
  for (int i = 0; i < kRounds; ++i) {
    const int q = i % 2;
    const std::string& link = links[q][static_cast<size_t>(i / 2) % links[q].size()];
    const std::string file = "/d/f" + std::to_string(i % kFiles) + ".txt";
    requests.push_back(Req(ServerOp::kReadDir, "/s" + std::to_string(q)));
    requests.push_back(Req(ServerOp::kStat, file));
    requests.push_back(Req(ServerOp::kSearch, "/d", queries[q]));
    requests.push_back(Req(ServerOp::kLstat, link));
    requests.push_back(Req(ServerOp::kGetQuery, "/s" + std::to_string(q)));
    requests.push_back(Req(ServerOp::kReadLink, link));
  }
  Session* local = service_->OpenSession();
  std::vector<std::vector<uint8_t>> expected;
  for (const ServerRequest& req : requests) {
    ServerResponse resp = service_->Call(local, req);
    ASSERT_TRUE(resp.ok()) << ServerOpName(req.op) << " " << req.path;
    expected.push_back(EncodeResponseFrame(resp));
  }
  ASSERT_TRUE(service_->CloseSession(local).ok());

  const uint64_t inline0 = service_->Stats().inline_reads;
  PipelinedConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // 20 rounds per window: 120 frames, 40 of them queued.
  auto responses = conn.Pipeline(requests, 120);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(EncodeResponseFrame(responses[i]), expected[i])
        << i << ": " << ServerOpName(requests[i].op) << " " << requests[i].path;
  }
  // Nothing writes, so the writer never stands in the way: all four bounded reads
  // of every round ran on the reactor.
  EXPECT_EQ(service_->Stats().inline_reads - inline0, 4u * kRounds);
  EXPECT_EQ(server_->Stats().wire_errors, 0u);
}

// A pipelined Chdir sets the session's cwd on a reader thread while the reactor
// resolves the next relative Stat against it. Each Stat sees one directory or the
// other (docs/API.md allows either state), and the cwd is never read while being
// written: under TSan this is the race check.
TEST_F(EpollServerTest, PipelinedChdirAndRelativeReadsSeeEitherDirectory) {
  ASSERT_TRUE(fs_.Mkdir("/a").ok());
  ASSERT_TRUE(fs_.Mkdir("/b").ok());
  ASSERT_TRUE(fs_.WriteFile("/a/f.txt", "a").ok());
  ASSERT_TRUE(fs_.WriteFile("/b/f.txt", "bb").ok());
  StartServer();

  constexpr int kRounds = 500;
  PipelinedConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Leave "/" first, so that every relative Stat finds a file.
  conn.SendRequest(Req(ServerOp::kChdir, "/b"));
  ASSERT_EQ(conn.ReadResponses(1).size(), 1u);
  std::vector<ServerRequest> requests;
  for (int i = 0; i < kRounds; ++i) {
    requests.push_back(Req(ServerOp::kChdir, i % 2 == 0 ? "/a" : "/b"));
    requests.push_back(Req(ServerOp::kStat, "f.txt"));
  }
  // 50 rounds per window: 50 queued Chdirs.
  auto responses = conn.Pipeline(requests, 100);
  ASSERT_EQ(responses.size(), static_cast<size_t>(2 * kRounds));
  for (int i = 0; i < kRounds; ++i) {
    const ServerResponse& chdir = responses[static_cast<size_t>(2 * i)];
    const ServerResponse& stat = responses[static_cast<size_t>(2 * i + 1)];
    ASSERT_TRUE(chdir.ok()) << i << ": " << chdir.error.ToString();
    EXPECT_EQ(chdir.text, i % 2 == 0 ? "/a" : "/b") << i;
    ASSERT_TRUE(stat.ok()) << i << ": " << stat.error.ToString();
    EXPECT_TRUE(stat.st.size == 1 || stat.st.size == 2) << i << ": " << stat.st.size;
  }
  EXPECT_EQ(server_->Stats().wire_errors, 0u);
}

TEST_F(EpollServerTest, SlowReaderTripsBackpressureAndLosesNothing) {
  TcpServerOptions options;
  options.write_high_water = 16 << 10;  // 16 KiB: easy to exceed
  options.write_low_water = 4 << 10;
  StartServer(options);

  // A directory whose ReadDir response is ~40 KiB: 400 entries with fat names.
  // ReadDir is read-only, so any number of pipelined copies are race-free.
  ASSERT_TRUE(fs_.Mkdir("/big").ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(fs_.WriteFile("/big/entry_" + std::to_string(i) +
                                  "_padpadpadpadpadpadpadpadpadpadpad.txt",
                              "x")
                    .ok());
  }

  constexpr int kReads = 40;  // ~1.6 MiB of responses vs a 16 KiB high water
  PipelinedConn conn(server_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < kReads; ++i) {
    ServerRequest read;
    read.op = ServerOp::kReadDir;
    read.path = "/big";
    conn.SendRequest(read);
  }
  // Don't read yet: the response backlog must blow through the high-water mark
  // and pause reading on the server.
  EXPECT_TRUE(WaitFor([this] { return server_->Stats().backpressure_stalls >= 1; }));

  // Now drain slowly; every queued response must still arrive, intact.
  auto responses = conn.ReadResponses(kReads, /*chunk=*/8192,
                                      std::chrono::milliseconds(1));
  ASSERT_EQ(responses.size(), static_cast<size_t>(kReads));
  for (int i = 0; i < kReads; ++i) {
    ASSERT_TRUE(responses[i].ok()) << i;
    EXPECT_EQ(responses[i].entries.size(), 400u) << i;
  }
  EXPECT_GE(server_->Stats().backpressure_stalls, 1u);
  EXPECT_EQ(server_->Stats().wire_errors, 0u);
}

TEST_F(EpollServerTest, PartialWriteOfAHugeFrameResumesUntilComplete) {
  StartServer();
  // One response far larger than any socket buffer: the first sendmsg is
  // necessarily partial, so delivery depends on EPOLLOUT-driven resumption.
  const std::string body(4 << 20, 'z');
  ASSERT_TRUE(fs_.WriteFile("/huge.txt", body).ok());

  PipelinedConn conn(server_->port(), /*rcvbuf=*/8192);
  ASSERT_TRUE(conn.ok());
  // Open first and wait for its descriptor: the read must not race the open
  // (pipelined requests execute concurrently).
  ServerRequest open;
  open.op = ServerOp::kOpen;
  open.path = "/huge.txt";
  open.flags = kOpenRead;
  conn.SendRequest(open);
  auto opened = conn.ReadResponses(1);
  ASSERT_EQ(opened.size(), 1u);
  ASSERT_TRUE(opened[0].ok());

  ServerRequest read;
  read.op = ServerOp::kReadFd;
  read.fd = opened[0].fd;
  read.size = body.size();
  conn.SendRequest(read);

  auto responses = conn.ReadResponses(1, /*chunk=*/65536,
                                      std::chrono::milliseconds(1));
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[0].text.size(), body.size());
  EXPECT_EQ(responses[0].text, body);
}

TEST_F(EpollServerTest, IdleConnectionIsHarvestedActiveOneIsNot) {
  TcpServerOptions options;
  options.idle_timeout_ms = 300;
  StartServer(options);

  // The active connection pings continuously from a background thread so host
  // scheduling hiccups can't let it go idle alongside the silent one.
  std::atomic<bool> stop_pinger = false;
  std::atomic<int> ping_failures = 0;
  std::thread pinger([this, &stop_pinger, &ping_failures] {
    RemoteServiceClient active;
    if (!active.Connect("127.0.0.1", server_->port()).ok()) {
      ping_failures = 1000;
      return;
    }
    while (!stop_pinger.load()) {
      if (!active.StatPath("/").ok()) {
        ++ping_failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  PipelinedConn silent(server_->port());
  ASSERT_TRUE(silent.ok());
  // Prove the silent connection was admitted and functional before going quiet.
  ServerRequest ping;
  ping.op = ServerOp::kPing;
  silent.SendRequest(ping);
  EXPECT_EQ(silent.ReadResponses(1).size(), 1u);

  // The server must close the silent side on its own.
  EXPECT_TRUE(silent.WaitPeerClose(std::chrono::milliseconds(5000)));
  EXPECT_TRUE(WaitFor([this] { return server_->Stats().idle_closes >= 1; }));

  stop_pinger = true;
  pinger.join();
  EXPECT_EQ(ping_failures.load(), 0);
}

TEST_F(EpollServerTest, ConnectionCapRejectsTheExtraClient) {
  TcpServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  RemoteServiceClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(first.ReadDir("/").ok());

  RemoteServiceClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()).ok());
  auto resp = second.ReadDir("/");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kOverloaded);
  EXPECT_TRUE(WaitFor([this] { return server_->Stats().connections_rejected == 1u; }));
  EXPECT_TRUE(first.ReadDir("/").ok());
}

TEST_F(EpollServerTest, WireErrorAnswersEarlierPipelinedRequestsFirst) {
  StartServer();
  PipelinedConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Two good requests, then garbage. The protocol-error policy says one final
  // error frame then close — but the two accepted requests must answer first.
  ServerRequest ping;
  ping.op = ServerOp::kPing;
  conn.SendRequest(ping);
  ServerRequest stat;
  stat.op = ServerOp::kStat;
  stat.path = "/";
  conn.SendRequest(stat);
  conn.Send(std::vector<uint8_t>(32, 0xEE));

  auto responses = conn.ReadResponses(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[0].text, "pong");
  EXPECT_TRUE(responses[1].ok());
  EXPECT_EQ(responses[2].error.code, ErrorCode::kCorrupt);
  EXPECT_TRUE(conn.WaitPeerClose(std::chrono::milliseconds(2000)));
  EXPECT_TRUE(WaitFor([this] { return server_->ActiveConnections() == 0; }));
}

// A listener that accepts and then ignores the connection: the shape of a wedged
// server. Never speaks, never closes.
class BlackHoleServer {
 public:
  BlackHoleServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(fd_, 4);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    acceptor_ = std::thread([this] {
      int conn = ::accept(fd_, nullptr, nullptr);
      accepted_.store(conn, std::memory_order_release);
    });
  }
  ~BlackHoleServer() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    acceptor_.join();
    int conn = accepted_.load(std::memory_order_acquire);
    if (conn >= 0) {
      ::close(conn);
    }
  }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<int> accepted_ = -1;
};

TEST_F(EpollServerTest, ClientReceiveTimeoutMapsHungServerToOverloaded) {
  BlackHoleServer hole;
  RemoteServiceClient client;
  client.SetReceiveTimeout(std::chrono::milliseconds(200));
  ASSERT_TRUE(client.Connect("127.0.0.1", hole.port()).ok());

  const auto t0 = std::chrono::steady_clock::now();
  auto resp = client.ReadDir("/");
  const auto waited = std::chrono::steady_clock::now() - t0;

  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, ErrorCode::kOverloaded);
  EXPECT_NE(resp.error().message.find("timed out"), std::string::npos);
  EXPECT_FALSE(client.connected());  // the wedged stream was dropped
  EXPECT_GE(waited, std::chrono::milliseconds(150));
  EXPECT_LT(waited, std::chrono::seconds(30));

  // Without a timeout (the default), the same hang would block forever — prove
  // the knob is what bounded the wait by checking it round-trips.
  EXPECT_EQ(client.receive_timeout(), std::chrono::milliseconds(200));
}

// Body of the server_epoll_tsan_gate ctest: reactors, the acceptor, service
// workers, and pipelining clients all share counters, the buffer pool, and the
// completion queues under TSan.
TEST_F(EpollServerTest, MixedWorkloadStressAcrossReactors) {
  TcpServerOptions options;
  options.reactor_threads = 2;
  options.write_high_water = 64 << 10;
  options.write_low_water = 16 << 10;
  StartServer(options);
  {
    RemoteServiceClient setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(setup.Mkdir("/docs").ok());
    ASSERT_TRUE(setup.WriteFile("/docs/seed.txt", "fingerprint ridge").ok());
    ASSERT_TRUE(setup.Reindex().ok());
  }

  constexpr int kCallThreads = 4;
  constexpr int kPipeThreads = 2;
  constexpr int kOpsPerThread = 20;
  std::atomic<int> failures = 0;
  std::vector<std::thread> threads;

  // Synchronous clients: call/response over every op class.
  for (int t = 0; t < kCallThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      RemoteServiceClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      const std::string dir = "/w" + std::to_string(t);
      if (!client.Mkdir(dir).ok()) {
        ++failures;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string path = dir + "/f" + std::to_string(i) + ".txt";
        if (!client.WriteFile(path, "fingerprint body " + std::to_string(i)).ok() ||
            !client.StatPath(path).ok() || !client.ReadDir(dir).ok() ||
            !client.Search("fingerprint").ok()) {
          ++failures;
        }
      }
    });
  }
  // Pipelining clients: bursts of frames, responses validated for order.
  for (int t = 0; t < kPipeThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      PipelinedConn conn(server_->port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      // Independent ops only: a pipelined stat may NOT depend on a pipelined
      // write (they execute concurrently). Writes are distinct files; the
      // interleaved reads hit the pre-seeded corpus.
      for (int i = 0; i < kOpsPerThread; ++i) {
        ServerRequest write;
        write.op = ServerOp::kWriteFile;
        write.path = "/pipe" + std::to_string(t) + "_" + std::to_string(i) + ".txt";
        write.aux = std::string(static_cast<size_t>(i + 1), 'p');
        conn.SendRequest(write);
        ServerRequest stat;
        stat.op = ServerOp::kStat;
        stat.path = "/docs/seed.txt";
        conn.SendRequest(stat);
      }
      auto responses = conn.ReadResponses(2 * kOpsPerThread);
      if (responses.size() != static_cast<size_t>(2 * kOpsPerThread)) {
        ++failures;
        return;
      }
      for (int i = 0; i < 2 * kOpsPerThread; ++i) {
        if (!responses[i].ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every pipelined write landed with the right content length.
  for (int t = 0; t < kPipeThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      auto st = fs_.StatPath("/pipe" + std::to_string(t) + "_" + std::to_string(i) +
                             ".txt");
      ASSERT_TRUE(st.ok()) << t << "," << i;
      EXPECT_EQ(st.value().size, static_cast<uint64_t>(i + 1)) << t << "," << i;
    }
  }
  EXPECT_TRUE(WaitFor([this] {
    auto stats = server_->Stats();
    return stats.connections_closed == stats.connections_opened;
  }));
  EXPECT_EQ(server_->Stats().wire_errors, 0u);
}

TEST_F(EpollServerTest, StopWhileClientsAreActiveFailsThemCleanly) {
  StartServer();
  std::atomic<bool> go = false;
  std::atomic<int> transport_errors = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &go, &transport_errors] {
      RemoteServiceClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        return;
      }
      go = true;
      for (int i = 0; i < 10000; ++i) {
        auto resp = client.StatPath("/");
        if (!resp.ok()) {
          EXPECT_TRUE(resp.error().code == ErrorCode::kOverloaded ||
                      resp.error().code == ErrorCode::kCorrupt)
              << ErrorCodeName(resp.error().code);
          ++transport_errors;
          break;
        }
      }
    });
  }
  while (!go) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Stop();
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GE(transport_errors.load(), 1);
  EXPECT_EQ(server_->ActiveConnections(), 0u);
}

}  // namespace
}  // namespace hac
