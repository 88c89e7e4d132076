#include "src/server/tcp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace hac {

namespace {

// Bytes each recv may land straight in the FrameDecoder; a larger response takes
// several receives into the same buffer.
constexpr size_t kRecvChunk = 64 * 1024;

}  // namespace

RemoteServiceClient::~RemoteServiceClient() { Disconnect(); }

Result<void> RemoteServiceClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) {
    return Error(ErrorCode::kUnsupported, "already connected");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return Error(ErrorCode::kInvalidArgument, "bad address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Error(ErrorCode::kBusy, "socket() failed");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Error(ErrorCode::kBusy,
                 "cannot connect to " + ip + ":" + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  decoder_ = FrameDecoder();
  ApplyReceiveTimeout();
  return OkResult();
}

void RemoteServiceClient::SetReceiveTimeout(std::chrono::milliseconds timeout) {
  receive_timeout_ = timeout.count() > 0 ? timeout : std::chrono::milliseconds(0);
  ApplyReceiveTimeout();
}

void RemoteServiceClient::ApplyReceiveTimeout() {
  if (fd_ < 0) {
    return;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(receive_timeout_.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((receive_timeout_.count() % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void RemoteServiceClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ServerResponse RemoteServiceClient::TransportFailure(ErrorCode code, std::string msg,
                                                     bool drop) {
  if (drop) {
    Disconnect();
  }
  ServerResponse resp;
  resp.error = Error(code, std::move(msg));
  return resp;
}

ServerResponse RemoteServiceClient::Transport(ServerRequest req) {
  if (fd_ < 0) {
    return TransportFailure(ErrorCode::kOverloaded, "not connected", false);
  }
  // Refuse locally what the server-side decoder would refuse as kCorrupt (and
  // then tear down the stream): a request whose variable fields alone already
  // exceed the single-frame payload cap. Checked before encoding so a hopeless
  // request never allocates a frame or poisons the connection.
  if (req.path.size() + req.aux.size() + kWireHeaderSize * 2 > MaxEncodablePayload()) {
    return TransportFailure(
        ErrorCode::kOverloaded,
        "request exceeds the " + std::to_string(MaxEncodablePayload()) +
            "-byte frame limit; split the payload (e.g. chunked WriteFd)",
        false);
  }
  std::vector<uint8_t> frame = EncodeRequestFrame(req);
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return TransportFailure(ErrorCode::kOverloaded, "connection lost on send", true);
    }
    sent += static_cast<size_t>(n);
  }
  RecycleBuffer(std::move(frame));

  for (;;) {
    auto next = decoder_.NextView();
    if (!next.ok()) {
      // kCorrupt (damaged bytes) or kUnsupported (version skew) from the decoder.
      return TransportFailure(next.error().code, next.error().message, true);
    }
    if (next.value().has_value()) {
      const FrameDecoder::FrameView f = *next.value();
      if (f.kind != FrameKind::kResponse) {
        return TransportFailure(ErrorCode::kCorrupt, "request frame sent to client",
                                true);
      }
      // Decoded straight from the receive buffer: the payload is never copied.
      auto resp = DecodeResponsePayload(f.data, f.size);
      if (!resp.ok()) {
        return TransportFailure(resp.error().code, resp.error().message, true);
      }
      return std::move(resp).value();
    }
    ssize_t n = ::recv(fd_, decoder_.Reserve(kRecvChunk), kRecvChunk, 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        receive_timeout_.count() > 0) {
      // SO_RCVTIMEO fired: the server accepted the request and went silent. The
      // stream position is now unknowable, so the connection is dropped rather
      // than risk pairing a late response with the wrong request.
      return TransportFailure(ErrorCode::kOverloaded, "receive timed out", true);
    }
    if (n <= 0) {
      return TransportFailure(ErrorCode::kOverloaded, "connection closed by server",
                              true);
    }
    decoder_.Commit(static_cast<size_t>(n));
  }
}

}  // namespace hac
