// RemoteServiceClient: the ClientApi implementation that speaks the versioned wire
// protocol over TCP. Interchangeable with the in-process ServiceClient — both derive
// the whole typed surface from ClientApi, so code written against ClientApi runs
// unchanged against a local service or a remote hacd.
//
// Synchronous, one in-flight request per connection (strict request→response order —
// the session contract anyway). Transport-level failures surface through the normal
// error channel (docs/API.md "Error transport"):
//
//   kOverloaded   — not connected, connection refused/lost, short read/write: the
//                   server is unreachable, same taxonomy as admission-control
//                   rejection (a caller retries both the same way).
//   kCorrupt      — the server's bytes failed to decode; the socket is closed.
//   kUnsupported  — wire version skew; the socket is closed.
//
// The destructor disconnects; the server closes the session (and its descriptors)
// when it sees the connection drop.
#ifndef HAC_SERVER_TCP_CLIENT_H_
#define HAC_SERVER_TCP_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "src/server/client_api.h"
#include "src/server/wire.h"

namespace hac {

class RemoteServiceClient : public ClientApi {
 public:
  RemoteServiceClient() = default;
  ~RemoteServiceClient() override;

  RemoteServiceClient(const RemoteServiceClient&) = delete;
  RemoteServiceClient& operator=(const RemoteServiceClient&) = delete;

  // Connects to a hacd TcpServer. `host` is a dotted-quad IPv4 address (or
  // "localhost"). kBusy if the connection cannot be established; kInvalidArgument
  // for a malformed address; kUnsupported if already connected.
  Result<void> Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  // Bounds how long Transport() waits for a response before giving up (SO_RCVTIMEO).
  // A server that accepts the request but never answers — wedged writer, stalled
  // reactor, half-dead network — then surfaces as kOverloaded ("receive timed out")
  // and the connection is dropped, the same retryable taxonomy as admission
  // rejection. Zero (the default) waits forever. Takes effect immediately on a live
  // connection and is re-applied by Connect().
  void SetReceiveTimeout(std::chrono::milliseconds timeout);
  std::chrono::milliseconds receive_timeout() const { return receive_timeout_; }

 protected:
  ServerResponse Transport(ServerRequest req) override;

 private:
  ServerResponse TransportFailure(ErrorCode code, std::string msg, bool drop);
  void ApplyReceiveTimeout();

  int fd_ = -1;
  FrameDecoder decoder_;
  std::chrono::milliseconds receive_timeout_{0};
};

}  // namespace hac

#endif  // HAC_SERVER_TCP_CLIENT_H_
