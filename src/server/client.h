// ServiceClient: the in-process ClientApi implementation — what a library consumer
// uses per connection. It owns one Session and
// its Transport() blocks on the service's future for each call, so a client observes
// its own writes in program order (the service completes a write's future only after
// its batch has committed).
//
// A ServiceClient must be driven from one thread at a time (matching the session's
// single-client contract); create one client per concurrent caller. For the same
// surface over the network, see RemoteServiceClient (tcp_client.h).
#ifndef HAC_SERVER_CLIENT_H_
#define HAC_SERVER_CLIENT_H_

#include <string>

#include "src/server/client_api.h"
#include "src/server/hac_service.h"

namespace hac {

class ServiceClient : public RequestClient {
 public:
  explicit ServiceClient(HacService& service);
  ~ServiceClient() override;

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  uint64_t session_id() const { return session_->id(); }
  const std::string& cwd() const { return session_->cwd(); }

 protected:
  ServerResponse Transport(ServerRequest req) override;

 private:
  HacService& service_;
  Session* session_;
};

}  // namespace hac

#endif  // HAC_SERVER_CLIENT_H_
