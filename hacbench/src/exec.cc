#include "hacbench/src/exec.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "src/server/wire.h"

namespace hacbench {
namespace {

using hac::ErrorCode;
using hac::ServerOp;
using hac::ServerRequest;
using hac::ServerResponse;

template <class T>
void Fill(ServerResponse& resp, hac::Result<T> r, T ServerResponse::*field) {
  if (!r.ok()) {
    resp.error = r.error();
  } else {
    resp.*field = std::move(r).value();
  }
}

void FillVoid(ServerResponse& resp, hac::Result<void> r) {
  if (!r.ok()) {
    resp.error = r.error();
  }
}

double SinceUs(double start_sec) { return (NowSec() - start_sec) * 1e6; }

}  // namespace

ServerResponse FacadeRunner::Send(const ServerRequest& req) {
  ServerResponse resp;
  const std::string& p = req.path;
  switch (req.op) {
    case ServerOp::kReadDir:
      Fill(resp, fs_.ReadDir(p), &ServerResponse::entries);
      break;
    case ServerOp::kSearch:
      Fill(resp, fs_.Search(req.aux, p), &ServerResponse::paths);
      break;
    case ServerOp::kStat:
      Fill(resp, fs_.StatPath(p), &ServerResponse::st);
      break;
    case ServerOp::kLstat:
      Fill(resp, fs_.LstatPath(p), &ServerResponse::st);
      break;
    case ServerOp::kGetQuery:
      Fill(resp, fs_.GetQuery(p), &ServerResponse::text);
      break;
    case ServerOp::kGetLinkClasses:
      Fill(resp, fs_.GetLinkClasses(p), &ServerResponse::links);
      break;
    case ServerOp::kReadLink:
      Fill(resp, fs_.ReadLink(p), &ServerResponse::text);
      break;
    case ServerOp::kWriteFile:
      FillVoid(resp, fs_.WriteFile(p, req.aux));
      break;
    case ServerOp::kMkdir:
      FillVoid(resp, fs_.Mkdir(p));
      break;
    case ServerOp::kUnlink:
      FillVoid(resp, fs_.Unlink(p));
      break;
    case ServerOp::kRename:
      FillVoid(resp, fs_.Rename(p, req.aux));
      break;
    case ServerOp::kSetQuery:
      FillVoid(resp, fs_.SetQuery(p, req.aux));
      break;
    case ServerOp::kPromoteLink:
      FillVoid(resp, fs_.PromoteLink(p));
      break;
    case ServerOp::kDemoteLink:
      FillVoid(resp, fs_.DemoteLink(p));
      break;
    case ServerOp::kProhibit:
      FillVoid(resp, fs_.Prohibit(p, req.aux));
      break;
    case ServerOp::kUnprohibit:
      FillVoid(resp, fs_.Unprohibit(p, req.aux));
      break;
    case ServerOp::kReindex:
      FillVoid(resp, fs_.Reindex());
      break;
    case ServerOp::kSSync:
      FillVoid(resp, fs_.SSync(p));
      break;
    case ServerOp::kCheckpoint:
      break;
    case ServerOp::kOpenCursor: {
      auto st = fs_.StatPath(p);
      if (!st.ok()) {
        resp.error = st.error();
        break;
      }
      resp.fd = next_cursor_++;
      cursors_[resp.fd] = Cursor{p, req.aux, {}};
      break;
    }
    case ServerOp::kFetchPage: {
      auto it = cursors_.find(req.fd);
      if (it == cursors_.end()) {
        resp.error = hac::Error(ErrorCode::kBadDescriptor, "unknown cursor");
        break;
      }
      Cursor& cur = it->second;
      const auto limit = static_cast<size_t>(req.size);
      if (cur.query.empty()) {
        auto r = fs_.ReadDirPage(cur.path, &cur.token, limit, 0);
        if (r.ok()) {
          resp.entries = std::move(r.value().entries);
          resp.size = r.value().has_more ? 1 : 0;
          cur.token = std::move(r.value().next);
        } else {
          resp.error = r.error();
        }
      } else {
        auto r = fs_.SearchPage(cur.query, cur.path, &cur.token, limit, 0);
        if (r.ok()) {
          resp.paths = std::move(r.value().paths);
          resp.size = r.value().has_more ? 1 : 0;
          cur.token = std::move(r.value().next);
        } else {
          resp.error = r.error();
        }
      }
      if (!resp.ok()) {
        cursors_.erase(it);
      }
      break;
    }
    case ServerOp::kCloseCursor:
      cursors_.erase(req.fd);
      break;
    default:
      resp.error = hac::Error(ErrorCode::kUnsupported, "op not used by the benchmark");
      break;
  }
  return resp;
}

void Recorder::Fail(const Step& step, const hac::Error& err) {
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(std::string(hac::ServerOpName(step.req.op)) + " " + step.req.path +
                     ": " + err.ToString());
  }
}

void Recorder::Merge(const Recorder& o) {
  read.Append(o.read);
  write.Append(o.write);
  sem.Append(o.sem);
  all.Append(o.all);
  first_page.Append(o.first_page);
  drain.Append(o.drain);
  attempted += o.attempted;
  failed += o.failed;
  fetches += o.fetches;
  drains += o.drains;
  stale += o.stale;
  user_bytes += o.user_bytes;
  for (const std::string& e : o.errors) {
    if (errors.size() < 8) {
      errors.push_back(e);
    }
  }
  captured.insert(captured.end(), o.captured.begin(), o.captured.end());
}

Samples& Recorder::ClassSamples(OpClass cls) {
  switch (cls) {
    case OpClass::kWrite:
      return write;
    case OpClass::kSem:
      return sem;
    default:
      return read;
  }
}

namespace {

// One timed request: latency goes to the step's class and to `all`.
ServerResponse Timed(Runner& runner, const Step& step, const ServerRequest& req,
                     Recorder& rec) {
  const double t0 = NowSec();
  ServerResponse resp = runner.Send(req);
  const double us = SinceUs(t0);
  ++rec.attempted;
  rec.ClassSamples(step.cls).Add(us);
  rec.all.Add(us);
  if (rec.by_op != nullptr) {
    (*rec.by_op)[req.op].Add(us);
  }
  return resp;
}

void MaybeCapture(Recorder& rec, const Step& step, const ServerResponse& resp) {
  if (rec.capture_every != 0 && rec.attempted % rec.capture_every == 0 &&
      rec.captured.size() < rec.capture_limit) {
    rec.captured.push_back({step, resp});
  }
}

double RunDrain(Runner& runner, const Step& step, Recorder& rec) {
  const double t0 = NowSec();
  ServerResponse open = Timed(runner, step, step.req, rec);
  if (!open.ok()) {
    rec.Fail(step, open.error);
    return SinceUs(t0);
  }
  ServerRequest fetch;
  fetch.op = ServerOp::kFetchPage;
  fetch.fd = open.fd;
  ServerResponse all;  // the drain's concatenated result
  bool more = true;
  bool first = true;
  while (more) {
    ServerResponse page = Timed(runner, step, fetch, rec);
    ++rec.fetches;
    if (first) {
      rec.first_page.Add(SinceUs(t0));
      first = false;
    }
    if (!page.ok()) {
      // A stale cursor is closed server-side; anything else is a failure.
      if (page.error.code == ErrorCode::kStaleCursor) {
        ++rec.stale;
      } else {
        rec.Fail(step, page.error);
      }
      return SinceUs(t0);
    }
    all.entries.insert(all.entries.end(), page.entries.begin(), page.entries.end());
    all.paths.insert(all.paths.end(), page.paths.begin(), page.paths.end());
    more = page.size != 0;
  }
  ServerRequest close;
  close.op = ServerOp::kCloseCursor;
  close.fd = open.fd;
  ServerResponse closed = Timed(runner, step, close, rec);
  if (!closed.ok()) {
    rec.Fail(step, closed.error);
  }
  const double us = SinceUs(t0);
  rec.drain.Add(us);
  ++rec.drains;
  MaybeCapture(rec, step, all);
  return us;
}

}  // namespace

double RunStep(Runner& runner, const Step& step, Recorder& rec) {
  if (step.drain) {
    return RunDrain(runner, step, rec);
  }
  const ServerRequest req = step.Request();
  const double t0 = NowSec();
  ServerResponse resp = Timed(runner, step, req, rec);
  const double us = SinceUs(t0);
  if (!resp.ok()) {
    rec.Fail(step, resp.error);
  } else {
    MaybeCapture(rec, step, resp);
  }
  if (step.cls == OpClass::kWrite) {
    rec.user_bytes += req.path.size() + req.aux.size();
  }
  return us;
}

hac::Result<void> Stack::Start(hac::HacFileSystem& fs, hac::DurableStore* store) {
  hac::ServiceOptions options;
  options.durable_store = store;
  service_ = std::make_unique<hac::HacService>(fs, options);
  server_ = std::make_unique<hac::TcpServer>(*service_);
  return server_->Start();
}

void Stack::Stop() {
  if (server_) {
    server_->Stop();
    server_.reset();
  }
  if (service_) {
    service_->Stop();
    service_.reset();
  }
}

PipelinedConn::~PipelinedConn() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

hac::Result<void> PipelinedConn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return hac::Error(ErrorCode::kBusy, "connect failed");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return hac::OkResult();
}

bool PipelinedConn::Exchange(const std::vector<ServerRequest>& reqs,
                             std::vector<ServerResponse>& resps, std::vector<double>& lat_us) {
  std::vector<uint8_t> out;
  for (const ServerRequest& r : reqs) {
    std::vector<uint8_t> frame = hac::EncodeRequestFrame(r);
    out.insert(out.end(), frame.begin(), frame.end());
    hac::RecycleBuffer(std::move(frame));
  }
  const double t0 = NowSec();
  for (size_t sent = 0; sent < out.size();) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  resps.clear();
  lat_us.clear();
  uint8_t buf[64 << 10];
  while (resps.size() < reqs.size()) {
    auto next = decoder_.Next();
    if (!next.ok()) {
      return false;
    }
    if (next.value().has_value()) {
      auto resp = hac::DecodeResponsePayload(next.value()->payload);
      if (!resp.ok()) {
        return false;
      }
      lat_us.push_back(SinceUs(t0));
      resps.push_back(std::move(resp).value());
      continue;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    decoder_.Feed(buf, static_cast<size_t>(n));
  }
  return true;
}

void RunPipelined(PipelinedConn& conn, const std::vector<Step>& steps, Recorder& rec) {
  std::vector<ServerRequest> reqs;
  std::vector<ServerResponse> resps;
  std::vector<double> lat;
  for (size_t i = 0; i < steps.size();) {
    size_t end = i + 1;
    while (steps[i].pipelined && end < steps.size() && steps[end].pipelined &&
           end - i < kIngestWindow) {
      ++end;
    }
    reqs.clear();
    for (size_t j = i; j < end; ++j) {
      reqs.push_back(steps[j].Request());
    }
    if (!conn.Exchange(reqs, resps, lat)) {
      for (size_t j = i; j < end; ++j) {
        ++rec.attempted;
        rec.Fail(steps[j], hac::Error(ErrorCode::kOverloaded, "connection lost"));
      }
      return;
    }
    for (size_t j = i; j < end; ++j) {
      const Step& step = steps[j];
      ++rec.attempted;
      rec.ClassSamples(step.cls).Add(lat[j - i]);
      rec.all.Add(lat[j - i]);
      if (!resps[j - i].ok()) {
        rec.Fail(step, resps[j - i].error);
      }
      if (step.cls == OpClass::kWrite) {
        rec.user_bytes += reqs[j - i].path.size() + reqs[j - i].aux.size();
      }
    }
    i = end;
  }
}

}  // namespace hacbench
