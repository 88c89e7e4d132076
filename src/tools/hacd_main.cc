// hacd: the persistent HAC daemon. Recovers a HacFileSystem from --data-dir (WAL +
// checkpoints, docs/DURABILITY.md), verifies the recovered state with fsck, serves it
// over TCP (docs/API.md wire protocol), and seals the data directory with a final
// checkpoint on SIGINT/SIGTERM.
//
//   hacd --data-dir DIR [--port N] [--bind ADDR] [--checkpoint-records N]
//        [--backlog N] [--idle-timeout-ms N]
//
// Ephemeral mode (no --data-dir) serves an in-memory file system — the pre-durability
// behavior — for demos and tests that do not care about persistence. The bound port is
// printed to stdout as "hacd listening on ADDR:PORT" once the server is up, so
// wrappers can scrape it when --port 0 asks for an ephemeral port.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>

#include "src/core/durability.h"
#include "src/core/hac_file_system.h"
#include "src/server/hac_service.h"
#include "src/server/tcp_server.h"
#include "src/tools/fsck.h"

namespace {

// SIGINT/SIGTERM flip this; the main loop polls it. sig_atomic_t is the only type
// async-signal-safe to write from a handler.
volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--data-dir DIR] [--port N] [--bind ADDR] "
               "[--checkpoint-records N] [--backlog N] [--idle-timeout-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  uint64_t checkpoint_records = 0;  // 0 = DurabilityOptions default
  int backlog = 0;               // 0 = TcpServerOptions default
  uint32_t idle_timeout_ms = 0;  // 0 = never harvest idle connections

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--data-dir" && has_value) {
      data_dir = argv[++i];
    } else if (arg == "--port" && has_value) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--bind" && has_value) {
      bind_address = argv[++i];
    } else if (arg == "--checkpoint-records" && has_value) {
      checkpoint_records = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--backlog" && has_value) {
      backlog = std::atoi(argv[++i]);
    } else if (arg == "--idle-timeout-ms" && has_value) {
      idle_timeout_ms = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return Usage(argv[0]);
    }
  }

  std::unique_ptr<hac::DurableStore> store;
  std::unique_ptr<hac::HacFileSystem> fs;
  if (!data_dir.empty()) {
    hac::DurabilityOptions dopts;
    dopts.data_dir = data_dir;
    if (checkpoint_records > 0) {
      dopts.checkpoint_interval_records = checkpoint_records;
    }
    auto opened = hac::DurableStore::Open(std::move(dopts));
    if (!opened.ok()) {
      std::fprintf(stderr, "hacd: open %s: %s\n", data_dir.c_str(),
                   opened.error().ToString().c_str());
      return 1;
    }
    store = std::move(opened).value();
    auto recovered = store->Recover();
    if (!recovered.ok()) {
      std::fprintf(stderr, "hacd: recover %s: %s\n", data_dir.c_str(),
                   recovered.error().ToString().c_str());
      return 1;
    }
    fs = std::move(recovered).value();
    const hac::RecoveryInfo& info = store->recovery_info();
    std::fprintf(stderr,
                 "hacd: recovered checkpoint_lsn=%llu replayed=%llu skipped=%llu%s\n",
                 static_cast<unsigned long long>(info.checkpoint_lsn),
                 static_cast<unsigned long long>(info.replayed_records),
                 static_cast<unsigned long long>(info.skipped_records),
                 info.tail_truncated ? " (tail truncated)" : "");
    hac::FsckReport report = hac::RunFsck(*fs);
    if (!report.Clean()) {
      std::fprintf(stderr, "hacd: fsck after recovery failed:\n%s",
                   report.ToString().c_str());
      return 1;
    }
  } else {
    fs = std::make_unique<hac::HacFileSystem>();
  }

  hac::ServiceOptions sopts;
  sopts.durable_store = store.get();
  hac::HacService service(*fs, sopts);

  hac::TcpServerOptions topts;
  topts.bind_address = bind_address;
  topts.port = port;
  if (backlog > 0) {
    topts.backlog = backlog;
  }
  topts.idle_timeout_ms = idle_timeout_ms;
  hac::TcpServer server(service, topts);
  if (auto started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "hacd: start: %s\n", started.error().ToString().c_str());
    return 1;
  }
  std::printf("hacd listening on %s:%u\n", bind_address.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  while (g_stop == 0) {
    // Polling keeps the loop signal-safe without pulling in a self-pipe; shutdown
    // latency is bounded by one tick.
    struct timespec tick = {0, 50 * 1000 * 1000};
    nanosleep(&tick, nullptr);
  }

  std::fprintf(stderr, "hacd: shutting down\n");
  server.Stop();
  service.Stop();  // seals the store: final WAL commit + checkpoint
  return 0;
}
